"""Command-line front end.

Verbs:

* ``run <config-or-preset>``: execute one scenario (lock, bode, psd,
  ber-sweep, or trace) and write CSV reports, an optional SVG, and a run
  manifest that reproduces the outputs byte for byte.
* ``presets``: list the bundled scenarios.
* ``plot <csv> <spec.json>``: render a tool CSV to SVG.

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, phasenoise
from .ber import snr_sweep
from .channel import received_trace
from .config import ScenarioConfig, load_config, sweep_variants, validate_config
from .cpr import simulate_lock
from .errors import ConfigError, ConvergenceError
from .presets import PRESETS, list_presets, preset_config
from .reports import (
    format_number,
    resolve_output_dir,
    write_csv,
    write_manifest,
)
from .svgplot import emit_svg, plot_csvs

TOOL_NAME = "oqamcpr"


@dataclass
class Table:
    """One run variant's report, built in memory; ``run_scenario`` writes it."""

    columns: dict  # column name -> values; the key order is the CSV header
    comments: list[str]  # CSV comment lines
    metrics: dict
    notes: list[str]


@dataclass
class RunResult:
    """Files written by one scenario run."""

    files: list[Path] = field(default_factory=list)
    manifest: Path | None = None
    metrics: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _metric_comments(metrics: dict) -> list[str]:
    parts = []
    for key in sorted(metrics):
        value = metrics[key]
        if value is None:
            parts.append(f"{key}=absent")
        else:
            parts.append(f"{key}={format_number(value)}")
    return [" ".join(parts)] if parts else []


def _run_bode(sc: ScenarioConfig) -> Table:
    params = sc.loop_params()
    grid = analysis.log_frequency_grid()
    h = analysis.open_loop_response(params, grid)
    metrics_obj = analysis.bode_metrics(params)
    metrics = asdict(metrics_obj)
    reference = sc.data["run"].get("reference_metrics", {})
    notes = [
        f"reference_deviation: {n}"
        for n in analysis.reference_discrepancies(metrics_obj, reference)
    ]
    columns = {
        "f_hz": grid,
        "mag_db": 20.0 * np.log10(np.abs(h)),
        "phase_deg": analysis.open_loop_phase_deg(params, grid),
    }
    return Table(columns, _metric_comments(metrics) + notes, metrics, notes)


def _run_psd(sc: ScenarioConfig) -> Table:
    scen = sc.scenario()
    spectrum = phasenoise.shaped_spectrum(
        scen.laser.linewidth_hz, scen.mismatch.tau_s, sc.loop_params()
    )
    metrics = {"variance_rad2": spectrum.variance_rad2}
    columns = {"f_hz": spectrum.freqs_hz, "psd_rad2_per_hz": spectrum.psd_rad2_per_hz}
    return Table(columns, _metric_comments(metrics), metrics, [])


def _run_ber(sc: ScenarioConfig) -> Table:
    c = sc.constellation()
    scen = sc.scenario()
    spectrum = phasenoise.shaped_spectrum(
        scen.laser.linewidth_hz, scen.mismatch.tau_s, sc.loop_params()
    )
    loop_bw = spectrum.bode.closed_loop_bw_hz
    sweep = snr_sweep(c, math.sqrt(spectrum.variance_rad2), sc.snr_grid_db())
    metrics = {**sweep.metadata, "fec_threshold_snr_db": sweep.fec_threshold_snr_db}
    notes = [f"fec_threshold: {sweep.fec_threshold_note}"] if sweep.fec_threshold_note else []
    constants = (c.order, c.m_ratio, scen.laser.linewidth_hz,
                 scen.mismatch.delta_l_m, loop_bw if loop_bw is not None else math.nan)
    header = ("snr_db", "ber", "ser", "order", "m_ratio", "linewidth_hz",
              "delta_l_m", "loop_bw_hz")
    n = len(sweep.snr_db)
    columns = dict(zip(header, (sweep.snr_db, sweep.ber, sweep.ser, *([v] * n for v in constants))))
    return Table(columns, _metric_comments(metrics) + notes, metrics, notes)


def _given(run: dict, *keys: str) -> dict:
    """The run keys the config gives; the callee's signature holds their defaults."""
    return {key: run[key] for key in keys if key in run}


def _run_lock(sc: ScenarioConfig) -> Table:
    run = sc.data["run"]
    report = simulate_lock(
        sc.scenario(),
        sc.constellation(),
        sc.loop_params(),
        sc.detector_method(),
        duration_s=run.get("duration_s", 5e-4),
        seed=run["seed"],
        **_given(run, "decimation", "samples_per_symbol"),
    )
    # The metrics and the CSV columns are report fields, under their own names.
    metrics = {name: getattr(report, name) for name in ("residual_rad", "lock_point_rad", "locked")}
    columns = {name: getattr(report, name)
               for name in ("time_s", "psi_rad", "delta_phi_rad", "error_v")}
    return Table(columns, _metric_comments(metrics), metrics, [])


def _run_trace(sc: ScenarioConfig) -> Table:
    run = sc.data["run"]
    t, i, q = received_trace(
        sc.constellation(),
        sc.scenario(),
        num_symbols=run.get("num_symbols", 1000),
        seed=run["seed"],
        **_given(run, "samples_per_symbol"),
    )
    return Table({"time_s": t, "i": i, "q": q}, [], {"samples": int(len(t))}, [])


_MODE_RUNNERS = {
    "bode": _run_bode,
    "psd": _run_psd,
    "ber-sweep": _run_ber,
    "lock": _run_lock,
    "trace": _run_trace,
}

# Each mode's plot spec, without a title; trace draws no SVG.
_PLOTS = {
    "bode": {"x": "f_hz", "y": "mag_db", "logx": True,
             "xlabel": "frequency (Hz)", "ylabel": "open-loop magnitude (dB)"},
    "psd": {"x": "f_hz", "y": "psd_rad2_per_hz", "logx": True, "logy": True,
            "xlabel": "frequency (Hz)", "ylabel": "PSD (rad^2/Hz)"},
    "ber-sweep": {"x": "snr_db", "y": "ber", "logy": True, "kp4_line": True,
                  "xlabel": "Es/N0 (dB)", "ylabel": "BER"},
    "lock": {"x": "time_s", "y": "delta_phi_rad",
             "xlabel": "time (s)", "ylabel": "phase error (rad)"},
}


def _resolve_source(source) -> dict:
    if isinstance(source, dict):
        return validate_config(source)
    name = str(source)
    if name in PRESETS:
        return validate_config(preset_config(name))
    return load_config(name)


def run_scenario(source, output_dir: str | None = None) -> RunResult:
    """Execute a scenario given a config path, preset name, or dict.

    Writes the mode-appropriate CSV reports (one per sweep value), an
    overlay SVG when requested, and a manifest recording the resolved
    configuration so any run can be replayed exactly.
    """
    cfg = _resolve_source(source)
    run = cfg["run"]
    outdir = resolve_output_dir(output_dir, run.get("output_dir"))
    label = run.get("label") or run["mode"].replace("-", "_")
    mode = run["mode"]
    runner = _MODE_RUNNERS[mode]

    variants = sweep_variants(cfg)
    runs = [(f"{label}_{slug}", v) for slug, v in variants.items()] or [(label, cfg)]
    tables = {variant_label: runner(ScenarioConfig(v)) for variant_label, v in runs}

    # The SVG is drawn first: a plot that cannot be drawn fails the run
    # before any file is written.
    plot = _PLOTS.get(mode)
    svg = None
    if run.get("svg") and plot is not None:
        series = [(variant_label, t.columns) for variant_label, t in tables.items()]
        try:
            svg = emit_svg(series, {**plot, "title": label}, outdir / f"{label}.svg")
        except ValueError as exc:  # no variant has a point to plot; the spec is ours
            hint = (": the PSD is zero unless laser.linewidth_hz and mismatch.delta_l_m "
                    "are both > 0") if mode == "psd" else ""
            raise ConfigError(f"run.svg: {exc}{hint}") from exc

    result = RunResult()
    for variant_label, table in tables.items():
        columns = table.columns
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
        result.files.append(write_csv(
            outdir / f"{variant_label}.csv", tuple(columns), zip(*values), table.comments
        ))
        result.notes.extend(table.notes)
    if svg is not None:
        result.files.append(svg)
    per_variant_metrics = {variant_label: t.metrics for variant_label, t in tables.items()}
    result.metrics = per_variant_metrics if variants else per_variant_metrics[label]

    manifest_payload = {
        "tool": TOOL_NAME,
        "version": __version__,
        "mode": mode,
        "config": cfg,
        "outputs": sorted(f.name for f in result.files),
        "metrics": result.metrics,
        "notes": result.notes,
    }
    result.manifest = write_manifest(outdir / f"{label}_manifest.json", manifest_payload)
    return result


def _cmd_run(args) -> int:
    result = run_scenario(args.config, output_dir=args.output_dir)
    for path in result.files + [result.manifest]:
        print(path)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_presets(_args) -> int:
    print(list_presets())
    return 0


def _cmd_plot(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load plot spec {args.spec}: {exc}") from exc
    out = args.output or str(Path(args.csv).with_suffix(".svg"))
    plot_csvs([args.csv], spec, out)
    print(out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Offset-QAM coherent link and carrier-recovery simulator",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file or bundled preset")
    p_run.add_argument("config", help="path to a JSON scenario or a preset name")
    p_run.add_argument("-o", "--output-dir", default=None, help="report directory")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="list bundled presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_plot = sub.add_parser("plot", help="render a tool CSV to SVG")
    p_plot.add_argument("csv", help="CSV report produced by this tool")
    p_plot.add_argument("spec", help="JSON plot specification")
    p_plot.add_argument("-o", "--output", default=None, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and domain rejections alike
        # numpy rejects an array size past the address space with a ValueError
        too_large = str(exc).startswith(("Maximum allowed", "array is too big"))
        print(f"error: {'out of memory: ' if too_large else ''}{exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a duration_s or num_symbols too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The benchmark's workloads: inputs built from a seed, calls into the
package's public entry points, and checks on every output.

A workload is a list of operations.  Each operation makes one call into
``oqamcpr`` (``cli.run_scenario``, ``ber.required_snr_db``,
``ber.monte_carlo_ber``, ...) and has a check that returns the problems it
found in the output, so a wrong value is counted as a failed operation
rather than raised.  The expected values are the seed commit's.

Building a workload (``WORKLOADS[name](seed)``) resolves and validates its
configs; together with ``import oqamcpr`` that is what ``setup_s`` times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from oqamcpr import analysis, ber, cli, phasenoise
from oqamcpr.channel import PathMismatch
from oqamcpr.config import validate_config
from oqamcpr.constellation import average_symbol_energy, build_constellation
from oqamcpr.presets import preset_config, preset_names


@dataclass
class Op:
    """One public-API call and the check on its output."""

    name: str
    call: Callable[[Path], Any]  # receives the directory for report files
    check: Callable[[Any], list[str]]  # problems found; empty when correct


# The bundled lock presets run 5e-4 s (50,000 loop blocks, about 10 s each
# on a 2-core Xeon).  The benchmark runs them for 1e-4 s so one iteration
# fits several times into a run; every cost of a lock run (loop blocks,
# CSV rows, SVG points) scales with the block count, so the split between
# layers is the same.
LOCK_DURATION_S = 1e-4
LOCK_PRESETS = ("lock_transient_4qam", "lock_transient_16qam")
LOCK_TOLERANCE_RAD = math.radians(1.0)

# 16-QAM from pi/4 through the per-sample phase-noise, AWGN and
# photodetector-filter data path, which no preset covers.  The linewidth is
# 100 kHz: at 1 MHz the lock report's drift test (tail half-means within
# 0.5 deg) fails for about 1 seed in 10 at this duration although the
# residual stays far below 1 deg; the data path and its cost are the same.
NOISY_LOCK = {
    "modulation": {"order": 16},
    "laser": {"linewidth_hz": 1e5},
    "mismatch": {"delta_l_m": 0.1},
    "channel": {
        "phi_offset_rad": math.pi / 4,
        "snr_db": 19.0,
        "pd_bandwidth_hz": 50e9,
    },
    "run": {"mode": "lock", "label": "lock_noisy", "duration_s": LOCK_DURATION_S},
}

# Seed-commit outputs of the non-lock presets: the KP4 threshold SNR of
# every BER sweep variant (None where the grid never crosses it), the Bode
# metrics, the PSD variances and the eye-trace sample count.
EXPECTED_SWEEPS: dict[str, dict[str, Any]] = {
    "ber_linewidth_16qam": {
        "ber_linewidth_16qam_100000.fec_threshold_snr_db": 17.743772052587858,
        "ber_linewidth_16qam_500000.fec_threshold_snr_db": 18.19199892408849,
        "ber_linewidth_16qam_1e06.fec_threshold_snr_db": 19.047148143018916,
        "ber_linewidth_16qam_1e07.fec_threshold_snr_db": None,
    },
    "ber_linewidth_4qam": {
        "ber_linewidth_4qam_100000.fec_threshold_snr_db": 10.877344313169914,
        "ber_linewidth_4qam_500000.fec_threshold_snr_db": 10.954163145105932,
        "ber_linewidth_4qam_1e06.fec_threshold_snr_db": 11.054930932922229,
        "ber_linewidth_4qam_1e07.fec_threshold_snr_db": 15.188240294435976,
    },
    "ber_loop_bandwidth_16qam": {
        "ber_loopbw_16qam_1e06.fec_threshold_snr_db": 19.04664234293635,
        "ber_loopbw_16qam_1e07.fec_threshold_snr_db": 19.017956871253233,
        "ber_loopbw_16qam_1e08.fec_threshold_snr_db": 18.768475001227632,
    },
    "ber_mismatch_16qam": {
        "ber_mismatch_16qam_0.fec_threshold_snr_db": 17.653388203995224,
        "ber_mismatch_16qam_0p05.fec_threshold_snr_db": 18.19066965394491,
        "ber_mismatch_16qam_0p1.fec_threshold_snr_db": 19.047148143018916,
        "ber_mismatch_16qam_0p5.fec_threshold_snr_db": None,
    },
    "ber_offset_16qam": {
        f"ber_offset_16qam_{slug}.fec_threshold_snr_db": 17.653388203995224
        for slug in ("0", "0p1", "0p25", "0p5")
    },
    "ber_offset_4qam": {
        f"ber_offset_4qam_{slug}.fec_threshold_snr_db": 10.858931421368007
        for slug in ("0", "0p1", "0p25", "0p5")
    },
    "bode_reference_loop": {
        "dc_gain": 960.8399999999999,
        "crossover_hz": 107769.61661787363,
        "phase_margin_deg": 11.92203538500388,
        "closed_loop_bw_hz": 166708.13274426956,
    },
    "eye_trace_4qam": {"samples": 6400},
    "psd_loop_bandwidth": {
        "psd_1e06.variance_rad2": 0.0030796812099291304,
        "psd_1e07.variance_rad2": 0.0030385342855811367,
        "psd_1e08.variance_rad2": 0.0026546010075769707,
    },
}
SWEEP_REL_TOL = 1e-9

# Criteria 8a-8d: (name, threshold with more jitter, threshold with less,
# seed-commit penalty as printed in dB).
EXPECTED_PENALTIES = (
    ("8a", "t4_1m", "t4_100k", "0.177"),
    ("8b", "t16_1m", "t16_100k", "1.303"),
    ("8c", "t16_1m", "t16_clean", "1.392"),
    ("8d", "t16_bw10m", "t16_bw100m", "0.249"),
)
EXPECTED_BER_19DB = "2.5016e-04"  # criterion 9, as printed
MC_SYMBOLS = 2_000_000
MC_MAX_SIGMA = 3.0


def _flatten(metrics: dict, prefix: str = "") -> dict[str, Any]:
    flat = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def compare_metrics(actual: dict, expected: dict[str, Any], rel_tol: float) -> list[str]:
    """Problems where the flattened ``actual`` differs from ``expected``."""
    flat = _flatten(actual)
    problems = []
    for key, want in expected.items():
        if key not in flat:
            problems.append(f"{key} missing")
            continue
        got = flat[key]
        if want is None or got is None or isinstance(want, (bool, int)):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=rel_tol)
        if not ok:
            problems.append(f"{key}={got!r}, expected {want!r}")
    return problems


def _csv_data_rows(path: Path) -> int:
    with open(path) as handle:
        return sum(1 for line in handle if line.strip() and not line.startswith("#")) - 1


def _lock_op(name: str, cfg: dict) -> Op:
    run = cfg["run"]
    decimation = run.get("decimation", 1000)
    blocks = round(run["duration_s"] * cfg["channel"]["baud_rate_hz"] / decimation)

    def check(result) -> list[str]:
        m = result.metrics
        problems = []
        if m["locked"] is not True:
            problems.append(f"locked={m['locked']!r}")
        if not abs(m["residual_rad"]) < LOCK_TOLERANCE_RAD:
            problems.append(f"|residual_rad|={abs(m['residual_rad']):.3g} >= 1 deg")
        if m["lock_point_rad"] != 0.0:
            problems.append(f"lock_point_rad={m['lock_point_rad']!r}, expected 0.0")
        csv = next(f for f in result.files if f.suffix == ".csv")
        rows = _csv_data_rows(csv)
        if rows != blocks:
            problems.append(f"{csv.name} has {rows} rows, expected {blocks} blocks")
        return problems

    return Op(name, lambda outdir: cli.run_scenario(cfg, str(outdir)), check)


def lock_clean(seed: int) -> list[Op]:
    """The two lock presets (SVG on) on the noiseless symbol path."""
    ops = []
    for name in LOCK_PRESETS:
        cfg = preset_config(name)
        cfg["run"].update(duration_s=LOCK_DURATION_S, seed=seed)
        ops.append(_lock_op(name, validate_config(cfg)))
    return ops


def lock_noisy(seed: int) -> list[Op]:
    """One 16-QAM lock with phase noise, AWGN and the photodetector filter."""
    cfg = {section: dict(values) for section, values in NOISY_LOCK.items()}
    cfg["run"]["seed"] = seed
    return [_lock_op("lock_noisy", validate_config(cfg))]


def sweep_presets(seed: int, expected: dict[str, dict] = EXPECTED_SWEEPS) -> list[Op]:
    """Every non-lock preset; deterministic, so the seed is unused."""
    del seed
    ops = []
    for name in preset_names():
        if name in LOCK_PRESETS:
            continue
        cfg = validate_config(preset_config(name))
        want = expected[name]
        ops.append(
            Op(
                name,
                lambda outdir, cfg=cfg: cli.run_scenario(cfg, str(outdir)),
                lambda result, want=want: compare_metrics(
                    result.metrics, want, SWEEP_REL_TOL
                ),
            )
        )
    return ops


def _sigma(linewidth_hz: float, params=analysis.DEFAULT_LOOP) -> float:
    tau = PathMismatch(0.1).tau_s
    return math.sqrt(phasenoise.total_variance(linewidth_hz, tau, params))


def kp4_oracle(
    seed: int,
    penalties=EXPECTED_PENALTIES,
    ber_19db: str = EXPECTED_BER_19DB,
) -> list[Op]:
    """Criteria 8a-8d and 9 (16-QAM, 1 MHz, 10 cm) plus the Monte Carlo oracle."""
    c4 = build_constellation(4, 1.0, 0.1)
    c16 = build_constellation(16, 1.0, 0.1)
    n0_19db = average_symbol_energy(c16) / 10**1.9

    def thresholds(_outdir):
        sig_100k, sig_1m = _sigma(1e5), _sigma(1e6)
        sig_bw = {
            bw: _sigma(1e6, analysis.scale_to_closed_loop_bandwidth(analysis.DEFAULT_LOOP, bw))
            for bw in (1e7, 1e8)
        }
        return {
            "t4_100k": ber.required_snr_db(c4, sig_100k),
            "t4_1m": ber.required_snr_db(c4, sig_1m),
            "t16_100k": ber.required_snr_db(c16, sig_100k),
            "t16_1m": ber.required_snr_db(c16, sig_1m),
            "t16_clean": ber.required_snr_db(c16, 0.0),
            "t16_bw10m": ber.required_snr_db(c16, sig_bw[1e7]),
            "t16_bw100m": ber.required_snr_db(c16, sig_bw[1e8]),
        }

    def check_penalties(t) -> list[str]:
        problems = []
        for name, worse, better, want in penalties:
            got = f"{t[worse] - t[better]:.3f}"
            if got != want:
                problems.append(f"penalty {name}={got} dB, expected {want} dB")
        return problems

    def env_19db():
        return ber.NoiseEnvironment(n0_19db, _sigma(1e6))

    def ber_at_19db(_outdir):
        return ber.ber_from_ser(ber.semi_analytic_ser(c16, env_19db()), c16.order)

    def check_ber(value) -> list[str]:
        got = f"{value:.4e}"
        return [] if got == ber_19db else [f"BER at 19 dB={got}, expected {ber_19db}"]

    def monte_carlo(_outdir):
        return ber.monte_carlo_ber(c16, env_19db(), MC_SYMBOLS, seed=seed)

    def check_monte_carlo(result) -> list[str]:
        mc_ber, mc_ser, _ = result
        env = env_19db()
        n = MC_SYMBOLS
        problems = []
        for label, got, want, trials in (
            ("BER", mc_ber, ber.semi_analytic_ber(c16, env), n * c16.bits_per_symbol),
            ("SER", mc_ser, ber.semi_analytic_ser(c16, env), n),
        ):
            dev = abs(got - want) / math.sqrt(want * (1.0 - want) / trials)
            if dev > MC_MAX_SIGMA:
                problems.append(
                    f"Monte Carlo {label}={got:.4e} is {dev:.2f} sigma from {want:.4e}"
                )
        return problems

    return [
        Op("required_snr_db", thresholds, check_penalties),
        Op("ber_19db", ber_at_19db, check_ber),
        Op("monte_carlo_ber", monte_carlo, check_monte_carlo),
    ]


# Each workload is two of the groups above run back to back in one
# iteration.  Two workloads leave room for runs of about a minute, which the
# host's drifting speed needs for a steady median.
GROUPS: dict[str, tuple[Callable[[int], list[Op]], ...]] = {
    "lock": (lock_clean, lock_noisy),
    "ber": (sweep_presets, kp4_oracle),
}
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    name: lambda seed, groups=groups: [op for group in groups for op in group(seed)]
    for name, groups in GROUPS.items()
}

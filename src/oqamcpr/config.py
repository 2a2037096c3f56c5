"""Scenario configuration: JSON schema, validation, and domain-object glue.

A scenario file is a single JSON object with the sections below; every
physical quantity carries its unit in the key name.  Unknown keys are
rejected with the offending key named and, where possible, the line in
the source file.  ``docs/formats.md`` documents the full schema.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .analysis import DEFAULT_LOOP, LoopParams, scale_to_closed_loop_bandwidth
from .channel import ChannelScenario, LaserModel, PathMismatch
from .constellation import SUPPORTED_ORDERS, OffsetQamConstellation, build_constellation
from .cpr import DetectorMethod
from .errors import ConfigError

MODES = ("lock", "bode", "psd", "ber-sweep", "trace")
_LOOP_KEYS = tuple(f.name for f in fields(LoopParams))

DEFAULTS = {
    "modulation": {"order": None, "a_oma": 1.0},
    "laser": {"linewidth_hz": 0.0},
    "mismatch": {"delta_l_m": 0.0, "refractive_index": 1.468},
    "loop": {**asdict(DEFAULT_LOOP), "detector_method": "method1"},
    "channel": {"baud_rate_hz": 100e9, "phi_offset_rad": 0.0},
    "run": {"mode": None, "seed": 1, "svg": False, "label": None},
}

_ALLOWED = {
    "modulation": {"order", "a_oma", "a0", "m_ratio"},
    "laser": {"linewidth_hz"},
    "mismatch": {"delta_l_m", "refractive_index"},
    "loop": {*_LOOP_KEYS, "detector_method", "closed_loop_bw_hz"},
    "channel": {"baud_rate_hz", "snr_db", "n0", "pd_bandwidth_hz", "phi_offset_rad"},
    "run": {
        "mode",
        "seed",
        "svg",
        "label",
        "output_dir",
        "duration_s",
        "decimation",
        "samples_per_symbol",
        "num_symbols",
        "snr_grid_db",
        "sweep",
        "reference_metrics",
    },
}

_SWEEPABLE = {
    "laser.linewidth_hz",
    "mismatch.delta_l_m",
    "mismatch.refractive_index",
    "modulation.m_ratio",
    "modulation.a0",
    "modulation.a_oma",
    "loop.closed_loop_bw_hz",
    "channel.snr_db",
    "channel.phi_offset_rad",
}


def _line_of(raw: str | None, key: str) -> str:
    if raw is None:
        return ""
    for n, line in enumerate(raw.splitlines(), start=1):
        if f'"{key}"' in line:
            return f" (line {n})"
    return ""


def _fail(raw: str | None, key: str, message: str):
    raise ConfigError(f"config key {key!r}{_line_of(raw, key)}: {message}")


def _require_number(raw, section, key, value, minimum=None, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(raw, key, f"expected a number in section {section!r}")
    if positive and value <= 0:
        _fail(raw, key, "must be > 0")
    if minimum is not None and value < minimum:
        _fail(raw, key, f"must be >= {minimum}")
    if not math.isfinite(value):
        _fail(raw, key, "must be finite")


def validate_config(data: dict, raw: str | None = None) -> dict:
    """Check structure, fill defaults, and return the resolved config."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for section in data:
        if section not in _ALLOWED:
            _fail(raw, section, f"unknown section; expected one of {sorted(_ALLOWED)}")
        if not isinstance(data[section], dict):
            _fail(raw, section, "section must be an object")
        for key in data[section]:
            if key not in _ALLOWED[section]:
                _fail(
                    raw,
                    key,
                    f"unknown key in section {section!r}; "
                    f"expected one of {sorted(_ALLOWED[section])}",
                )

    cfg = copy.deepcopy(DEFAULTS)
    for section, values in data.items():
        cfg[section].update(copy.deepcopy(values))

    mod = cfg["modulation"]
    if mod["order"] is None:
        _fail(raw, "order", "modulation.order is required")
    if mod["order"] not in SUPPORTED_ORDERS:
        _fail(raw, "order", f"must be one of {SUPPORTED_ORDERS}")
    _require_number(raw, "modulation", "a_oma", mod["a_oma"], positive=True)
    if "a0" in mod and "m_ratio" in mod:
        # Both appear in resolved configs written to manifests; reject
        # only when they disagree.
        if abs(mod["a0"] - mod["m_ratio"] * mod["a_oma"]) > 1e-9 * max(
            1.0, abs(mod["a0"])
        ):
            _fail(raw, "a0", "a0 and m_ratio disagree; give one of them")
        del mod["a0"]
    if "a0" not in mod:
        mod.setdefault("m_ratio", 0.1)
    if "m_ratio" in mod:
        _require_number(raw, "modulation", "m_ratio", mod["m_ratio"], minimum=0.0)
        mod["a0"] = mod["m_ratio"] * mod["a_oma"]
    else:
        _require_number(raw, "modulation", "a0", mod["a0"], minimum=0.0)
        mod["m_ratio"] = mod["a0"] / mod["a_oma"]

    _require_number(raw, "laser", "linewidth_hz", cfg["laser"]["linewidth_hz"], minimum=0.0)
    _require_number(raw, "mismatch", "delta_l_m", cfg["mismatch"]["delta_l_m"], minimum=0.0)
    _require_number(
        raw, "mismatch", "refractive_index", cfg["mismatch"]["refractive_index"], positive=True
    )

    loop = cfg["loop"]
    for key in _LOOP_KEYS:
        _require_number(raw, "loop", key, loop[key], positive=True)
    if "closed_loop_bw_hz" in loop:
        _require_number(raw, "loop", "closed_loop_bw_hz", loop["closed_loop_bw_hz"], positive=True)
    if loop["detector_method"] not in ("method1", "method2"):
        _fail(raw, "detector_method", "must be 'method1' or 'method2'")

    chan = cfg["channel"]
    _require_number(raw, "channel", "baud_rate_hz", chan["baud_rate_hz"], positive=True)
    if "snr_db" in chan and "n0" in chan:
        _fail(raw, "snr_db", "give snr_db or n0, not both")
    if "n0" in chan:
        _require_number(raw, "channel", "n0", chan["n0"], minimum=0.0)
    if "snr_db" in chan:
        _require_number(raw, "channel", "snr_db", chan["snr_db"])
    if "pd_bandwidth_hz" in chan:
        _require_number(raw, "channel", "pd_bandwidth_hz", chan["pd_bandwidth_hz"], positive=True)
    _require_number(raw, "channel", "phi_offset_rad", chan["phi_offset_rad"])

    run = cfg["run"]
    if run["mode"] not in MODES:
        _fail(raw, "mode", f"run.mode must be one of {MODES}")
    if not isinstance(run["seed"], int) or isinstance(run["seed"], bool):
        _fail(raw, "seed", "must be an integer")
    if not isinstance(run["svg"], bool):
        _fail(raw, "svg", "must be a boolean")
    if run["label"] is not None and not isinstance(run["label"], str):
        _fail(raw, "label", "must be a string")
    if "sweep" in run:
        sweep = run["sweep"]
        if (
            not isinstance(sweep, dict)
            or set(sweep) != {"key", "values"}
            or not isinstance(sweep["values"], list)
            or not sweep["values"]
        ):
            _fail(raw, "sweep", "must be {'key': <dotted key>, 'values': [..]}")
        if sweep["key"] not in _SWEEPABLE:
            _fail(raw, "sweep", f"sweep key must be one of {sorted(_SWEEPABLE)}")
    if "snr_grid_db" in run:
        grid = run["snr_grid_db"]
        ok = (
            isinstance(grid, list)
            and len(grid) >= 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid)
        ) or (
            isinstance(grid, dict)
            and set(grid) == {"start", "stop", "step"}
        )
        if not ok:
            _fail(raw, "snr_grid_db", "must be a list of values or {start, stop, step}")
    if "duration_s" in run:
        _require_number(raw, "run", "duration_s", run["duration_s"], positive=True)
    for key in ("decimation", "samples_per_symbol", "num_symbols"):
        value = run.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            _fail(raw, key, "must be a positive integer")
    if run["mode"] == "lock" and mod["a0"] == 0:
        key = "m_ratio" if "m_ratio" in data["modulation"] else "a0"
        _fail(raw, key, "lock mode needs a0 = m_ratio * a_oma > 0")
    if "reference_metrics" in run:
        ref = run["reference_metrics"]
        allowed = {"crossover_hz", "phase_margin_deg", "closed_loop_bw_hz", "dc_gain"}
        if not isinstance(ref, dict) or not set(ref) <= allowed:
            _fail(raw, "reference_metrics", f"keys must be within {sorted(allowed)}")
    return cfg


def load_config(path: str | Path) -> dict:
    """Read and validate a scenario file, returning the resolved config."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}"
        ) from exc
    return validate_config(data, raw)


def set_by_path(cfg: dict, dotted: str, value):
    """Assign a sweep override like 'laser.linewidth_hz' into the config."""
    section, key = dotted.split(".", 1)
    cfg[section][key] = value
    if dotted == "modulation.m_ratio":
        cfg["modulation"]["a0"] = value * cfg["modulation"]["a_oma"]
    if dotted == "modulation.a0":
        cfg["modulation"]["m_ratio"] = value / cfg["modulation"]["a_oma"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved configuration with typed access to the domain objects."""

    data: dict

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls(load_config(path))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return cls(validate_config(data))

    def constellation(self) -> OffsetQamConstellation:
        mod = self.data["modulation"]
        return build_constellation(mod["order"], mod["a_oma"], mod["a0"])

    def loop_params(self) -> LoopParams:
        loop = self.data["loop"]
        params = LoopParams(**{key: loop[key] for key in _LOOP_KEYS})
        if "closed_loop_bw_hz" in loop:
            params = scale_to_closed_loop_bandwidth(params, loop["closed_loop_bw_hz"])
        return params

    def detector_method(self) -> DetectorMethod:
        return DetectorMethod(self.data["loop"]["detector_method"])

    def scenario(self) -> ChannelScenario:
        chan = self.data["channel"]
        return ChannelScenario(
            baud_rate_hz=chan["baud_rate_hz"],
            laser=LaserModel(self.data["laser"]["linewidth_hz"]),
            mismatch=PathMismatch(
                self.data["mismatch"]["delta_l_m"],
                self.data["mismatch"]["refractive_index"],
            ),
            phi_offset_rad=chan["phi_offset_rad"],
            snr_db=chan.get("snr_db"),
            n0=chan.get("n0"),
            pd_bandwidth_hz=chan.get("pd_bandwidth_hz"),
            seed=self.data["run"]["seed"],
        )

    def snr_grid_db(self) -> list[float]:
        grid = self.data["run"].get("snr_grid_db")
        if grid is None:
            raise ConfigError("run.snr_grid_db is required for ber-sweep mode")
        if isinstance(grid, dict):
            start, stop, step = grid["start"], grid["stop"], grid["step"]
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + i * step for i in range(n)]
        return list(grid)

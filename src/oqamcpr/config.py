"""Scenario configuration: JSON schema, validation, and domain-object glue.

A scenario file is a single JSON object with the sections below; every
physical quantity carries its unit in the key name.  ``SCHEMA`` gives
every key's default and rule once; unknown keys and values that break a
rule are rejected with the offending key named and, where possible, the
line in the source file.  ``docs/formats.md`` documents the full schema.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import DEFAULT_LOOP, BodeMetrics, LoopParams, scale_to_closed_loop_bandwidth
from .channel import DEFAULT_REFRACTIVE_INDEX, ChannelScenario, LaserModel, PathMismatch
from .constellation import (
    SUPPORTED_ORDERS,
    OffsetQamConstellation,
    build_constellation,
    n0_from_snr_db,
)
from .cpr import MIN_LOCK_M_RATIO, DetectorMethod
from .domain import RANGES
from .errors import ConfigError
from .reports import value_slug

_REFERENCE_KEYS = tuple(f.name for f in fields(BodeMetrics))

_LOOP = ("loop.closed_loop_bw_hz",)
_LINK = ("laser.linewidth_hz", "mismatch.delta_l_m", "mismatch.refractive_index")
_MODULATION = ("modulation.m_ratio", "modulation.a0", "modulation.a_oma")
_CHANNEL = ("channel.snr_db", "channel.phi_offset_rad")
# Each mode and the keys its outputs depend on, the only keys it may sweep:
# a sweep of any other key would write copies of one report.
SWEEP_KEYS = {
    "lock": _LOOP + _LINK + _MODULATION + _CHANNEL,
    "bode": _LOOP,
    "psd": _LOOP + _LINK,
    "ber-sweep": _LOOP + _LINK + _MODULATION,
    "trace": _LINK + _MODULATION + _CHANNEL,
}
MODES = tuple(SWEEP_KEYS)
_ALL_SWEEP_KEYS = sorted(set().union(*SWEEP_KEYS.values()))


def _is_number(v) -> bool:
    """A JSON number (not a bool) that converts to a finite float; rejects NaN."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _grid_size(g) -> int:
    """Point count of an Es/N0 grid, a list or {start, stop, step}; 0 if malformed."""
    if isinstance(g, list):
        increasing = all(map(_is_number, g)) and all(a < b for a, b in zip(g, g[1:]))
        return len(g) if increasing else 0
    if not isinstance(g, dict) or set(g) != {"start", "stop", "step"}:
        return 0
    if not all(map(_is_number, g.values())) or g["step"] <= 0:
        return 0
    span = (float(g["stop"]) - g["start"]) / g["step"]  # float: huge ints would overflow
    return math.floor(span + 1e-9) + 1 if math.isfinite(span) else 0


def _one_of(choices):
    return (f"one of {list(choices)}", lambda v: v in choices)


def _within(dotted: str):
    """The rule of a key with a physical range (``domain.RANGES``)."""
    lo, hi, _ = RANGES[dotted]
    return (f"a number in [{lo:g}, {hi:g}]",
            lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and lo <= v <= hi)


# A rule is (description, predicate); the description completes "must be ...".
NUMBER = ("a finite number", _is_number)
POSITIVE = ("a finite number > 0", lambda v: _is_number(v) and v > 0)
NON_NEGATIVE = ("a finite number >= 0", lambda v: _is_number(v) and v >= 0)
COUNT = ("a positive integer", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1)
TEXT = ("a string or null", lambda v: v is None or isinstance(v, str))
FLAG = ("true or false", lambda v: isinstance(v, bool))
LABEL = ("a string with no '/' or '\\' that is not '.' or '..', or null",
         lambda v: v is None or (isinstance(v, str) and not {"/", "\\"} & set(v)
                                 and v not in (".", "..")))
GRID = ("a strictly increasing list of >= 2 finite numbers, or "
        "{start, stop, step} with step > 0 spanning >= 2 points", lambda g: _grid_size(g) >= 2)
SWEEP = (f"{{'key': <one of {_ALL_SWEEP_KEYS}>, 'values': [<one or more values>]}}",
         lambda v: isinstance(v, dict) and set(v) == {"key", "values"}
         and v["key"] in _ALL_SWEEP_KEYS and isinstance(v["values"], list) and len(v["values"]) > 0)
REFERENCE = (f"an object mapping some of {list(_REFERENCE_KEYS)} to finite nonzero numbers",
             lambda v: isinstance(v, dict) and all(
                 k in _REFERENCE_KEYS and _is_number(x) and x != 0 for k, x in v.items()))

REQUIRED = object()  # the key must be given
OPTIONAL = object()  # the key may be absent and gets no default

# The scenario schema: section -> key -> (default, REQUIRED or OPTIONAL; rule).
# m_ratio's default applies only when a0 is not given (see _resolve).
SCHEMA = {
    "modulation": {
        "order": (REQUIRED, _one_of(SUPPORTED_ORDERS)),
        "a_oma": (1.0, _within("modulation.a_oma")),
        "a0": (OPTIONAL, NON_NEGATIVE),
        "m_ratio": (0.1, _within("modulation.m_ratio")),
    },
    "laser": {"linewidth_hz": (0.0, _within("laser.linewidth_hz"))},
    "mismatch": {
        "delta_l_m": (0.0, _within("mismatch.delta_l_m")),
        "refractive_index": (DEFAULT_REFRACTIVE_INDEX, _within("mismatch.refractive_index")),
    },
    "loop": {
        **{key: (value, _within(f"loop.{key}")) for key, value in asdict(DEFAULT_LOOP).items()},
        "detector_method": ("method1", _one_of([m.value for m in DetectorMethod])),
        "closed_loop_bw_hz": (OPTIONAL, _within("loop.closed_loop_bw_hz")),
    },
    "channel": {
        "baud_rate_hz": (100e9, _within("channel.baud_rate_hz")),
        "snr_db": (OPTIONAL, _within("channel.snr_db")),
        "pd_bandwidth_hz": (OPTIONAL, _within("channel.pd_bandwidth_hz")),
        "phi_offset_rad": (0.0, _within("channel.phi_offset_rad")),
    },
    "run": {
        "mode": (REQUIRED, _one_of(MODES)),
        "seed": (1, ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))),
        "svg": (False, FLAG),
        "label": (None, LABEL),
        "output_dir": (OPTIONAL, TEXT),
        "duration_s": (OPTIONAL, POSITIVE),
        "decimation": (OPTIONAL, COUNT),
        "samples_per_symbol": (OPTIONAL, COUNT),
        "num_symbols": (OPTIONAL, COUNT),
        "snr_grid_db": (OPTIONAL, GRID),
        "sweep": (OPTIONAL, SWEEP),
        "reference_metrics": (OPTIONAL, REFERENCE),
    },
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


def _resolve(data: dict, raw: str | None) -> dict:
    """Check one scenario (no sweep expansion) against SCHEMA and resolve it."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for section, given in data.items():
        if section not in SCHEMA:
            _fail(raw, section, f"unknown section; expected one of {sorted(SCHEMA)}")
        if not isinstance(given, dict):
            _fail(raw, section, "section must be an object")
        for key in given:
            if key not in SCHEMA[section]:
                expected = sorted(SCHEMA[section])
                _fail(raw, key, f"unknown key in section {section!r}; expected one of {expected}")

    cfg = {}
    for section, table in SCHEMA.items():
        given = data.get(section, {})
        cfg[section] = values = {}
        for key, (default, (description, ok)) in table.items():
            if key in given:
                if not ok(given[key]):
                    _fail(raw, key, f"{section}.{key} must be {description}")
                values[key] = copy.deepcopy(given[key])
            elif default is REQUIRED:
                _fail(raw, key, f"{section}.{key} is required")
            elif default is not OPTIONAL:
                values[key] = default

    mod = cfg["modulation"]
    source = "a0" if "a0" in mod and "m_ratio" not in data["modulation"] else "m_ratio"
    if source == "a0":
        mod["m_ratio"] = mod["a0"] / mod["a_oma"]
        description, ok = SCHEMA["modulation"]["m_ratio"][1]
        if not ok(mod["m_ratio"]):
            _fail(raw, "a0", f"modulation.m_ratio = a0 / a_oma = {mod['m_ratio']:g} "
                             f"must be {description}")
    elif "a0" not in mod:
        mod["a0"] = mod["m_ratio"] * mod["a_oma"]
    elif abs(mod["a0"] - mod["m_ratio"] * mod["a_oma"]) > 1e-9 * max(1.0, abs(mod["a0"])):
        # Both appear in resolved configs written to manifests, and a0 is
        # kept as given so a replay uses the same a0; reject only when
        # they disagree.
        _fail(raw, "a0", "a0 and m_ratio disagree; give one of them")
    if cfg["run"]["mode"] == "lock" and mod["m_ratio"] < MIN_LOCK_M_RATIO:
        _fail(raw, source, f"lock mode needs m_ratio = a0 / a_oma >= {MIN_LOCK_M_RATIO:g}, "
                           "the offset the phase detectors read")
    if cfg["run"]["mode"] == "ber-sweep" and "snr_grid_db" not in cfg["run"]:
        _fail(raw, "snr_grid_db", "run.snr_grid_db is required for ber-sweep mode")
    return cfg


def sweep_variants(cfg: dict, raw: str | None = None) -> dict[str, dict]:
    """Resolved config of each sweep value, keyed by its value slug.

    The swept key must be one that the mode reads (``SWEEP_KEYS``), each
    value must pass the key's rule and its variant the cross-key rules;
    values whose slugs (output file tags) coincide are rejected.  Without a
    sweep the result is empty.
    """
    sweep = cfg["run"].get("sweep")
    if sweep is None:
        return {}
    dotted, mode = sweep["key"], cfg["run"]["mode"]
    if dotted not in SWEEP_KEYS[mode]:
        _fail(raw, "sweep", f"{mode} mode does not read {dotted}, so its variants would be "
                            f"identical; it sweeps only {list(SWEEP_KEYS[mode])}")
    section, key = dotted.split(".", 1)
    description, ok = SCHEMA[section][key][1]
    variants = {}
    for value in sweep["values"]:
        if not ok(value):
            _fail(raw, "sweep", f"value {value!r} of {dotted} must be {description}")
        slug = value_slug(value)
        if slug in variants:
            _fail(raw, "sweep", f"values of {dotted} collide in the output tag {slug!r}")
        variant = copy.deepcopy(cfg)
        del variant["run"]["sweep"]
        set_by_path(variant, dotted, value)
        try:
            variants[slug] = _resolve(variant, raw)
        except ConfigError as exc:
            raise ConfigError(f"sweep value {dotted} = {value!r}: {exc}") from exc
    return variants


def validate_config(data: dict, raw: str | None = None) -> dict:
    """Check structure and values, fill defaults, and return the resolved config.

    A sweep is checked value by value here, before any variant runs.
    """
    cfg = _resolve(data, raw)
    sweep_variants(cfg, raw)
    return cfg


def load_config(path: str | Path) -> dict:
    """Read and validate a scenario file, returning the resolved config."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
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
    if section == "modulation":
        # Drop the sibling that resolution derives from this key, so it is
        # derived again: a0 from m_ratio, m_ratio from a0 or a_oma (an
        # a_oma sweep thus keeps a0 fixed).
        cfg[section].pop("a0" if key == "m_ratio" else "m_ratio", None)


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved configuration with typed access to the domain objects."""

    data: dict

    def constellation(self) -> OffsetQamConstellation:
        mod = self.data["modulation"]
        return build_constellation(mod["order"], mod["a_oma"], mod["a0"])

    def loop_params(self) -> LoopParams:
        loop = self.data["loop"]
        params = LoopParams(**{f.name: loop[f.name] for f in fields(LoopParams)})
        if "closed_loop_bw_hz" in loop:
            params = scale_to_closed_loop_bandwidth(params, loop["closed_loop_bw_hz"])
        return params

    def detector_method(self) -> DetectorMethod:
        return DetectorMethod(self.data["loop"]["detector_method"])

    def scenario(self) -> ChannelScenario:
        """The link; Es/N0 (channel.snr_db) becomes its AWGN PSD n0 here."""
        chan = self.data["channel"]
        snr_db = chan.get("snr_db")
        n0 = 0.0 if snr_db is None else n0_from_snr_db(self.constellation(), snr_db)
        return ChannelScenario(
            baud_rate_hz=chan["baud_rate_hz"],
            laser=LaserModel(self.data["laser"]["linewidth_hz"]),
            mismatch=PathMismatch(
                self.data["mismatch"]["delta_l_m"],
                self.data["mismatch"]["refractive_index"],
            ),
            phi_offset_rad=chan["phi_offset_rad"],
            n0=n0,
            pd_bandwidth_hz=chan.get("pd_bandwidth_hz"),
        )

    def snr_grid_db(self) -> np.ndarray:
        grid = self.data["run"]["snr_grid_db"]
        if isinstance(grid, dict):
            return grid["start"] + grid["step"] * np.arange(_grid_size(grid), dtype=float)
        return np.array(grid, dtype=float)

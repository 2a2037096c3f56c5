"""The input domain: every mode at the bounds of every ranged key, and the docs' table.

``domain.RANGES`` bounds every numeric physical input.  Inside those bounds
a run must exit 0, or exit 2 or 3 for one of the physical reasons that
``docs/formats.md`` lists, and never raise a RuntimeWarning (tier-1 turns
one into an error), write a NaN or an infinity, or end in a traceback.

Each mode runs from one in-range link with beat noise, AWGN, a photodiode
filter and a phase offset, with each ranged key set to each of its bounds
in turn (lock mode takes m_ratio down to its own floor only), and then at eight rows of bounds that meet every two keys at all
four pairs of bounds; the first row puts every key at its lower bound, and
a ninth row puts every key at its upper bound.  The run-size keys stay
small: a lock run spans 25 loop steps of 100 symbols, a trace 20 symbols,
a sweep two Es/N0 points.
"""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oqamcpr.cli import main
from oqamcpr.config import MODES
from oqamcpr.cpr import MIN_LOCK_M_RATIO
from oqamcpr.domain import RANGES
from oqamcpr.reports import read_csv

BASE = {
    "modulation": {"order": 4, "m_ratio": 0.1},
    "laser": {"linewidth_hz": 1e6},
    "mismatch": {"delta_l_m": 0.1},
    "loop": {},
    "channel": {"snr_db": 20.0, "pd_bandwidth_hz": 50e9, "phi_offset_rad": 0.3},
    "run": {"decimation": 100, "num_symbols": 20, "snr_grid_db": [10, 20]},
}
KEYS = sorted(RANGES)

# Messages of the documented exits: the loop step against the crossover, and
# a mismatch delay finer than the sample grid (exit 2); a loop bandwidth that
# the loop-filter gain cannot reach, a phase quadrature that cannot resolve an
# error rate that steps with the phase, as a large offset or a high Es/N0
# makes it, a variance grid that cannot resolve a loop crossing over near
# 1e12 Hz, as k_driver_v_per_v or k_ps_rad_per_v at 1e9 makes it, and a
# crossover above the 1e14 Hz metric scan, as k_pd_v_per_rad at 1e9 makes it
# (exit 3).
PHYSICAL = {
    2: ("too coarse for crossover", "too coarse for the mismatch delay"),
    3: ("cannot reach closed-loop bandwidth", "phase quadrature did not converge",
        "phase-noise variance integral did not converge",
        "unity-gain crossover lies above the scan"),
}

# The rows leave out loop.closed_loop_bw_hz: given, it replaces k_lf by the
# gain that reaches it, and the rows keep k_lf at its bounds instead.  Row r
# gives key k its upper bound when r lies in the k-th 4-subset of rows 1..7.
# Two distinct 4-subsets of seven rows intersect and each holds a row the
# other lacks, and row 0 is in none: every two keys meet at all four pairs
# of bounds.
ROW_KEYS = [key for key in KEYS if key != "loop.closed_loop_bw_hz"]
SUBSETS = list(itertools.combinations(range(1, 8), 4))[:len(ROW_KEYS)]
ROWS = [[r in s for s in SUBSETS] for r in range(8)] + [[True] * len(ROW_KEYS)]


def bound(mode: str, key: str, upper: bool) -> float:
    """The key's bound; lock mode reads m_ratio down to its own floor."""
    if mode == "lock" and key == "modulation.m_ratio" and not upper:
        return MIN_LOCK_M_RATIO
    return RANGES[key][upper]


CORNERS = [
    *(pytest.param(mode, {key: bound(mode, key, upper)},
                   id=f"{mode}-{key}-{'hi' if upper else 'lo'}")
      for mode in MODES for key in KEYS for upper in (False, True)),
    *(pytest.param(mode, {key: bound(mode, key, upper) for key, upper in zip(ROW_KEYS, row)},
                   id=f"{mode}-row{r}")
      for mode in MODES for r, row in enumerate(ROWS)),
]


def corner_config(mode: str, values: dict) -> dict:
    cfg = json.loads(json.dumps(BASE))
    cfg["run"]["mode"] = mode
    for dotted, value in values.items():
        section, key = dotted.split(".")
        cfg[section][key] = value
    baud = cfg["channel"].get("baud_rate_hz", 100e9)
    cfg["run"]["duration_s"] = 25 * cfg["run"]["decimation"] / baud
    return cfg


def finite(value) -> bool:
    """No NaN or infinity anywhere in a JSON value."""
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, list):
        return all(map(finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize("mode, values", CORNERS)
@pytest.mark.filterwarnings("ignore:sigma_pn=.*comfort zone:UserWarning")
def test_corner_runs_clean_or_exits_for_a_physical_reason(tmp_path, capsys, mode, values):
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(corner_config(mode, values)))
    outdir = tmp_path / "out"
    rc = main(["run", str(path), "-o", str(outdir)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc:
        assert any(reason in err for reason in PHYSICAL.get(rc, ())), err
        assert not any(outdir.glob("*"))
        return
    manifest = json.loads((outdir / f"{mode.replace('-', '_')}_manifest.json").read_text())
    assert finite(manifest)
    for csv in outdir.glob("*.csv"):
        _, columns = read_csv(csv)
        loop_bw = columns.pop("loop_bw_hz", [0.0])  # nan: a loop without a closed-loop bandwidth
        assert np.all(np.isfinite(list(columns.values()))), csv.name
        assert not np.any(np.isinf(loop_bw)), csv.name


def test_docs_list_every_range():
    """docs/formats.md's range table holds exactly the keys and bounds of RANGES."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| (\S+) \| (\S+) \| .+ \|$", text, flags=re.M)
    assert {key: (float(lo), float(hi)) for key, lo, hi in rows} == {
        key: (lo, hi) for key, (lo, hi, _) in RANGES.items()}
    assert len(rows) == len(RANGES)

"""The SVG axis tick rule: counted 1-2-5 steps, or decades, labelled to their step."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqamcpr import svgplot

SVG = "{http://www.w3.org/2000/svg}"


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(
    magnitude=st.floats(-300.0, 300.0),
    negative=st.booleans(),
    span_fraction=st.floats(0.0, 1.0),
)
@example(magnitude=4.0, negative=False, span_fraction=0.0)
@example(magnitude=16.0, negative=False, span_fraction=0.0)
@example(magnitude=300.0, negative=True, span_fraction=1.0)
def test_linear_ticks_are_few_inside_and_labelled_to_their_step(magnitude, negative, span_fraction):
    # A span from 1 ulp of the values up to 1e300, log-uniformly.
    lo = -(10.0**magnitude) if negative else 10.0**magnitude
    ulp_exp = math.log10(math.ulp(lo))
    hi = lo + 10.0 ** (ulp_exp + span_fraction * (300.0 - ulp_exp))
    assert math.isfinite(hi) and hi > lo
    axis = svgplot._Axis("y", lo, hi, False, 400.0, 40.0)
    ticks = axis.ticks()
    assert 2 <= len(ticks) <= 11
    step = (ticks[-1][0] - ticks[0][0]) / (len(ticks) - 1)
    slack = 1e-9 * (axis.hi - axis.lo) + 4 * math.ulp(max(abs(axis.lo), abs(axis.hi)))
    labels = [label for _, label in ticks]
    assert len(set(labels)) == len(labels)
    for tick, label in ticks:
        assert axis.lo - slack <= tick <= axis.hi + slack
        assert math.isfinite(axis.to_pix(tick))
        assert abs(float(label) - tick) <= step / 2


@pytest.mark.parametrize(
    "lo, hi, labels",
    [
        (1e-5, 1e5, ["1e-5", "1e-4", "0.001", "0.01", "0.1", "1", "10", "100", "1000", "1e4", "1e5"]),
        (0.5, 0.5, ["1"]),
    ],
    ids=["decades", "constant-widened-half-a-decade"],
)
def test_log_axis_labels_its_decades(lo, hi, labels):
    assert [label for _, label in svgplot._Axis("y", lo, hi, True, 400.0, 40.0).ticks()] == labels


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(lo=st.floats(-323.0, 308.0), hi=st.floats(-323.0, 308.0))
@example(lo=-300.0, hi=300.0)
@example(lo=-6.0, hi=5.0)
def test_log_axis_labels_at_most_eleven_decades(lo, hi):
    lo, hi = sorted((10.0**lo, 10.0**hi))
    axis = svgplot._Axis("y", lo, hi, True, 400.0, 40.0)
    ticks = axis.ticks()
    assert 1 <= len(ticks) <= 11
    for tick, label in ticks:
        assert axis.lo - 1e-9 <= math.log10(tick) <= axis.hi + 1e-9
        assert math.isclose(float(label), tick, rel_tol=1e-15)


# y columns given to `oqamcpr plot`: (values, logy, the y tick labels or None).
PLOT_CASES = [
    pytest.param([10000.0, 10000.000000000002], False, None, id="one-ulp-at-1e4"),
    pytest.param([1e16, 1.0000000000000002e16], False, None, id="one-ulp-at-1e16"),
    pytest.param([1e20, 1e20], False, ["6e19", "8e19", "1e20", "1.2e20", "1.4e20"],
                 id="constant-1e20"),
    pytest.param([0.0, 0.0], False, ["-0.4", "-0.2", "0", "0.2", "0.4"], id="constant-0"),
    pytest.param([1e-15, 5e-15], False, ["1e-15", "2e-15", "3e-15", "4e-15", "5e-15"],
                 id="1e-15-to-5e-15"),
    pytest.param([10000.0, 20000.0], False, ["1e4", "1.2e4", "1.4e4", "1.6e4", "1.8e4", "2e4"],
                 id="1e4-to-2e4"),
    pytest.param([0.0, 1.5e-4], False, ["0", "5e-5", "1e-4", "1.5e-4"], id="0-to-1.5e-4"),
    pytest.param([2e-4, 9e-4], True, ["2e-4", "4e-4", "6e-4", "8e-4"], id="log-without-decade"),
    pytest.param([1e-300, 1e300], True, [f"1e{e}" if e else "1" for e in range(-300, 301, 100)],
                 id="log-600-decades"),
    pytest.param([1.5e308, 1.5e308], False, ["1e308", "1.5e308"], id="constant-1.5e308"),
]


@pytest.mark.parametrize("ys, logy, labels", PLOT_CASES)
def test_plot_command_draws_finite_ticks(tmp_path, ys, logy, labels):
    csv = tmp_path / "col.csv"
    csv.write_text("x,y\n" + "".join(f"{x},{y!r}\n" for x, y in enumerate(ys)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"x": "x", "y": "y", "logy": logy}))
    out = tmp_path / "col.svg"
    # In a subprocess with a timeout, so that a tick rule that never returns
    # fails this test instead of stalling the suite.
    run = subprocess.run(
        [sys.executable, "-m", "oqamcpr.cli", "plot", str(csv), str(spec), "-o", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(svgplot.__file__).parents[1])},
    )
    assert run.returncode == 0, run.stderr
    root = ET.parse(out).getroot()
    y_ticks = [t for t in root.iter(f"{SVG}text") if t.get("text-anchor") == "end"]
    assert len(y_ticks) >= 2
    for line in root.iter(f"{SVG}line"):
        assert all(math.isfinite(float(line.get(k))) for k in ("x1", "y1", "x2", "y2"))
    if labels is not None:
        assert [t.text for t in y_ticks] == labels

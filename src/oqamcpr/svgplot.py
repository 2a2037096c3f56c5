"""Hand-emitted deterministic SVG line plots of report columns.

No plotting library: axes, ticks, and polylines are written directly so
the same inputs always produce byte-identical files (no timestamps, no
renderer versions).  Samples that are not finite are dropped, and so are
non-positive ones on log axes.
"""

from __future__ import annotations

import html
import math
import sys
from pathlib import Path

from .ber import KP4_BER_THRESHOLD
from .config import FLAG, NUMBER, TEXT
from .errors import ConfigError
from .reports import read_csv

WIDTH, HEIGHT = 660.0, 440.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 84.0, 24.0, 40.0, 56.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _label(value: float, e: int) -> str:
    """``value`` to the digits of a step in decade ``e``: fixed in [1e-3, 1e4), else as 1.5e-4."""
    if value == 0:
        return "0"
    if 1e-3 <= abs(value) < 1e4:
        digits, exponent = f"{value:.{max(0, -e)}f}", ""
    else:
        decimals = max(0, math.floor(math.log10(abs(value))) - e)
        digits, exponent = f"{value:.{decimals}e}".split("e")
        exponent = f"e{int(exponent)}"
    if "." in digits:
        digits = digits.rstrip("0").rstrip(".")
    return digits + exponent


class _Axis:
    def __init__(self, name: str, lo: float, hi: float, log: bool, pix_lo: float, pix_hi: float):
        self.log, self.values = log, (lo, hi)
        self.coord = math.log10 if log else float
        self.lo, self.hi = self.coord(lo), self.coord(hi)
        scale = max(abs(lo), abs(hi))
        if hi - lo <= 4096 * math.ulp(scale):
            # A span its values cannot resolve: widen it by half a decade on a log
            # axis, else by half the values' size (by 0.5 if they are zero or
            # subnormal) but not past the largest float.
            half = 0.5 if log or scale < sys.float_info.min else 0.5 * scale
            top = sys.float_info.max
            self.lo, self.hi = max(self.lo - half, -top), min(self.hi + half, top)
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"the {name} axis span {lo:g} to {hi:g} is not finite")
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, value: float) -> float:
        frac = (self.coord(value) - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self) -> list[tuple[float, str]]:
        """(position in data units, label) of each tick.

        A log axis that holds a decade gets its decades, or every k-th
        decade (k = 2, 5, 10, 20, ...) where more than 11 would be labelled.
        Any other axis gets the multiples of a 1, 2 or 5 step that fit about
        five times into its span, each labelled to the step's digits.
        """
        lo, hi = self.lo, self.hi
        if self.log:
            first, last = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
            if first <= last:
                # Floats span 632 decades, so k = 100 bounds every axis.
                k = next(k for k in (1, 2, 5, 10, 20, 50, 100) if 10 * k >= last - first)
                decades = range(-(-first // k) * k, last + 1, k)
                return [(10.0**e, _label(10.0**e, e)) for e in decades]
            lo, hi = self.values  # a log axis holding no decade was never widened
        raw = (hi - lo) / 5
        e = math.floor(math.log10(raw))
        mult = next(m for m in (1, 2, 5, 10) if raw <= m * 10.0**e)
        step = mult * 10.0**e
        first = math.ceil(lo / step - 1e-9)
        ticks = [(first + k) * step for k in range(math.floor(hi / step + 1e-9) - first + 1)]
        return [(t, _label(t, e + (mult == 10))) for t in ticks]


TEXTS = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))

# (plot spec keys, rule), the rules as in config.SCHEMA; a null value counts as absent.
SPEC_RULES = (
    (("x", "title", "xlabel", "ylabel"), TEXT),
    (("y",), ("a string or a list of strings", lambda v: isinstance(v, str) or TEXTS[1](v))),
    (("logx", "logy", "kp4_line"), FLAG),
    (("threshold",), NUMBER),
    (("labels",), TEXTS),
)


def _check_spec(spec) -> list[str]:
    """Check a plot spec against SPEC_RULES; return its x and y column names."""
    if not isinstance(spec, dict):
        raise ConfigError("plot spec must be a JSON object")
    for keys, (description, ok) in SPEC_RULES:
        for key in keys:
            if spec.get(key) is not None and not ok(spec[key]):
                raise ConfigError(f"plot spec key {key!r} must be {description}")
    if not spec.get("x") or not spec.get("y"):
        raise ConfigError("plot spec needs 'x' and 'y'")
    y = spec["y"]
    return [spec["x"], *(y if isinstance(y, list) else [y])]


def plot_csvs(paths, plot_spec: dict, out_path: str | Path) -> Path:
    """Render a list of tool CSVs to an SVG.

    Each curve is labelled by its file stem unless the spec gives
    ``labels``.  A malformed or empty CSV, or one without a plotted
    column, raises an error naming its path before any file is written.
    """
    names = _check_spec(plot_spec)
    series = []
    for path in paths:
        _, cols = read_csv(path)
        for name in names:
            if name not in cols:
                raise ValueError(f"{path}: missing column {name!r}")
        series.append((Path(path).stem, cols))
    return emit_svg(series, plot_spec, out_path)


def emit_svg(series, plot_spec: dict, out_path: str | Path) -> Path:
    """Render in-memory columns to a deterministic SVG.

    ``series`` holds one (label, columns) pair per curve family; columns
    map each column name to its values.  plot_spec keys: x (column
    name), y (column name or list), optional logx/logy (bool), threshold
    (float, horizontal line; kp4_line: true is shorthand for the KP4
    error floor), title/xlabel/ylabel, labels (per-curve names in place
    of the series labels).  Samples that are not finite are dropped.  A bad
    spec raises ConfigError, and data with no plottable point or an axis
    span that is not finite ValueError, before any file is written.
    """
    x_col, *y_cols = _check_spec(plot_spec)
    logx = bool(plot_spec.get("logx", False))
    logy = bool(plot_spec.get("logy", False))
    threshold = KP4_BER_THRESHOLD if plot_spec.get("kp4_line") else plot_spec.get("threshold")
    if logy and threshold is not None and threshold <= 0:
        threshold = None  # a log axis cannot place it

    curves = []  # (label, xs, ys)
    labels = plot_spec.get("labels") or []
    for i, (name, cols) in enumerate(series):
        for y_col in y_cols:
            if len(series) == 1 and len(y_cols) > 1:
                label = y_col
            elif i < len(labels):
                label = labels[i]
            else:
                label = name
            xs, ys = [], []
            for x, y in zip(map(float, cols[x_col]), map(float, cols[y_col])):
                finite = math.isfinite(x) and math.isfinite(y)
                if finite and (x > 0 or not logx) and (y > 0 or not logy):
                    xs.append(x)
                    ys.append(y)
            if xs:
                curves.append((html.escape(label), xs, ys))
    if not curves:
        raise ValueError("no plottable data points")

    all_x = [v for _, xs, _ in curves for v in xs]
    all_y = [v for _, _, ys in curves for v in ys]
    if threshold is not None:
        all_y.append(threshold)
    ax_x = _Axis(f"x ({x_col})", min(all_x), max(all_x), logx, MARGIN_L, WIDTH - MARGIN_R)
    ax_y = _Axis(f"y ({', '.join(y_cols)})", min(all_y), max(all_y), logy, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
    ]

    for v, label in ax_x.ticks():
        px = ax_x.to_pix(v)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B:.2f}" '
            f'x2="{px:.2f}" y2="{HEIGHT - MARGIN_B + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    for v, label in ax_y.ticks():
        py = ax_y.to_pix(v)
        parts.append(
            f'<line x1="{MARGIN_L - 5:.2f}" y1="{py:.2f}" '
            f'x2="{MARGIN_L:.2f}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8:.2f}" y="{py + 3.5:.2f}" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )

    if threshold is not None:
        py = ax_y.to_pix(threshold)
        parts.append(
            f'<line x1="{MARGIN_L:.2f}" y1="{py:.2f}" '
            f'x2="{WIDTH - MARGIN_R:.2f}" y2="{py:.2f}" stroke="black" '
            f'stroke-dasharray="6,4" class="threshold"/>'
        )

    for i, (label, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(
            f"{ax_x.to_pix(x):.2f},{ax_y.to_pix(y):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 120:.2f}" y1="{ly - 4:.2f}" '
            f'x2="{WIDTH - MARGIN_R - 100:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 96:.2f}" y="{ly:.2f}" '
            f'font-size="11">{label}</text>'
        )

    title = plot_spec.get("title")
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.2f}" y="{MARGIN_T - 14:.2f}" font-size="14" '
            f'text-anchor="middle">{html.escape(title)}</text>'
        )
    xlabel = html.escape(plot_spec.get("xlabel") or x_col)
    ylabel = html.escape(plot_spec.get("ylabel") or y_cols[0])
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.2f}" '
        f'y="{HEIGHT - 14:.2f}" font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.2f})">{ylabel}</text>'
    )
    parts.append("</svg>")

    out_path = Path(out_path)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path

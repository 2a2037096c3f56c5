"""Frequency-domain linear model of the recovery loop.

The open-loop transfer function factors as

    H(s) = K_pd * K_driver * H_lf(s) * H_ps(s)
    H_lf(s) = K_lf * (1 + s/w_lf_z) / (1 + s/w_lf_p)
    H_ps(s) = K_ps / (1 + s/w_ps)

with a lead-lag loop filter and a first-order (thermal) phase shifter.
This module evaluates H, extracts Bode metrics, predicts the static phase
error phi0 / (1 + H(0)), and converts detector physics into the detector
gain K_pd.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .domain import RANGES, check
from .errors import ConvergenceError


@dataclass(frozen=True)
class LoopParams:
    """Gains and corner frequencies of every block in the loop."""

    k_pd_v_per_rad: float
    k_lf_v_per_v: float
    k_driver_v_per_v: float
    k_ps_rad_per_v: float
    f_lf_zero_hz: float
    f_lf_pole_hz: float
    f_ps_hz: float

    def __post_init__(self):
        for f in fields(self):
            check(f"loop.{f.name}", getattr(self, f.name))

    @property
    def dc_gain(self) -> float:
        return (
            self.k_pd_v_per_rad
            * self.k_lf_v_per_v
            * self.k_driver_v_per_v
            * self.k_ps_rad_per_v
        )


# Loop values used throughout the bundled presets: a thermal phase shifter
# with a 2 kHz electrical pole and a lead-lag loop filter.
DEFAULT_LOOP = LoopParams(
    k_pd_v_per_rad=2.55e-2,
    k_lf_v_per_v=1.2e3,
    k_driver_v_per_v=2.0,
    k_ps_rad_per_v=15.7,
    f_lf_zero_hz=0.8e6,
    f_lf_pole_hz=6e3,
    f_ps_hz=2e3,
)


@dataclass(frozen=True)
class DetectorPhysics:
    """Physical quantities behind the phase detector gain."""

    i0_a: float
    kv_v_per_a: float

    def __post_init__(self):
        if self.i0_a <= 0 or self.kv_v_per_a <= 0:
            raise ValueError("detector physics fields must be > 0")

    @classmethod
    def from_fields(
        cls, e_iq_avg_mag: float, e_lo_mag: float, r_pd: float, kv_v_per_a: float
    ) -> "DetectorPhysics":
        """Build from field magnitudes: i0 = 4 |E_iq_avg| |E_lo| R_pd.

        For DC-balanced data the average signal field magnitude equals the
        constellation offset a0.
        """
        if min(e_iq_avg_mag, e_lo_mag, r_pd) <= 0:
            raise ValueError("field magnitudes and responsivity must be > 0")
        return cls(i0_a=4.0 * e_iq_avg_mag * e_lo_mag * r_pd, kv_v_per_a=kv_v_per_a)


def k_pd_from_physics(p: DetectorPhysics) -> float:
    """Detector gain in V/rad: (2 sqrt(2) / pi) * i0 * kv."""
    return (2.0 * math.sqrt(2.0) / math.pi) * p.i0_a * p.kv_v_per_a


@dataclass(frozen=True)
class BodeMetrics:
    """Open/closed-loop stability metrics; bode_metrics says when each is None."""

    dc_gain: float
    crossover_hz: float | None
    phase_margin_deg: float | None
    closed_loop_bw_hz: float | None

    @property
    def degenerate(self) -> bool:
        return self.crossover_hz is None


def open_loop_response(params: LoopParams, f_hz):
    """H(j 2 pi f) as the product of its factors, for scalar or array f.

    A response past the float range, which within the loop's ranges takes
    f near 1e300 Hz, raises ValueError naming that frequency."""
    f = np.asarray(f_hz, dtype=float)
    jf = 1j * f
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h_lf = (params.k_lf_v_per_v * (1.0 + jf / params.f_lf_zero_hz)
                / (1.0 + jf / params.f_lf_pole_hz))
        h_ps = params.k_ps_rad_per_v / (1.0 + jf / params.f_ps_hz)
        h = params.k_pd_v_per_rad * params.k_driver_v_per_v * h_lf * h_ps
    bad = ~np.isfinite(h)
    if bad.any():
        raise ValueError(f"the open-loop response is outside the float range "
                         f"at {float(f[bad][0]):.3g} Hz")
    return h


def open_loop_phase_deg(params: LoopParams, f_hz):
    """Unwrapped open-loop phase from the factor decomposition (degrees)."""
    f = np.asarray(f_hz, dtype=float)
    phase = (
        np.arctan(f / params.f_lf_zero_hz)
        - np.arctan(f / params.f_lf_pole_hz)
        - np.arctan(f / params.f_ps_hz)
    )
    return np.degrees(phase)


# Relative bracket width at which a frequency bisection stops.
BISECT_REL_TOL = 1e-5


def _bisect(func, lo: float, hi: float) -> float:
    """Sign-change bisection in log-frequency space."""
    flo = func(lo)
    while hi - lo > BISECT_REL_TOL * math.sqrt(lo * hi):
        mid = math.sqrt(lo * hi)
        fmid = func(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def log_frequency_grid(f_min_hz: float = 1.0, f_max_hz: float = 1e8,
                       points_per_decade: int = 200) -> np.ndarray:
    """Log-spaced grid; the default is the bode CSV's band."""
    decades = math.log10(f_max_hz / f_min_hz)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(f_min_hz), math.log10(f_max_hz), n)


# The one grid of every loop metric: the bode CSV's points, on to 1e5 x the top of
# loop.closed_loop_bw_hz's range, two decades above the highest loop corner.
_SCAN_HZ = log_frequency_grid(f_max_hz=1e5 * RANGES["loop.closed_loop_bw_hz"][1])
_SCAN_HZ.flags.writeable = False


def _closed_loop_bw(params: LoopParams, h: np.ndarray) -> float | None:
    """Closed-loop -3 dB bandwidth: the first _SCAN_HZ point where |H/(1+H)|, from
    the open-loop response h on it, falls 3 dB below its 1 Hz value, refined by
    bisection; None when that point lies past the grid."""
    def closed_mag(h):
        return np.abs(h / (1.0 + h))

    tmag = closed_mag(h)
    target = tmag[0] / math.sqrt(2.0)
    below = np.nonzero(tmag < target)[0]
    if below.size == 0:
        return None
    j = int(below[0])
    return _bisect(lambda f: closed_mag(open_loop_response(params, f)) - target, *_SCAN_HZ[j - 1:j + 1])


def bode_metrics(params: LoopParams) -> BodeMetrics:
    """Crossover, phase margin, and closed-loop -3 dB bandwidth (_closed_loop_bw).

    The unity-gain crossover is located on _SCAN_HZ and refined by
    bisection; the phase margin is 180 deg + arg H there, from the unwrapped
    factor phases, each within 90 deg, so the margin lies in (0, 270) deg.
    A degenerate loop, with no unity-gain crossing below 1e14 Hz, has neither.
    """
    h = open_loop_response(params, _SCAN_HZ)
    closed_bw = _closed_loop_bw(params, h)
    crossings = np.nonzero(np.diff(np.signbit(np.abs(h) - 1.0)))[0]
    if crossings.size == 0:
        return BodeMetrics(params.dc_gain, None, None, closed_bw)
    k = int(crossings[0])
    crossover = _bisect(lambda f: abs(open_loop_response(params, f)) - 1.0, *_SCAN_HZ[k:k + 2])
    pm = 180.0 + float(open_loop_phase_deg(params, crossover))
    return BodeMetrics(params.dc_gain, crossover, pm, closed_bw)


def static_phase_error(phi0_rad: float, params: LoopParams) -> float:
    """Steady-state error phi0 / (1 + H(0)) for a constant phase offset.

    The linearized detector model holds for |phi0| <= pi/4; beyond that a
    warning is attached and the linear prediction is still returned.
    """
    if abs(phi0_rad) > math.pi / 4:
        warnings.warn(
            f"|phi0|={abs(phi0_rad):.3f} rad exceeds pi/4: linearized detector "
            "model is outside its validity range",
            stacklevel=2,
        )
    return phi0_rad / (1.0 + params.dc_gain)


def scale_to_closed_loop_bandwidth(params: LoopParams, target_hz: float) -> LoopParams:
    """Scale the loop-filter gain until the closed-loop bandwidth hits target.

    Used by sweep presets that state a loop bandwidth instead of a gain set.  Bisects
    the K_lf multiplier in log space to 0.1%, with each gain's bandwidth found on
    _SCAN_HZ and the gain held within k_lf_v_per_v's range.
    """
    check("loop.closed_loop_bw_hz", target_hz)
    k_min, k_max, _ = RANGES["loop.k_lf_v_per_v"]
    m_min, m_max = k_min / params.k_lf_v_per_v, k_max / params.k_lf_v_per_v

    def scaled(mult: float) -> LoopParams:  # k * (k_max / k) may round past k_max
        return replace(params, k_lf_v_per_v=min(max(params.k_lf_v_per_v * mult, k_min), k_max))

    @functools.cache  # the bracket check repeats the loops' last multipliers
    def bw_for(mult: float) -> float:
        p = scaled(mult)
        bw = _closed_loop_bw(p, open_loop_response(p, _SCAN_HZ))
        return math.inf if bw is None else bw  # past the scan: above the target

    lo = hi = 1.0  # decade steps, the last one cut short at the gain's range end
    while bw_for(lo) >= target_hz and lo > m_min:
        lo = max(lo / 10.0, m_min)
    while bw_for(hi) <= target_hz and hi < m_max:
        hi = min(hi * 10.0, m_max)
    if bw_for(lo) < target_hz < bw_for(hi):
        while hi / lo > 1.0 + 1e-3:
            mid = math.sqrt(lo * hi)
            if bw_for(mid) < target_hz:
                lo = mid
            else:
                hi = mid
    mult = math.sqrt(lo * hi)
    # Off by over 0.5%: no gain in range reaches the target, or the bandwidth ran
    # off within the last 0.1% of gain, where |H/(1+H)| levels off near -3 dB.
    if abs(bw_for(mult) - target_hz) > 5e-3 * target_hz:
        raise ConvergenceError(
            f"cannot reach closed-loop bandwidth {target_hz:g} Hz by scaling "
            "the loop-filter gain"
        )
    return scaled(mult)


# Relative deviation from a supplied reference metric that earns a note.
REFERENCE_REL_TOL = 0.05


def reference_discrepancies(metrics: BodeMetrics, reference: dict) -> list[str]:
    """Compare computed metrics against externally supplied reference values.

    Returns one note per metric whose computed value deviates from the
    reference by more than REFERENCE_REL_TOL.  Keys are BodeMetrics field names;
    notes follow the field order, so a replayed manifest (whose keys are
    sorted) writes them in the same order.
    """
    computed = asdict(metrics)
    for key in reference:
        if key not in computed:
            raise ValueError(f"unknown reference metric {key!r}")
    notes = []
    for key in (k for k in computed if k in reference):
        got, ref = computed[key], reference[key]
        if got is None:
            notes.append(f"{key}: computed value absent, reference {ref:g}")
        elif abs(got - ref) > REFERENCE_REL_TOL * abs(ref):
            notes.append(
                f"{key}: computed {got:.6g} deviates from reference {ref:g} "
                f"by {abs(got - ref) / abs(ref) * 100:.1f}%"
            )
    return notes

"""Beat-signal phase-noise spectrum and its integrated variance.

Laser forwarding turns the Wiener laser phase noise S(f) = linewidth /
(2 pi f^2) (two-sided) into the differential beat spectrum

    S_theta(f) = 2 S(f) * (1 - cos(2 pi f tau)) / |1 + H(f)|^2

where tau is the LO/Rx delay mismatch and H the open-loop response: the
delay difference high-passes the noise with a sin^2 envelope, and the
recovery loop removes what is left below its bandwidth.  The total power
sigma^2 = 2 * integral of S_theta over positive frequencies feeds the
semi-analytic error-rate model as a Gaussian residual phase jitter.  It
comes with the loop's Bode metrics (crossover, phase margin, closed-loop
bandwidth); the crossover sets the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import BodeMetrics, LoopParams, bode_metrics, log_frequency_grid, open_loop_response
from .errors import ConvergenceError


@dataclass(frozen=True, eq=False)
class ShapedPhaseNoise:
    """Loop-filtered beat-phase PSD samples, total variance, and the loop's
    Bode metrics that set the band (None without a loop)."""

    freqs_hz: np.ndarray
    psd_rad2_per_hz: np.ndarray
    variance_rad2: float
    bode: BodeMetrics | None


def laser_psd(f_hz, linewidth_hz: float):
    """Two-sided Wiener phase-noise PSD linewidth / (2 pi f^2)."""
    f = np.asarray(f_hz, dtype=float)
    if np.any(f == 0):
        raise ValueError("laser_psd is singular at f = 0")
    out = linewidth_hz / (2.0 * np.pi * f**2)
    return out if out.ndim else float(out)


def shaped_psd(f_hz, linewidth_hz: float, tau_s: float, params: LoopParams | None):
    """Beat-phase PSD after delay differencing and loop filtering.

    With params None the loop is absent (|1 + H| = 1), giving the
    free-running differential spectrum.
    """
    f = np.asarray(f_hz, dtype=float)
    base = 2.0 * laser_psd(f, linewidth_hz) * (1.0 - np.cos(2.0 * np.pi * f * tau_s))
    if params is not None:
        base = base / np.abs(1.0 + open_loop_response(params, f)) ** 2
    return base if base.ndim else float(base)


def default_integration_band(tau_s: float, crossover: float | None) -> tuple[float, float]:
    """Integration limits covering the shaped spectrum of a loop with this
    unity-gain crossover (None: no loop, or none found).

    Below the loop high-pass corner the integrand vanishes as f^2; above
    the sin^2 knee the 1/f^2 envelope takes over.  The upper limit is
    rounded up to a decade so the log grid stays aligned.
    """
    f_min = 1.0 if crossover is None else max(1.0, 1e-3 * crossover)
    f_max = 100.0 * (crossover or 0.0)
    if tau_s > 0:
        f_max = max(f_max, 10.0 / (2.0 * math.pi * tau_s))
    f_max = max(f_max, 1e6 * f_min)
    if not f_max <= 1e153:  # laser_psd's 2 pi f^2 overflows at the next decade, 1e154
        raise ValueError(f"delay {tau_s:.3g} s of mismatch.delta_l_m is too short to integrate")
    return f_min, 10.0 ** math.ceil(math.log10(f_max))


# Log-grid density of the shaped spectrum and of the variance integral, and
# the relative agreement the integral must reach when the grid is doubled.
GRID_POINTS_PER_DECADE = 200
GRID_REL_TOL = 0.01


def total_variance(linewidth_hz: float, tau_s: float, params: LoopParams | None) -> float:
    """Integrated beat-phase variance sigma^2 in rad^2, as ``shaped_spectrum`` computes it."""
    return shaped_spectrum(linewidth_hz, tau_s, params).variance_rad2


def shaped_spectrum(linewidth_hz: float, tau_s: float, params: LoopParams | None) -> ShapedPhaseNoise:
    """PSD curve on the default band, the total variance, and the loop's Bode
    metrics (crossover, phase margin, closed-loop bandwidth) behind the band.

    The variance integrates the curve by the trapezoidal rule (factor 2 folds
    the negative frequencies) and closes the 1/f^2 tail above the band
    analytically.  The doubled grid must agree within GRID_REL_TOL, else a
    ConvergenceError reports both estimates.  Without beat noise (zero
    linewidth or delay) it is 0.0 and the PSD zero on the band of a 1 ns delay.
    """
    if tau_s < 0 or linewidth_hz < 0:
        raise ValueError("linewidth_hz and tau_s must be >= 0")
    bode = None if params is None else bode_metrics(params)
    crossover = None if bode is None else bode.crossover_hz
    beat = tau_s > 0 and linewidth_hz > 0
    band = default_integration_band(tau_s if beat else 1e-9, crossover)
    f = log_frequency_grid(*band, GRID_POINTS_PER_DECADE)
    if not beat:
        return ShapedPhaseNoise(f, np.zeros_like(f), 0.0, bode)
    psd = shaped_psd(f, linewidth_hz, tau_s, params)
    coarse = 2.0 * float(np.trapezoid(psd, f))
    f_fine = log_frequency_grid(*band, 2 * GRID_POINTS_PER_DECADE)
    fine = 2.0 * float(np.trapezoid(shaped_psd(f_fine, linewidth_hz, tau_s, params), f_fine))
    # Above f_max the (1 - cos) factor averages to 1 and |1+H| ~ 1, so the
    # remaining folded power is 2 * int 2S(f) df = 2*linewidth/(pi*f_max).
    tail = 2.0 * linewidth_hz / (math.pi * band[1])
    if abs(fine - coarse) > GRID_REL_TOL * abs(fine):
        raise ConvergenceError(
            "phase-noise variance integral did not converge under grid "
            f"doubling: {coarse + tail:.6g} vs {fine + tail:.6g} rad^2"
        )
    return ShapedPhaseNoise(f, psd, fine + tail, bode)

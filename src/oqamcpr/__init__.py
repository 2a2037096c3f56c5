"""Desk-scale simulator for laser-forwarded offset-QAM coherent links.

The package models the analog carrier phase recovery chain end to end:
offset-QAM constellations, the laser-forwarded channel with its streaming
Wiener beat phase, both average-power phase-error detectors and the closed
recovery loop, its linearized frequency-domain analysis, the loop-shaped
beat phase-noise spectrum, and semi-analytic plus Monte Carlo error rates.
"""

from .analysis import (
    BodeMetrics,
    DetectorPhysics,
    LoopParams,
    DEFAULT_LOOP,
    bode_metrics,
    k_pd_from_physics,
    open_loop_response,
    scale_to_closed_loop_bandwidth,
    static_phase_error,
)
from .ber import (
    KP4_BER_THRESHOLD,
    NoiseEnvironment,
    SweepResult,
    ber_from_ser,
    conditional_symbol_error,
    monte_carlo_ber,
    penalty,
    required_snr_db,
    semi_analytic_ber,
    semi_analytic_ser,
    snr_sweep,
)
from .channel import (
    BeatNoise,
    ChannelScenario,
    LaserModel,
    PathMismatch,
    add_awgn,
    one_pole_lowpass,
    received_trace,
    rotate_symbol,
    stream_rng,
)
from .constellation import (
    OffsetQamConstellation,
    average_symbol_energy,
    build_constellation,
    demap_point,
    map_bits,
    n0_from_snr_db,
)
from .cpr import (
    DetectorMethod,
    LockReport,
    error_method1,
    error_method2,
    simulate_lock,
)
from .errors import ConfigError, ConvergenceError
from .phasenoise import ShapedPhaseNoise, laser_psd, shaped_psd, total_variance

__version__ = "0.1.0"

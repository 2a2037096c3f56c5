"""The physical range of every numeric scenario input, stated once.

The domain types check the values they carry against ``RANGES`` and
``config.SCHEMA`` derives its rules for these keys from it.  Within these
bounds the model's arithmetic stays inside the float range, but for a
mismatch delay too short for the beat-phase spectrum, which ``phasenoise``
rejects.  ``docs/formats.md`` lists the same table.
"""

from __future__ import annotations

import sys

_GAIN = (1e-9, 1e9, "one analog block's gain: nine decades either side of 1 hold the "
                    "reference loop's 2.55e-2 to 1.2e3")
_CORNER = (1.0, 1e12, "a loop corner: from 1 Hz, below the 2 kHz thermal phase shifter, to 1 THz")

# key -> (lower bound, upper bound, reason); both bounds are allowed.
RANGES = {
    "modulation.a_oma": (1e-6, 1e6, "the swing per axis in linear units: six decades about 1"),
    "modulation.m_ratio": (0.0, 10.0, "a0 / a_oma: at 10 the data holds 1% of the field power"),
    "laser.linewidth_hz": (0.0, 1e12, "wider than any laser line; the O-band carrier is 230 THz"),
    "mismatch.delta_l_m": (0.0, 100.0, "the paper's mismatches are centimetres; 100 m is a spool"),
    "mismatch.refractive_index": (1.0, 5.0, "vacuum to germanium, the highest index in optics"),
    **{f"loop.{k}": _GAIN for k in ("k_pd_v_per_rad", "k_lf_v_per_v", "k_driver_v_per_v",
                                    "k_ps_rad_per_v")},
    **{f"loop.{k}": _CORNER for k in ("f_lf_zero_hz", "f_lf_pole_hz", "f_ps_hz")},
    "loop.closed_loop_bw_hz": (1.0, 1e9, "1 Hz to three decades below the top symbol rate"),
    "channel.baud_rate_hz": (1e6, 1e12, "up to ten times the paper's 100 GBaud"),
    "channel.snr_db": (-100.0, sys.float_info.max, "down to a noise PSD 1e10 times Es; above "
                                                   "about 3083 dB n0 is 0, a noiseless path"),
    "channel.pd_bandwidth_hz": (1e6, 1e13, "a photodiode's 3 dB bandwidth, 1 MHz to 10 THz"),
    "channel.phi_offset_rad": (-1e3, 1e3, "any angle lies within +/-pi; 1e3 rad keeps 1e-13 rad "
                                          "resolution"),
}


def check(key: str, value) -> None:
    """Raise ValueError naming the key unless value lies within its range."""
    lo, hi, _ = RANGES[key]
    if not lo <= value <= hi:
        raise ValueError(f"{key} = {value:g} is outside its range [{lo:g}, {hi:g}]")

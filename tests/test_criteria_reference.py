"""The printed values of acceptance criteria 8a-8d and 9 against a committed reference.

Criteria 8b, 8c, 8d and 9 fail by design (README.md): each compares the
Gaussian-jitter error model with an external round-number target.  This file
pins what they print instead, so a change that moves one of them fails here
whatever its target.  ``criteria_reference.json`` holds each value as printed:
the KP4 penalties of 8a-8d in dB to three decimals, and criterion 9's BER at
Es/N0 19 dB to five significant digits.  The values are computed as the
``kp4_oracle`` workload of ``perfbench`` computes them (16-offset-QAM and
4-offset-QAM at a0 0.1, 10 cm of mismatch).

A change that moves a printed value on purpose re-pins the reference in the
same commit by running this file as a script:

    PYTHONPATH=src python tests/test_criteria_reference.py
"""

import json
import math
from pathlib import Path

from oqamcpr.analysis import DEFAULT_LOOP, scale_to_closed_loop_bandwidth
from oqamcpr.ber import NoiseEnvironment, ber_from_ser, required_snr_db, semi_analytic_ser
from oqamcpr.channel import PathMismatch
from oqamcpr.constellation import average_symbol_energy, build_constellation
from oqamcpr.phasenoise import total_variance

REFERENCE = Path(__file__).with_name("criteria_reference.json")

# Criteria 8a-8d: (threshold with more jitter, threshold with less).
PENALTIES = {
    "8a": ("t4_1m", "t4_100k"),
    "8b": ("t16_1m", "t16_100k"),
    "8c": ("t16_1m", "t16_clean"),
    "8d": ("t16_bw10m", "t16_bw100m"),
}


def sigma(linewidth_hz: float, params=DEFAULT_LOOP) -> float:
    return math.sqrt(total_variance(linewidth_hz, PathMismatch(0.1).tau_s, params))


def printed_values() -> dict[str, str]:
    """Each criterion's value as its acceptance test prints it, by criterion."""
    c4 = build_constellation(4, 1.0, 0.1)
    c16 = build_constellation(16, 1.0, 0.1)
    sig_100k, sig_1m = sigma(1e5), sigma(1e6)
    sig_bw = {bw: sigma(1e6, scale_to_closed_loop_bandwidth(DEFAULT_LOOP, bw))
              for bw in (1e7, 1e8)}
    t = {
        "t4_100k": required_snr_db(c4, sig_100k),
        "t4_1m": required_snr_db(c4, sig_1m),
        "t16_100k": required_snr_db(c16, sig_100k),
        "t16_1m": required_snr_db(c16, sig_1m),
        "t16_clean": required_snr_db(c16, 0.0),
        "t16_bw10m": required_snr_db(c16, sig_bw[1e7]),
        "t16_bw100m": required_snr_db(c16, sig_bw[1e8]),
    }
    values = {name: f"{t[worse] - t[better]:.3f}" for name, (worse, better) in PENALTIES.items()}
    env = NoiseEnvironment(average_symbol_energy(c16) / 10**1.9, sig_1m)
    values["9"] = f"{ber_from_ser(semi_analytic_ser(c16, env), c16.order):.4e}"
    return values


def test_printed_criteria_match_the_reference():
    assert printed_values() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(printed_values(), indent=1) + "\n")

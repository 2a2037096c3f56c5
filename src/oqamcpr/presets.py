"""Bundled scenario presets covering the standard report sweeps."""

from __future__ import annotations

import copy
import math

_REFERENCE_LOOP_METRICS = {
    "crossover_hz": 160e3,
    "phase_margin_deg": 61.0,
    "closed_loop_bw_hz": 216e3,
}

_LINEWIDTH_SET = [1e5, 5e5, 1e6, 1e7]

# Es/N0 grid of the BER sweeps, per modulation order.
_SNR_GRID_DB = {
    4: {"start": 4.0, "stop": 16.0, "step": 0.25},
    16: {"start": 10.0, "stop": 24.0, "step": 0.25},
}


def _ber_sweep(description: str, *, order: int, label: str, sweep: dict, **sections) -> dict:
    """A BER-vs-Es/N0 preset over the order's grid, with its SVG, one value swept."""
    run = {
        "mode": "ber-sweep",
        "label": label,
        "svg": True,
        "snr_grid_db": dict(_SNR_GRID_DB[order]),
        "sweep": sweep,
    }
    config = {"modulation": {"order": order}, **sections, "run": run}
    return {"description": description, "config": config}


def _lock_transient(description: str, *, order: int, label: str) -> dict:
    """A lock acquisition preset from a pi/4 offset over 5e-4 s, with its SVG."""
    return {
        "description": description,
        "config": {
            "modulation": {"order": order},
            "channel": {"phi_offset_rad": math.pi / 4},
            "run": {"mode": "lock", "label": label, "svg": True, "duration_s": 5e-4},
        },
    }


PRESETS: dict[str, dict] = {
    "bode_reference_loop": {
        "description": "Open-loop Bode sweep of the reference loop with external reference metrics cross-check",
        "config": {
            "modulation": {"order": 4},
            "run": {
                "mode": "bode",
                "label": "bode",
                "svg": True,
                "reference_metrics": _REFERENCE_LOOP_METRICS,
            },
        },
    },
    "psd_loop_bandwidth": {
        "description": "Beat phase-noise PSD for 1 MHz linewidth, 10 cm mismatch, at several loop bandwidths",
        "config": {
            "modulation": {"order": 4},
            "laser": {"linewidth_hz": 1e6},
            "mismatch": {"delta_l_m": 0.1},
            "run": {
                "mode": "psd",
                "label": "psd",
                "svg": True,
                "sweep": {"key": "loop.closed_loop_bw_hz", "values": [1e6, 1e7, 1e8]},
            },
        },
    },
    "ber_offset_4qam": _ber_sweep(
        "4-offset-QAM BER vs SNR for several center offsets (no phase noise)",
        order=4, label="ber_offset_4qam",
        sweep={"key": "modulation.m_ratio", "values": [0.0, 0.1, 0.25, 0.5]},
    ),
    "ber_offset_16qam": _ber_sweep(
        "16-offset-QAM BER vs SNR for several center offsets (no phase noise)",
        order=16, label="ber_offset_16qam",
        sweep={"key": "modulation.m_ratio", "values": [0.0, 0.1, 0.25, 0.5]},
    ),
    "ber_linewidth_4qam": _ber_sweep(
        "4-offset-QAM BER vs SNR across laser linewidths (10 cm mismatch)",
        order=4, label="ber_linewidth_4qam",
        sweep={"key": "laser.linewidth_hz", "values": list(_LINEWIDTH_SET)},
        mismatch={"delta_l_m": 0.1},
    ),
    "ber_linewidth_16qam": _ber_sweep(
        "16-offset-QAM BER vs SNR across laser linewidths (10 cm mismatch)",
        order=16, label="ber_linewidth_16qam",
        sweep={"key": "laser.linewidth_hz", "values": list(_LINEWIDTH_SET)},
        mismatch={"delta_l_m": 0.1},
    ),
    "ber_loop_bandwidth_16qam": _ber_sweep(
        "16-offset-QAM BER vs SNR across loop bandwidths (1 MHz linewidth, 10 cm mismatch)",
        order=16, label="ber_loopbw_16qam",
        sweep={"key": "loop.closed_loop_bw_hz", "values": [1e6, 1e7, 1e8]},
        laser={"linewidth_hz": 1e6},
        mismatch={"delta_l_m": 0.1},
    ),
    "ber_mismatch_16qam": _ber_sweep(
        "16-offset-QAM BER vs SNR across LO/Rx length mismatches (1 MHz linewidth)",
        order=16, label="ber_mismatch_16qam",
        sweep={"key": "mismatch.delta_l_m", "values": [0.0, 0.05, 0.1, 0.5]},
        laser={"linewidth_hz": 1e6},
    ),
    "lock_transient_4qam": _lock_transient(
        "4-offset-QAM lock acquisition from a pi/4 offset at 100 GBaud",
        order=4, label="lock_4qam",
    ),
    "lock_transient_16qam": _lock_transient(
        "16-offset-QAM lock acquisition from a pi/4 offset, same loop configuration",
        order=16, label="lock_16qam",
    ),
    "eye_trace_4qam": {
        "description": "Open-loop received I/Q trace with a pi/4 offset for eye-diagram plotting",
        "config": {
            "modulation": {"order": 4},
            "channel": {
                "phi_offset_rad": math.pi / 4,
                "pd_bandwidth_hz": 50e9,
            },
            "run": {
                "mode": "trace",
                "label": "eye_4qam",
                "num_symbols": 400,
                "samples_per_symbol": 16,
            },
        },
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(name)
    return copy.deepcopy(PRESETS[name]["config"])


def list_presets() -> str:
    """Stable-sorted one-line-per-preset listing."""
    lines = [f"{name}: {PRESETS[name]['description']}" for name in preset_names()]
    return "\n".join(lines)

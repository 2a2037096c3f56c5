import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from oqamcpr import analysis, ber, cli, phasenoise, reports, svgplot
from oqamcpr.cli import main, run_scenario
from oqamcpr.config import (
    MODES,
    SWEEP_KEYS,
    ScenarioConfig,
    load_config,
    sweep_variants,
    validate_config,
)
from oqamcpr.errors import ConfigError
from oqamcpr.presets import PRESETS, list_presets, preset_config
from oqamcpr.reports import read_csv, value_slug
from oqamcpr.svgplot import plot_csvs

BER_CFG = {
    "modulation": {"order": 4, "m_ratio": 0.1},
    "laser": {"linewidth_hz": 1e6},
    "mismatch": {"delta_l_m": 0.1},
    "run": {
        "mode": "ber-sweep",
        "label": "mini",
        "seed": 3,
        "svg": True,
        "snr_grid_db": {"start": 6.0, "stop": 14.0, "step": 1.0},
    },
}


# Each case: changes merged into a short lock config, and the key the
# error message must name.  The grid, sweep, reference and output_dir
# cases used to end in a traceback; the lock-* cases are rejected at run
# time by the simulation.  A number outside its key's physical range
# (domain.RANGES) is rejected by the schema, before anything runs.
BAD_INPUTS = [
    pytest.param({"run": {"decimation": 0}}, "decimation", id="run-decimation-0"),
    pytest.param({"run": {"decimation": "a"}}, "decimation", id="run-decimation-a"),
    pytest.param({"run": {"decimation": True}}, "decimation", id="run-decimation-True"),
    pytest.param({"run": {"samples_per_symbol": 0}}, "samples_per_symbol",
                 id="run-samples_per_symbol-0"),
    pytest.param({"run": {"samples_per_symbol": 2.5}}, "samples_per_symbol",
                 id="run-samples_per_symbol-2.5"),
    pytest.param({"run": {"num_symbols": True}}, "num_symbols", id="run-num_symbols-True"),
    pytest.param({"modulation": {"m_ratio": 0}}, "m_ratio", id="modulation-m_ratio-0"),
    *(
        pytest.param({"run": {"mode": "ber-sweep", "snr_grid_db": grid}}, "snr_grid_db",
                     id=f"grid-{tag}")
        for tag, grid in [
            ("step-0", {"start": 0, "stop": 4, "step": 0}),
            ("step-a", {"start": 0, "stop": 4, "step": "a"}),
            ("start-a", {"start": "a", "stop": 4, "step": 1}),
            ("descending-list", [8, 4]),
            ("descending-dict", {"start": 8, "stop": 4, "step": 1}),
            ("negative-step", {"start": 8, "stop": 4, "step": -1}),
            ("one-point", {"start": 4, "stop": 4.5, "step": 1}),
            ("infinity", [4, float("inf")]),
            ("span-beyond-float", {"start": -10**308, "stop": 10**308, "step": 1}),
        ]
    ),
    *(
        pytest.param({"run": {"sweep": {"key": dotted, "values": [1, value]}}, **extra},
                     dotted.split(".")[1], id=f"sweep-{tag}")
        for tag, dotted, value, extra in [
            ("value-a", "laser.linewidth_hz", "a", {}),
            ("value-true", "laser.linewidth_hz", True, {}),
            ("linewidth-negative", "laser.linewidth_hz", -1, {}),
            ("a_oma-0", "modulation.a_oma", 0, {}),
            ("loop-bw-negative", "loop.closed_loop_bw_hz", -1, {}),
            ("m_ratio-0", "modulation.m_ratio", 0, {}),
        ]
    ),
    # channel.n0 is no key: Es/N0 (channel.snr_db) is the one noise setting.
    pytest.param({"channel": {"n0": 0.01}}, "key 'n0'", id="channel-n0"),
    pytest.param({"channel": {"n0": 0.01}, "run": {"sweep": {"key": "channel.snr_db",
                                                             "values": [1, 10]}}},
                 "key 'n0'", id="sweep-snr_db-with-n0"),
    pytest.param({"run": {"sweep": {"key": "loop.closed_loop_bw_hz", "values": [1e6, 1.0000001e6]}}},
                 "sweep", id="sweep-colliding-values"),
    pytest.param({"run": {"sweep": {"key": "loop.closed_loop_bw_hz", "values": [1e6, 1e6]}}},
                 "sweep", id="sweep-duplicate-values"),
    pytest.param({"run": {"mode": "bode", "reference_metrics": {"crossover_hz": "x"}}},
                 "reference_metrics", id="reference-not-a-number"),
    pytest.param({"run": {"mode": "bode", "reference_metrics": {"crossover_hz": 0}}},
                 "reference_metrics", id="reference-zero"),
    pytest.param({"loop": {"k_lf_v_per_v": 1e308, "k_ps_rad_per_v": 1e308},
                  "run": {"mode": "bode", "svg": True}}, "loop.k_lf_v_per_v",
                 id="bode-gain-product-inf"),
    pytest.param({"run": {"output_dir": 5}}, "output_dir", id="output_dir-5"),
    pytest.param({"channel": {"baud_rate_hz": 10**400}}, "baud_rate_hz", id="number-beyond-float"),
    pytest.param({"run": {"seed": -1}}, "seed", id="lock-seed-negative"),
    pytest.param({"run": {"decimation": 1_000_000}}, "decimation", id="lock-decimation-coarse"),
    pytest.param({"channel": {"baud_rate_hz": 1}}, "baud_rate_hz", id="lock-baud-1"),
    pytest.param({"run": {"duration_s": 1e-9}}, "duration_s", id="lock-duration-short"),
    pytest.param({"laser": {"linewidth_hz": 1e6}, "mismatch": {"delta_l_m": 1e-4}},
                 "delta_l_m", id="lock-mismatch-below-sample-step"),
    # n0 = Es / 10 ** (snr_db / 10) divides by zero, or overflows, below the float range.
    *(
        pytest.param({"channel": {"snr_db": snr_db}}, "snr_db", id=f"lock-snr_db-{snr_db:g}")
        for snr_db in (-1e300, -3200)
    ),
    # The band edge 10 / (2 pi tau) is a float, but laser_psd's 2 pi f^2 there is not.
    *(
        pytest.param({"laser": {"linewidth_hz": 1e6}, "mismatch": {"delta_l_m": delta_l_m},
                      "run": {"mode": mode, "snr_grid_db": [10, 12]}},
                     "delta_l_m", id=f"{mode}-mismatch-{delta_l_m:g}")
        for mode in ("psd", "ber-sweep")
        for delta_l_m in (1e-200, 1e-290)
    ),
    # Es/N0 divides by the symbol energy, which must be a normal finite float.
    *(
        pytest.param({"modulation": {"a_oma": a_oma},
                      "run": {"mode": "ber-sweep", "snr_grid_db": [4, 10, 12, 16]}},
                     "modulation.a_oma", id=f"ber-sweep-a_oma-{a_oma:g}")
        for a_oma in (1e-300, 1e300)
    ),
    # A mismatch delay that is not a finite float, or not a finite number of samples.
    *(
        pytest.param({"laser": {"linewidth_hz": 1e6}, "mismatch": mismatch,
                      "run": {"mode": mode, "duration_s": 1e-6, "decimation": 100,
                              "snr_grid_db": [10, 12]}},
                     "mismatch.delta_l_m", id=f"{mode}-mismatch-{tag}")
        for mode, tag, mismatch in [
            ("lock", "1e308", {"delta_l_m": 1e308}),
            ("trace", "1e308", {"delta_l_m": 1e308}),
            ("lock", "index-1e9", {"delta_l_m": 1e308, "refractive_index": 1e9}),
            ("psd", "index-1e9", {"delta_l_m": 1e308, "refractive_index": 1e9}),
            ("ber-sweep", "index-1e9", {"delta_l_m": 1e308, "refractive_index": 1e9}),
        ]
    ),
    # Arithmetic past the float range on inputs the schema accepts: the tail
    # mean of a phase error near 1.7e308, 2 pi linewidth before the sample step
    # scales it down, and 2 pi f tau at the band edge of a finite delay.
    pytest.param({"channel": {"phi_offset_rad": 1.7e308}, "run": {"duration_s": 2e-7}},
                 "channel.phi_offset_rad", id="lock-phi_offset-1.7e308"),
    *(
        pytest.param({"laser": {"linewidth_hz": 1.7e308}, "mismatch": {"delta_l_m": 0.1},
                      "run": {"mode": mode, "duration_s": 2e-7, "num_symbols": 20}},
                     "laser.linewidth_hz", id=f"{mode}-linewidth-1.7e308")
        for mode in ("lock", "trace")
    ),
    *(
        pytest.param({"laser": {"linewidth_hz": 1e6},
                      "mismatch": {"delta_l_m": 0.1, "refractive_index": 1.7e308},
                      "run": {"mode": mode, "duration_s": 2e-7, "num_symbols": 20,
                              "snr_grid_db": [10, 12]}},
                     "mismatch.refractive_index", id=f"{mode}-refractive_index-1.7e308")
        for mode in ("psd", "ber-sweep", "lock", "trace")
    ),
    # A loop response outside the float range on the band a mode analyses.
    *(
        pytest.param({"laser": {"linewidth_hz": 1e6}, "mismatch": {"delta_l_m": 0.1},
                      "loop": {key: value}, "run": {"mode": mode, "duration_s": 2e-7,
                                                    "snr_grid_db": [10, 20]}},
                     f"loop.{key}", id=f"{mode}-{key}-{value:g}")
        for mode in ("bode", "psd", "ber-sweep", "lock")
        for key, value in (("f_lf_zero_hz", 1e-300), ("f_lf_pole_hz", 5e-324))
    ),
    # The loop filter's bilinear coefficient 2 / (2 pi f_p dt) overflows.
    pytest.param({"loop": {"f_lf_pole_hz": 1e-305}, "run": {"duration_s": 2e-7}},
                 "loop.f_lf_pole_hz", id="lock-f_lf_pole_hz-1e-305"),
    *(
        pytest.param({"loop": {"closed_loop_bw_hz": value}, "run": {"mode": "psd"}},
                     "loop.closed_loop_bw_hz", id=f"psd-closed_loop_bw_hz-{tag}")
        for tag, value in (("1.7e308", 1.7e308), ("1e300", 1e300))
    ),
    # An offset past the levels' float resolution: 1e17 + each 16-QAM level is one value.
    pytest.param({"modulation": {"order": 16, "a_oma": 1.0, "m_ratio": 1e17},
                  "run": {"mode": "ber-sweep", "snr_grid_db": [10, 20]}},
                 "modulation.m_ratio", id="ber-sweep-m_ratio-1e17"),
    # A baud rate whose sample step 1 / baud_rate_hz is past the float range,
    # where a trace without beat noise would write nan and inf times.
    pytest.param({"channel": {"baud_rate_hz": 1e-309}, "run": {"mode": "trace", "num_symbols": 2}},
                 "channel.baud_rate_hz", id="trace-baud_rate_hz-1e-309"),
    # A label names the output files, so it may not lead out of the output directory.
    *(
        pytest.param({"run": {"label": label}}, "label", id=f"label-{tag}")
        for tag, label in [("parent-x", "../x"), ("a-slash-b", "a/b"), ("parent", "..")]
    ),
]

# Extreme inputs from fuzzing; each merges into a 4-QAM config.  Those inside
# their keys' ranges run clean: exit 0 and, as tier-1 turns a RuntimeWarning
# into an error, no warning.  Those outside a range, or below lock mode's
# offset, exit 2 with the message given last in the case, and write nothing.
TEN_CM = {"mismatch": {"delta_l_m": 0.1}}
NOISY = {"laser": {"linewidth_hz": 1e6}, **TEN_CM}
CLEAN_EXTREMES = [
    pytest.param(mode, changes, outside, id=f"{mode}-{tag}")
    for mode, tag, changes, outside in [
        ("lock", "pd_bandwidth-1e-300", {"channel": {"pd_bandwidth_hz": 1e-300}},
         "channel.pd_bandwidth_hz"),
        ("lock", "pd_bandwidth-1e300", {"channel": {"pd_bandwidth_hz": 1e300}},
         "channel.pd_bandwidth_hz"),
        ("lock", "linewidth-1e300", {"laser": {"linewidth_hz": 1e300}, **TEN_CM},
         "laser.linewidth_hz"),
        ("lock", "phi_offset-1e300", {"channel": {"phi_offset_rad": 1e300}},
         "channel.phi_offset_rad"),
        ("lock", "k_ps-1e300", {"loop": {"k_ps_rad_per_v": 1e300}}, "loop.k_ps_rad_per_v"),
        # In range, but below the offset the lock-mode detectors need.
        ("lock", "a0-1e-300", {"modulation": {"a0": 1e-300}}, "lock mode needs m_ratio"),
        ("lock", "a_oma-1e150", {"modulation": {"a_oma": 1e150}}, "modulation.a_oma"),
        ("lock", "snr_db--300", {"channel": {"snr_db": -300}}, "channel.snr_db"),
        ("bode", "f_lf_pole-1e300", {"loop": {"f_lf_pole_hz": 1e300}}, "loop.f_lf_pole_hz"),
        ("bode", "k_lf-1e-300", {"loop": {"k_lf_v_per_v": 1e-300}}, "loop.k_lf_v_per_v"),
        ("bode", "k_pd-5e-324", {"loop": {"k_pd_v_per_rad": 5e-324}}, "loop.k_pd_v_per_rad"),
        ("bode", "f_lf_pole-1e-305", {"loop": {"f_lf_pole_hz": 1e-305}}, "loop.f_lf_pole_hz"),
        ("psd", "linewidth-1e300", {"laser": {"linewidth_hz": 1e300}, **TEN_CM},
         "laser.linewidth_hz"),
        ("psd", "linewidth-1e-300", {"laser": {"linewidth_hz": 1e-300}, **TEN_CM}, None),
        ("psd", "k_ps-1e-300", {"loop": {"k_ps_rad_per_v": 1e-300}, **NOISY},
         "loop.k_ps_rad_per_v"),
        ("psd", "f_ps-1e300", {"loop": {"f_ps_hz": 1e300}, **NOISY}, "loop.f_ps_hz"),
        ("ber-sweep", "linewidth-1e300", {"laser": {"linewidth_hz": 1e300}, **TEN_CM},
         "laser.linewidth_hz"),
        ("ber-sweep", "linewidth-1e9-1m", {"laser": {"linewidth_hz": 1e9},
                                            "mismatch": {"delta_l_m": 1.0}}, None),
        ("ber-sweep", "grid--400--300", {"run": {"snr_grid_db": [-400, -300]}}, None),
        ("trace", "one-symbol", {"run": {"samples_per_symbol": 1, "num_symbols": 1}}, None),
        ("trace", "pd_bandwidth-1e-300", {"channel": {"pd_bandwidth_hz": 1e-300}},
         "channel.pd_bandwidth_hz"),
        ("trace", "phi_offset-1e300-svg", {"channel": {"phi_offset_rad": 1e300},
                                           "run": {"svg": True}}, "channel.phi_offset_rad"),
        ("trace", "linewidth-1e300", {"laser": {"linewidth_hz": 1e300}, **TEN_CM},
         "laser.linewidth_hz"),
        ("trace", "phi_offset-1.7e308", {"channel": {"phi_offset_rad": 1.7e308}},
         "channel.phi_offset_rad"),
        # The smallest subnormal of keys whose 1.7e308 exits 2 (BAD_INPUTS).
        ("lock", "phi_offset-5e-324", {"channel": {"phi_offset_rad": 5e-324}}, None),
        *(
            (mode, "linewidth-5e-324", {"laser": {"linewidth_hz": 5e-324}, **TEN_CM}, None)
            for mode in ("lock", "trace")
        ),
        *(
            (mode, "refractive_index-5e-324",
             {**NOISY, "mismatch": {"delta_l_m": 0.1, "refractive_index": 5e-324}},
             "mismatch.refractive_index")
            for mode in ("psd", "ber-sweep")
        ),
        # Loops whose |1 + H|^2, or a pole's f / corner, would pass the float range.
        *(
            (mode, f"{key}-{value:g}", {"loop": {key: value}, **NOISY}, f"loop.{key}")
            for mode in ("psd", "ber-sweep")
            for key, value in (("k_lf_v_per_v", 1e300), ("f_lf_pole_hz", 1e-300),
                               ("f_ps_hz", 1e-300))
        ),
    ]
]

# Two values of each sweepable key that every mode accepts; a closed-loop
# bandwidth of 1e7 Hz would trip lock's loop-step guard.
SWEEP_VALUES = {
    "laser.linewidth_hz": [1e6, 2e6],
    "mismatch.delta_l_m": [0.1, 0.2],
    "mismatch.refractive_index": [1.468, 1.5],
    "modulation.m_ratio": [0.1, 0.2],
    "modulation.a0": [0.1, 0.2],
    "modulation.a_oma": [1.0, 2.0],
    "loop.closed_loop_bw_hz": [2e5, 5e5],
    "channel.snr_db": [10, 20],
    "channel.phi_offset_rad": [0.1, 0.2],
}


def short_run(mode, changes=None):
    """A short 4-QAM config of the mode, with changes merged in."""
    cfg = {"modulation": {"order": 4},
           "run": {"mode": mode, "duration_s": 2e-7, "snr_grid_db": [10, 20]}}
    for section, values in json.loads(json.dumps(changes or {})).items():
        cfg.setdefault(section, {}).update(values)
    return cfg


# Plot specs that ended in a traceback or were misread; each must exit 2
# naming the key.
BAD_PLOT_SPECS = [
    pytest.param([1, 2], "plot spec", id="not-an-object"),
    pytest.param({"x": "snr_db", "y": "ber", "threshold": "a"}, "threshold", id="threshold-a"),
    pytest.param({"x": "snr_db", "y": "ber", "threshold": "a", "logy": True}, "threshold",
                 id="threshold-a-logy"),
    pytest.param({"x": ["snr_db"], "y": "ber"}, "'x'", id="x-list"),
    pytest.param({"x": "snr_db", "y": "ber", "logx": "no"}, "logx", id="logx-no"),
    pytest.param({"x": "snr_db", "y": "ber", "labels": "abc"}, "labels", id="labels-abc"),
]


# Each case: a config the schema rejects, and the texts its message must hold.
BAD_CONFIGS = [
    pytest.param([1, 2], ["config root must be a JSON object"], id="root-list"),
    pytest.param({"foo": {}}, ["'foo'", "unknown section"], id="unknown-section"),
    pytest.param({"laser": 3, "run": {"mode": "trace"}}, ["'laser'", "section must be an object"],
                 id="section-not-object"),
    pytest.param({"modulation": {"order": 4, "a0": 20, "a_oma": 1}, "run": {"mode": "trace"}},
                 ["'a0'", "m_ratio = a0 / a_oma = 20 "], id="a0-out-of-range"),
]


def write_cfg(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


class TestConfig:
    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = json.loads(json.dumps(BER_CFG))
        cfg["laser"]["linewidth_mhz"] = 1.0
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError, match=r"linewidth_mhz.*line \d+"):
            load_config(path)

    def test_negative_linewidth_names_key(self, tmp_path):
        cfg = json.loads(json.dumps(BER_CFG))
        cfg["laser"]["linewidth_hz"] = -1.0
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(ConfigError, match="linewidth_hz"):
            load_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "modulation": {,}\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_mode_required(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config({"modulation": {"order": 4}})

    def test_m_ratio_a0_conflict(self):
        cfg = {
            "modulation": {"order": 4, "a0": 0.4, "m_ratio": 0.1},
            "run": {"mode": "trace"},
        }
        with pytest.raises(ConfigError, match="disagree"):
            validate_config(cfg)

    def test_ber_sweep_requires_a_grid(self):
        cfg = json.loads(json.dumps(BER_CFG))
        del cfg["run"]["snr_grid_db"]
        with pytest.raises(ConfigError, match="snr_grid_db"):
            validate_config(cfg)

    def test_snr_grid_expansion(self):
        sc = ScenarioConfig(validate_config(BER_CFG))
        grid = sc.snr_grid_db()
        assert grid[0] == 6.0 and grid[-1] == 14.0 and len(grid) == 9


class TestCliCommands:
    def test_run_exit_codes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BER_CFG)
        rc = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "mini.csv").exists()
        assert (tmp_path / "out" / "mini_manifest.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BER_CFG))
        cfg["laser"]["linewidth_hz"] = -5.0
        path = write_cfg(tmp_path, cfg)
        rc = main(["run", str(path)])
        assert rc == 2
        assert "linewidth_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, key", BAD_INPUTS)
    def test_bad_lock_input_exit_2(self, tmp_path, monkeypatch, capsys, changes, key):
        cfg = {"modulation": {"order": 4}, "run": {"mode": "lock", "duration_s": 2e-5}}
        for section, values in changes.items():
            cfg.setdefault(section, {}).update(values)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("OQAMCPR_OUTPUT_DIR", raising=False)
        rc = main(["run", str(write_cfg(tmp_path, cfg))])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("cfg, texts", BAD_CONFIGS)
    def test_rejected_config_exit_2(self, tmp_path, monkeypatch, capsys, cfg, texts):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("OQAMCPR_OUTPUT_DIR", raising=False)
        rc = main(["run", str(write_cfg(tmp_path, cfg))])
        err = capsys.readouterr().err
        assert rc == 2
        assert all(text in err for text in texts) and "Traceback" not in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_output_dir_that_is_a_file_exit_1(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BER_CFG)
        blocker = tmp_path / "out"
        blocker.write_text("kept\n")
        rc = main(["run", str(path), "-o", str(blocker)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: I/O failure:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]
        assert blocker.read_text() == "kept\n"

    def test_reference_metric_absent_from_the_loop_is_noted(self, tmp_path, capsys):
        # At this phase shifter gain the loop never reaches unity gain.
        cfg = {
            "modulation": {"order": 4},
            "loop": {"k_ps_rad_per_v": 1e-9},
            "run": {"mode": "bode", "reference_metrics": {"crossover_hz": 1e5}},
        }
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 0
        assert err == ("note: reference_deviation: crossover_hz: computed value absent, "
                       "reference 100000\n")

    @pytest.mark.parametrize("mode, changes, outside", CLEAN_EXTREMES)
    @pytest.mark.filterwarnings("ignore:sigma_pn=.*comfort zone:UserWarning")
    def test_extreme_valid_input_runs_clean(self, tmp_path, capsys, mode, changes, outside):
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, short_run(mode, changes))), "-o", str(outdir)])
        err = capsys.readouterr().err
        if outside is not None:
            assert rc == 2 and outside in err and "Traceback" not in err, err
            assert not any(outdir.glob("*"))
            return
        assert rc == 0, err
        for csv in outdir.glob("*.csv"):
            _, cols = read_csv(csv)
            cols.pop("loop_bw_hz", None)  # nan marks a loop without a closed-loop bandwidth
            assert not np.isnan(list(cols.values())).any(), csv.name

    @pytest.mark.parametrize("mode", ["psd", "ber-sweep"])
    def test_link_without_linewidth_skips_the_delay_check(self, tmp_path, capsys, mode):
        # A delay too short to integrate shapes no beat noise without a linewidth.
        cfg = {"modulation": {"order": 4}, "mismatch": {"delta_l_m": 1e-200},
               "run": {"mode": mode, "snr_grid_db": [10, 12]}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 0, capsys.readouterr().err
        if mode == "psd":
            _, cols = read_csv(outdir / "psd.csv")
            assert cols["f_hz"][-1] == 1e10 and not any(cols["psd_rad2_per_hz"])

    @pytest.mark.parametrize("mode", ["bode", "psd", "ber-sweep", "lock"])
    def test_one_bode_analysis_per_variant(self, tmp_path, monkeypatch, mode):
        calls = []
        original = analysis.bode_metrics

        def counting(params):
            calls.append(params)
            return original(params)

        for module in (analysis, phasenoise):  # both names the benchmark's tracer wraps
            monkeypatch.setattr(module, "bode_metrics", counting)
        run_scenario({**NOISY, "modulation": {"order": 4},
                      "run": {"mode": mode, "duration_s": 2e-5, "snr_grid_db": [10, 12]}},
                     output_dir=str(tmp_path))
        assert len(calls) == 1

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"modulation": {"order": 4}, "run": {"label": "\xe9"}}'.encode("latin-1"))
        rc = main(["run", str(path)])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BER_CFG))
        # The gain product stays below 0.06 at any k_lf in range, which holds
        # the closed-loop bandwidth under 2 kHz.
        cfg["loop"] = {"k_ps_rad_per_v": 1e-9, "closed_loop_bw_hz": 1e6}
        path = write_cfg(tmp_path, cfg)
        rc = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert rc == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_bandwidth_below_the_reference_loops_reach_exit_3(self, tmp_path, capsys):
        # At any k_lf the reference loop's bandwidth stays above about 1.82 kHz.
        cfg = {"modulation": {"order": 4}, "loop": {"closed_loop_bw_hz": 1e3},
               "run": {"mode": "psd"}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 3
        assert "cannot reach closed-loop bandwidth 1000 Hz" in capsys.readouterr().err
        assert not any(outdir.glob("*"))

    def test_bandwidth_reached_at_the_top_of_the_gain_range(self, tmp_path):
        # A tenth of the reference detector gain needs K_lf 8.3e8 for 1 GHz,
        # beyond the last in-range decade step from 1.2e3.
        cfg = {"modulation": {"order": 4}, **NOISY,
               "loop": {"k_pd_v_per_rad": 2.55e-3, "closed_loop_bw_hz": 1e9},
               "run": {"mode": "psd"}}
        outdir = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)]) == 0
        assert (outdir / "psd.csv").exists()

    def test_loop_step_checked_against_a_crossover_past_1e8_hz(self, tmp_path, capsys):
        # The 1 GHz loop crosses over near 1e9 Hz; the default 10 ns loop step allows 2 MHz.
        cfg = short_run("lock", {"loop": {"closed_loop_bw_hz": 1e9}, "run": {"duration_s": 2e-6}})
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 2
        assert "too coarse for crossover" in capsys.readouterr().err
        assert not any(outdir.glob("*"))

    def test_loop_bandwidth_past_1e8_hz_written(self, tmp_path):
        cfg = short_run("ber-sweep", {**NOISY, "loop": {"closed_loop_bw_hz": 1e9}})
        outdir = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)]) == 0
        _, cols = read_csv(outdir / "ber_sweep.csv")
        assert np.allclose(cols["loop_bw_hz"], 1e9, rtol=5e-3, atol=0.0)

    # The phase-quadrature gate at n0 = 0 and at an in-range Es/N0, as
    # docs/formats.md quotes them.
    @pytest.mark.parametrize("modulation, grid, ending", [
        ({"order": 16}, [10, 1e308], "7.62795e-07 vs 8.05064e-07 at Es/N0 1e+308 dB"),
        ({"order": 4, "m_ratio": 2}, [30, 40], "0.000249914 vs 0.000254382 at Es/N0 40 dB"),
    ])
    def test_documented_quadrature_nonconvergence_exit_3(self, tmp_path, capsys, modulation,
                                                         grid, ending):
        cfg = {"modulation": modulation, "laser": {"linewidth_hz": 1e6},
               "mismatch": {"delta_l_m": 0.1}, "run": {"mode": "ber-sweep", "snr_grid_db": grid}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 3
        assert capsys.readouterr().err.rstrip().endswith(ending)
        assert not any(outdir.glob("*"))

    def test_quadrature_nonconvergence_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ber, "QUAD_ORDER", 2)
        rc = main(["run", str(write_cfg(tmp_path, BER_CFG)), "-o", str(tmp_path / "out")])
        assert rc == 3
        assert "phase quadrature did not converge" in capsys.readouterr().err

    def test_unplottable_svg_writes_no_file(self, tmp_path, capsys):
        # A clean link's PSD is all zeros, which a log axis cannot draw.
        cfg = {"modulation": {"order": 4}, "run": {"mode": "psd", "svg": True}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no plottable data points" in err and "run.svg" in err
        assert "laser.linewidth_hz" in err
        assert list(outdir.iterdir()) == []

    def test_svg_span_overflow_writes_no_file(self, tmp_path, monkeypatch, capsys):
        bode = cli._MODE_RUNNERS["bode"]

        def overflowing(sc):
            table = bode(sc)
            table.columns["mag_db"][[0, -1]] = -1e308, 1e308
            return table

        monkeypatch.setitem(cli._MODE_RUNNERS, "bode", overflowing)
        cfg = {"modulation": {"order": 4}, "run": {"mode": "bode", "svg": True}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "run.svg" in err and "mag_db" in err and "not finite" in err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "run",
        [
            {"mode": "lock", "duration_s": 1e6},
            {"mode": "trace", "num_symbols": 10**14},
            {"mode": "ber-sweep", "snr_grid_db": {"start": 0, "stop": 1e14, "step": 1}},
            {"mode": "lock", "duration_s": 1e12},
            {"mode": "trace", "num_symbols": 10**23},
            {"mode": "ber-sweep", "snr_grid_db": {"start": 0, "stop": 2e18, "step": 1}},
            {"mode": "ber-sweep", "snr_grid_db": {"start": 0, "stop": 1e7, "step": 1e-300}},
        ],
        ids=["lock", "trace", "ber-sweep", "lock-past-intp", "trace-past-intp",
             "ber-sweep-past-bytes", "ber-sweep-past-intp"],
    )
    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys, run):
        # 1e14 eight-byte elements (728 TiB) exceed the address space: the
        # allocation fails at once, without touching memory.  Past 2**63 bytes
        # or elements numpy refuses the size before it allocates.
        cfg = {"modulation": {"order": 4}, "run": run}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: out of memory:") and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    def test_trace_mismatch_finer_than_sample_step_exit_2(self, tmp_path, capsys):
        cfg = {
            "modulation": {"order": 4},
            "laser": {"linewidth_hz": 1e6},
            "mismatch": {"delta_l_m": 1e-4},
            "run": {"mode": "trace", "num_symbols": 20},
        }
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "delta_l_m" in err and "Traceback" not in err

    @pytest.mark.parametrize("snr_db", [-1e300, -3200])
    def test_trace_snr_db_beyond_float_range_exit_2(self, tmp_path, capsys, snr_db):
        cfg = {"modulation": {"order": 4}, "channel": {"snr_db": snr_db},
               "run": {"mode": "trace", "num_symbols": 20}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "snr_db" in err and "Traceback" not in err
        assert not any(outdir.glob("*"))

    @pytest.mark.parametrize("mode", ["psd", "ber-sweep"])
    def test_snr_db_beyond_float_range_exit_2_though_unused(self, tmp_path, capsys, mode):
        # Neither mode adds AWGN, but both build the channel and so its n0.
        cfg = {"modulation": {"order": 4}, "channel": {"snr_db": -1e300},
               "run": {"mode": mode, "snr_grid_db": [10, 12]}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "channel.snr_db" in err and "Traceback" not in err
        assert not any(outdir.glob("*"))

    @pytest.mark.parametrize("mode", ["lock", "trace"])
    def test_snr_db_above_float_range_is_noiseless(self, tmp_path, mode):
        # 10 ** (snr_db / 10) overflows to inf, so n0 = 0: the run without AWGN.
        cfg = {"modulation": {"order": 4},
               "run": {"mode": mode, "duration_s": 2e-5, "num_symbols": 20, "svg": True}}
        noisy = {**cfg, "channel": {"snr_db": 1e300}}
        for name, run_cfg in (("plain", cfg), ("snr", noisy)):
            assert main(["run", str(write_cfg(tmp_path, run_cfg, f"{name}.json")),
                         "-o", str(tmp_path / name)]) == 0
        outputs = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert outputs == sorted(p.name for p in (tmp_path / "snr").iterdir())
        for name in outputs:
            plain, snr = ((tmp_path / run / name).read_bytes() for run in ("plain", "snr"))
            if name.endswith("_manifest.json"):
                plain, snr = json.loads(plain), json.loads(snr)
                assert snr["config"]["channel"].pop("snr_db") == 1e300
            assert plain == snr, name

    @pytest.mark.parametrize("delta_l_m", [1e-200, 1e-290, 1e-300, 1e-310])
    @pytest.mark.parametrize("mode", ["psd", "ber-sweep"])
    def test_mismatch_too_short_to_integrate_exit_2(self, tmp_path, capsys, mode, delta_l_m):
        # The band edge 10 / (2 pi tau) of a subnormal delay is not a float; for
        # 1e-200 and 1e-290 it is, but laser_psd's 2 pi f^2 there overflows.
        cfg = {"modulation": {"order": 4}, "laser": {"linewidth_hz": 1e6},
               "mismatch": {"delta_l_m": delta_l_m},
               "run": {"mode": mode, "snr_grid_db": [10, 12]}}
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "delta_l_m" in err and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    def test_presets_listing(self, capsys):
        rc = main(["presets"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        names = [line.split(":")[0] for line in out]
        assert len(names) >= 7
        assert names == sorted(names)

    def test_every_preset_config_is_valid(self):
        for name in PRESETS:
            validate_config(preset_config(name))
        assert list_presets().count("\n") >= 6

    def test_unknown_preset_name_raises_key_error(self):
        with pytest.raises(KeyError, match="nope"):
            preset_config("nope")

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OQAMCPR_OUTPUT_DIR", str(tmp_path / "envout"))
        result = run_scenario(BER_CFG)
        assert all(f.parent == tmp_path / "envout" for f in result.files)


class TestSweeps:
    @pytest.mark.parametrize("key", list(SWEEP_VALUES))
    @pytest.mark.parametrize("mode", MODES)
    def test_a_mode_sweeps_only_the_keys_it_reads(self, tmp_path, capsys, mode, key):
        # A key of the mode's table writes variants that differ.  Any other key
        # is rejected before a file is written, and setting it to either value
        # instead of sweeping it writes the same CSV.
        values = SWEEP_VALUES[key]
        cfg = short_run(mode, {**NOISY, "run": {"sweep": {"key": key, "values": values}}})
        outdir = tmp_path / "sweep"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        err = capsys.readouterr().err
        if key in SWEEP_KEYS[mode]:
            assert rc == 0, err
            first, second = (f.read_bytes() for f in sorted(outdir.glob("*.csv")))
            assert first != second
            return
        assert rc == 2 and "Traceback" not in err
        assert f"{mode} mode does not read {key}" in err and str(list(SWEEP_KEYS[mode])) in err
        assert not outdir.exists()
        section, name = key.split(".")
        csvs = set()
        for value in values:
            changes = {**NOISY, section: {**NOISY.get(section, {}), name: value}}
            run_cfg = write_cfg(tmp_path, short_run(mode, changes))
            out = tmp_path / value_slug(value)
            assert main(["run", str(run_cfg), "-o", str(out)]) == 0
            csvs.update(f.read_bytes() for f in out.glob("*.csv"))
        assert len(csvs) == 1

    def test_one_value_sweep_runs(self, tmp_path):
        cfg = {
            "modulation": {"order": 4},
            "run": {"mode": "trace", "num_symbols": 20,
                    "sweep": {"key": "channel.snr_db", "values": [12.0]}},
        }
        result = run_scenario(cfg, output_dir=str(tmp_path))
        assert list(result.metrics) == ["trace_12"]
        assert (tmp_path / "trace_12.csv").exists()

    def test_psd_sweep_svg_skips_the_zero_variant(self, tmp_path, capsys):
        # The ΔL = 0 variant's PSD is all zeros; the SVG draws the other one.
        cfg = {
            "modulation": {"order": 4},
            "laser": {"linewidth_hz": 1e5},
            "run": {"mode": "psd", "svg": True,
                    "sweep": {"key": "mismatch.delta_l_m", "values": [0.0, 0.1]}},
        }
        outdir = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path, cfg)), "-o", str(outdir)])
        assert rc == 0, capsys.readouterr().err
        names = sorted(f.name for f in outdir.iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 2
        assert "psd.svg" in names and "psd_manifest.json" in names

    def test_ber_sweep_sigma_and_loop_bw_match_their_own_analyses(self, tmp_path):
        # One spectrum per variant gives sigma = sqrt(total_variance) with beat
        # noise, 0 without, and bode_metrics' loop bandwidth, bit for bit.
        cfg = {"modulation": {"order": 16}, "mismatch": {"delta_l_m": 0.1},
               "run": {"mode": "ber-sweep", "snr_grid_db": [14, 16, 18],
                       "sweep": {"key": "laser.linewidth_hz", "values": [0, 1e6]}}}
        result = run_scenario(cfg, output_dir=str(tmp_path))
        manifest = json.loads(result.manifest.read_text())
        for slug, variant in sweep_variants(validate_config(cfg)).items():
            sc = ScenarioConfig(variant)
            scen, params = sc.scenario(), sc.loop_params()
            sigma = 0.0
            if scen.laser.linewidth_hz > 0:
                sigma = math.sqrt(phasenoise.total_variance(
                    scen.laser.linewidth_hz, scen.mismatch.tau_s, params))
            sweep = ber.snr_sweep(sc.constellation(), sigma, sc.snr_grid_db())
            _, cols = read_csv(tmp_path / f"ber_sweep_{slug}.csv")
            assert cols["ber"] == sweep.ber.tolist() and cols["ser"] == sweep.ser.tolist()
            assert set(cols["loop_bw_hz"]) == {analysis.bode_metrics(params).closed_loop_bw_hz}
            assert manifest["metrics"][f"ber_sweep_{slug}"]["sigma_pn_rad"] == sigma
        assert [m["sigma_pn_rad"] > 0 for m in manifest["metrics"].values()] == [False, True]

    def test_a_oma_sweep_keeps_a0_fixed(self):
        cfg = validate_config({
            "modulation": {"order": 4, "m_ratio": 0.2},
            "run": {"mode": "trace", "sweep": {"key": "modulation.a_oma", "values": [0.5, 1.0, 2.0]}},
        })
        variants = sweep_variants(cfg)
        assert [v["modulation"]["a0"] for v in variants.values()] == [0.2, 0.2, 0.2]
        assert [v["modulation"]["m_ratio"] for v in variants.values()] == [0.4, 0.2, 0.1]

    def test_m_ratio_sweep_derives_a0(self):
        cfg = validate_config({
            "modulation": {"order": 4, "a_oma": 2.0, "a0": 0.2},
            "run": {"mode": "trace", "sweep": {"key": "modulation.m_ratio", "values": [0.0, 0.25]}},
        })
        variants = sweep_variants(cfg)
        assert [v["modulation"]["a0"] for v in variants.values()] == [0.0, 0.5]


class TestRunOutputs:
    def test_bode_preset_outputs(self, tmp_path):
        result = run_scenario("bode_reference_loop", output_dir=str(tmp_path))
        csv = next(f for f in result.files if f.suffix == ".csv")
        text = csv.read_text()
        lines = text.splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#")]
        assert len(data_rows) - 1 >= 1000
        assert any("crossover_hz=" in l for l in lines if l.startswith("#"))
        assert any("reference_deviation" in l for l in lines if l.startswith("#"))
        manifest = json.loads(result.manifest.read_text())
        assert any("reference_deviation" in n for n in manifest["notes"])

    def test_linewidth_preset_writes_one_csv_per_value(self, tmp_path):
        cfg = preset_config("ber_linewidth_16qam")
        cfg["run"]["snr_grid_db"] = {"start": 14.0, "stop": 22.0, "step": 1.0}
        result = run_scenario(cfg, output_dir=str(tmp_path))
        csvs = [f for f in result.files if f.suffix == ".csv"]
        assert len(csvs) == 4
        svgs = [f for f in result.files if f.suffix == ".svg"]
        assert len(svgs) == 1
        header, cols = read_csv(csvs[0])
        assert header == [
            "snr_db", "ber", "ser", "order", "m_ratio",
            "linewidth_hz", "delta_l_m", "loop_bw_hz",
        ]
        assert set(cols["order"]) == {16.0}
        assert set(cols["delta_l_m"]) == {0.1}

    def test_trace_mode_columns(self, tmp_path):
        result = run_scenario("eye_trace_4qam", output_dir=str(tmp_path))
        header, cols = read_csv(result.files[0])
        assert header == ["time_s", "i", "q"]
        assert len(cols["time_s"]) == 400 * 16

    def test_lock_csv_columns(self, tmp_path):
        cfg = {
            "modulation": {"order": 4},
            "channel": {"phi_offset_rad": 0.3},
            "run": {"mode": "lock", "label": "locktest", "duration_s": 1e-4, "seed": 2},
        }
        result = run_scenario(cfg, output_dir=str(tmp_path))
        header, cols = read_csv(result.files[0])
        assert header == ["time_s", "psi_rad", "delta_phi_rad", "error_v"]
        assert result.metrics["residual_rad"] is not None

    @pytest.mark.parametrize("order, grid, span", [
        (4, [10, 40], "Es/N0 10 and 40 dB"),
        (16, [16, 1e308], "Es/N0 16 and 1e+308 dB"),
    ], ids=["4qam", "16qam-to-1e308"])
    def test_grid_stepping_over_the_floor_onto_zero_ber_is_noted(self, tmp_path, order, grid, span):
        # erfc underflows, so the BER drops from above KP4 to 0 in one step,
        # where a log-linear crossing has no value: the crossing stays absent.
        cfg = {"modulation": {"order": order}, "run": {"mode": "ber-sweep", "snr_grid_db": grid}}
        result = run_scenario(cfg, output_dir=str(tmp_path))
        _, cols = read_csv(result.files[0])
        assert cols["ber"][0] > ber.KP4_BER_THRESHOLD and cols["ber"][1] == 0.0
        assert result.metrics["fec_threshold_snr_db"] is None
        assert result.notes == [
            f"fec_threshold: BER reaches 0 between {span}; "
            "the grid needs a finer step to place the KP4 crossing"
        ]

    @pytest.mark.parametrize("changes, below, note", [
        ({"laser": {"linewidth_hz": 1e7}, "mismatch": {"delta_l_m": 0.1}}, False,
         "grid never crosses the KP4 error floor"),
        ({}, True, "BER is at or below the KP4 floor at every grid point from Es/N0 25 dB; "
                   "start the grid lower to place the crossing"),
    ], ids=["floor-above", "all-below"])
    def test_grid_on_one_side_of_the_floor_is_noted(self, tmp_path, changes, below, note):
        cfg = {"modulation": {"order": 16}, **changes,
               "run": {"mode": "ber-sweep", "snr_grid_db": [25, 30, 40]}}
        result = run_scenario(cfg, output_dir=str(tmp_path))
        _, cols = read_csv(result.files[0])
        assert [b <= ber.KP4_BER_THRESHOLD for b in cols["ber"]] == [below] * 3
        assert result.metrics["fec_threshold_snr_db"] is None
        assert result.notes == [f"fec_threshold: {note}"]

    def test_manifest_reproducibility(self, tmp_path):
        first = run_scenario(BER_CFG, output_dir=str(tmp_path / "a"))
        manifest = json.loads(first.manifest.read_text())
        replay_cfg = manifest["config"]
        second = run_scenario(replay_cfg, output_dir=str(tmp_path / "b"))
        firsts = sorted(f for f in first.files if f.suffix in (".csv", ".svg"))
        seconds = sorted(f for f in second.files if f.suffix in (".csv", ".svg"))
        assert [f.name for f in firsts] == [f.name for f in seconds]
        for fa, fb in zip(firsts, seconds):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_manifest_replay_keeps_given_a0(self, tmp_path):
        # 0.465 / 0.734 * 0.734 != 0.465 in floating point.
        cfg = {
            "modulation": {"order": 16, "a_oma": 0.734, "a0": 0.465},
            "channel": {"snr_db": 15.0},
            "run": {"mode": "trace", "num_symbols": 50},
        }
        first = run_scenario(cfg, output_dir=str(tmp_path / "a"))
        replay_cfg = json.loads(first.manifest.read_text())["config"]
        assert replay_cfg["modulation"]["a0"] == 0.465
        run_scenario(replay_cfg, output_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_bode_manifest_replay_keeps_note_order(self, tmp_path):
        first = run_scenario("bode_reference_loop", output_dir=str(tmp_path / "a"))
        replay_cfg = json.loads(first.manifest.read_text())["config"]
        second = run_scenario(replay_cfg, output_dir=str(tmp_path / "b"))
        assert first.notes == second.notes
        for name in ("bode.csv", "bode.svg", "bode_manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Imports the package and prints the scipy modules that loaded, then runs
# `runs` (Python source) and prints which of scipy.special and scipy.linalg
# are loaded.
SCIPY_PROBE = """
import sys
import numpy as np
import oqamcpr.cli
from oqamcpr.ber import snr_sweep
from oqamcpr.cli import run_scenario
from oqamcpr.constellation import build_constellation
out = {out!r}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
{runs}
print(sorted(m for m in ("scipy.special", "scipy.linalg") if m in sys.modules))
"""


def loaded_scipy(tmp_path, runs):
    code = SCIPY_PROBE.format(out=str(tmp_path), runs=runs)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.splitlines()


def test_runs_without_an_error_rate_load_no_scipy(tmp_path):
    # Importing scipy.special, and the scipy.linalg its roots_legendre pulls
    # in, costs a few tenths of a second and about 25 MiB; only an error
    # rate needs scipy (for erfc).
    runs = (
        "run_scenario({'modulation': {'order': 4}, 'run': {'mode': 'lock', 'label': 'lock',"
        " 'duration_s': 1e-4, 'svg': True}}, output_dir=out)\n"
        "for name in ('bode_reference_loop', 'psd_loop_bandwidth', 'eye_trace_4qam'):\n"
        "    run_scenario(name, output_dir=out)"
    )
    assert loaded_scipy(tmp_path, runs) == ["[]", "[]"]


def test_noiseless_error_rate_loads_no_scipy(tmp_path):
    # Without AWGN every tail probability is a step, so no erfc is needed.
    runs = (
        "from oqamcpr.ber import NoiseEnvironment, conditional_symbol_error,"
        " semi_analytic_ber, semi_analytic_ser\n"
        "c, env = build_constellation(16, 1.0, 0.1), NoiseEnvironment(0.0, 0.0)\n"
        "print(semi_analytic_ser(c, env), semi_analytic_ber(c, env),"
        " conditional_symbol_error(c, 0, np.array([0.0, np.pi]), env).tolist())"
    )
    assert loaded_scipy(tmp_path, runs) == ["[]", "0.0 0.0 [0.0, 1.0]", "[]"]


def test_error_rate_loads_scipy_special_only(tmp_path):
    runs = "snr_sweep(build_constellation(16, 1.0, 0.1), 0.05, np.arange(14.0, 16.0, 0.5))"
    assert loaded_scipy(tmp_path, runs) == ["[]", "['scipy.special']"]


def test_csv_renders_numpy_and_python_scalars_alike(tmp_path):
    # run_scenario hands write_csv Python scalars from .tolist(); they must
    # render exactly as the numpy scalars of the same columns.
    rng = np.random.default_rng(5)
    columns = {
        "x": np.concatenate([rng.standard_normal(50) * 1e-9, [0.0, -0.0, 1e300, np.nan, np.inf]]),
        "n": np.arange(55, dtype=np.int64) - 27,
        "b": np.arange(55) % 3 == 0,
        "c": [np.float64(0.1)] * 55,
    }
    as_numpy = reports.write_csv(tmp_path / "a.csv", tuple(columns), zip(*columns.values()))
    as_python = reports.write_csv(
        tmp_path / "b.csv", tuple(columns), zip(*(np.asarray(c).tolist() for c in columns.values()))
    )
    assert as_numpy.read_bytes() == as_python.read_bytes()


class TestSvg:
    def test_byte_identical_reruns(self, tmp_path):
        result = run_scenario(BER_CFG, output_dir=str(tmp_path))
        csv = next(f for f in result.files if f.suffix == ".csv")
        spec = {"x": "snr_db", "y": "ber", "logy": True, "kp4_line": True}
        a = plot_csvs([csv], spec, tmp_path / "a.svg")
        b = plot_csvs([csv], spec, tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_exactly_one_threshold_line(self, tmp_path):
        result = run_scenario(BER_CFG, output_dir=str(tmp_path))
        svg = next(f for f in result.files if f.suffix == ".svg")
        assert svg.read_text().count('class="threshold"') == 1

    def test_empty_csv_rejected_without_output(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("snr_db,ber\n")
        out = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
            plot_csvs([empty], {"x": "snr_db", "y": "ber"}, out)
        assert not out.exists()

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("snr_db,ber\n1.0\n")
        with pytest.raises(ValueError, match="fields"):
            plot_csvs([bad], {"x": "snr_db", "y": "ber"}, tmp_path / "x.svg")

    def test_plot_command(self, tmp_path):
        result = run_scenario(BER_CFG, output_dir=str(tmp_path))
        csv = next(f for f in result.files if f.suffix == ".csv")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"x": "snr_db", "y": "ber", "logy": True}))
        out = tmp_path / "custom.svg"
        rc = main(["plot", str(csv), str(spec_path), "-o", str(out)])
        assert rc == 0
        assert out.exists()

    def test_plot_command_bad_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\noops,1\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"x": "x", "y": "y"}))
        rc = main(["plot", str(bad), str(spec_path)])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_samples_dropped(self, tmp_path, bad):
        rows = ["1.0,0.1", f"2.0,{bad}", "3.0,0.01", f"{bad},0.05", "4.0,0.001"]
        (tmp_path / "bad.csv").write_text("snr_db,ber\n" + "\n".join(rows) + "\n")
        (tmp_path / "good.csv").write_text("snr_db,ber\n" + "\n".join(rows[::2]) + "\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"x": "snr_db", "y": "ber", "labels": ["ber"]}))
        for name in ("bad", "good"):
            csv, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            assert main(["plot", str(csv), str(spec_path), "-o", str(out)]) == 0
        assert (tmp_path / "bad.svg").read_bytes() == (tmp_path / "good.svg").read_bytes()

    def test_span_beyond_float_range_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "wide.csv"
        csv.write_text("snr_db,ber\n1.0,-1e308\n2.0,1e308\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"x": "snr_db", "y": "ber"}))
        rc = main(["plot", str(csv), str(spec_path), "-o", str(tmp_path / "x.svg")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "y (ber) axis" in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("spec, key", BAD_PLOT_SPECS)
    def test_bad_plot_spec_exit_2(self, tmp_path, capsys, spec, key):
        csv = tmp_path / "mini.csv"
        csv.write_text("snr_db,ber\n1.0,0.1\n2.0,0.01\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["plot", str(csv), str(spec_path), "-o", str(tmp_path / "x.svg")])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("csv_text, spec_text, message", [
        ("snr_db,ber\n1.0,0.1\n", None, "cannot load plot spec"),
        ("snr_db,ber\n1.0,0.1\n", "{not json", "cannot load plot spec"),
        ("# comments\n# only\n", '{"x": "snr_db", "y": "ber"}', "no data"),
    ], ids=["spec-missing", "spec-not-json", "csv-comments-only"])
    def test_plot_command_unreadable_input_exit_2(self, tmp_path, capsys, csv_text, spec_text,
                                                  message):
        csv = tmp_path / "mini.csv"
        csv.write_text(csv_text)
        spec_path = tmp_path / "spec.json"
        if spec_text is not None:
            spec_path.write_text(spec_text)
        rc = main(["plot", str(csv), str(spec_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in (csv, spec_path) if p.exists()
        )

    @pytest.mark.parametrize("spec, error, message", [
        ({"x": "snr_db"}, ConfigError, "plot spec needs 'x' and 'y'"),
        ({"y": "ber"}, ConfigError, "plot spec needs 'x' and 'y'"),
        ({"x": "snr_db", "y": ["ber", "ser"]}, ValueError, "missing column 'ser'"),
    ], ids=["no-y", "no-x", "missing-column"])
    def test_plot_of_absent_columns_rejected(self, tmp_path, spec, error, message):
        csv = tmp_path / "mini.csv"
        csv.write_text("snr_db,ber\n1.0,0.1\n2.0,0.01\n")
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match=message) as excinfo:
            plot_csvs([csv], spec, out)
        assert excinfo.type is error
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [0.0, -1e-3])
    def test_threshold_off_a_log_axis_is_dropped(self, tmp_path, threshold):
        series = [("run", {"snr_db": [1.0, 2.0], "ber": [0.1, 0.01]})]
        spec = {"x": "snr_db", "y": "ber", "logy": True}
        plain = svgplot.emit_svg(series, spec, tmp_path / "plain.svg")
        dropped = svgplot.emit_svg(series, {**spec, "threshold": threshold}, tmp_path / "t.svg")
        assert dropped.read_bytes() == plain.read_bytes()

    def test_one_series_labels_each_y_column(self, tmp_path):
        series = [("run", {"snr_db": [1.0, 2.0], "ber": [0.1, 0.01], "ser": [0.3, 0.04]})]
        spec = {"x": "snr_db", "y": ["ber", "ser"], "ylabel": "error rate"}
        svg = svgplot.emit_svg(series, spec, tmp_path / "two.svg")
        texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("ber") == texts.count("ser") == 1  # the curve labels
        assert "run" not in texts

    def test_run_svg_equals_plot_of_written_csvs(self, tmp_path):
        spec = {"x": "snr_db", "y": "ber", "logy": True, "kp4_line": True,
                "xlabel": "Es/N0 (dB)", "ylabel": "BER"}
        run_scenario(BER_CFG, output_dir=str(tmp_path / "run"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec, "title": "mini"}))
        out = tmp_path / "verb.svg"
        csv = tmp_path / "run" / "mini.csv"
        assert main(["plot", str(csv), str(spec_path), "-o", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "run" / "mini.svg").read_bytes()

        cfg = preset_config("ber_mismatch_16qam")
        cfg["run"]["snr_grid_db"] = {"start": 14.0, "stop": 22.0, "step": 2.0}
        result = run_scenario(cfg, output_dir=str(tmp_path / "sweep"))
        csvs = [f for f in result.files if f.suffix == ".csv"]
        svg = plot_csvs(csvs, {**spec, "title": "ber_mismatch_16qam"}, tmp_path / "sweep.svg")
        assert svg.read_bytes() == (tmp_path / "sweep" / "ber_mismatch_16qam.svg").read_bytes()

    def test_swept_run_reads_back_no_file(self, tmp_path, monkeypatch):
        outdir = tmp_path / "out"

        def refuse(*args, **kwargs):
            raise AssertionError("run_scenario read a file back")

        read_text = Path.read_text

        def read_text_outside(path, *args, **kwargs):
            if outdir in Path(path).resolve().parents:
                refuse()
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(svgplot, "read_csv", refuse)
        monkeypatch.setattr(reports, "read_csv", refuse)
        monkeypatch.setattr(Path, "read_text", read_text_outside)
        cfg = preset_config("ber_offset_4qam")
        cfg["run"]["snr_grid_db"] = {"start": 4.0, "stop": 12.0, "step": 2.0}
        result = run_scenario(cfg, output_dir=str(outdir))
        assert sorted(f.suffix for f in result.files) == [".csv"] * 4 + [".svg"]

    def test_markup_in_label_is_escaped(self, tmp_path):
        cfg = json.loads(json.dumps(BER_CFG))
        cfg["run"]["label"] = "a<b & c"
        run_scenario(cfg, output_dir=str(tmp_path))
        root = ET.parse(tmp_path / "a<b & c.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("a<b & c") == 2  # the title and the curve label

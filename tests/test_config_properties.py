"""Property test: a preset with a few bad values never ends in a traceback.

Every bundled preset is mutated at 1-3 schema keys with values drawn from a
fixed menu of bad inputs, then run through the CLI.  The exit code must be
one of the documented ones (0 success, 2 config error, 3 non-convergence);
any escaping exception fails the test.  The menu holds no large magnitudes,
so no example can ask for a long run, a huge grid or many symbols.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqamcpr.cli import main
from oqamcpr.config import SCHEMA
from oqamcpr.presets import PRESETS, preset_config

DESCENDING_GRID = {"start": 8.0, "stop": 4.0, "step": 1.0}
BAD_VALUES = [0, -1, "a", True, None, math.nan, [], {}, [8.0, 4.0], DESCENDING_GRID]

# Uniform over (section, key) pairs, so the many run keys are not
# under-drawn next to the one-key sections.
KEYS = [(section, key) for section in sorted(SCHEMA) for key in sorted(SCHEMA[section])]
MUTATIONS = st.tuples(st.sampled_from(KEYS), st.sampled_from(BAD_VALUES))


def _short_preset(name: str) -> dict:
    cfg = preset_config(name)
    if cfg["run"]["mode"] == "lock":
        cfg["run"]["duration_s"] = 2e-5
    return cfg


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
# Pinned: inputs that once ended in a traceback (a descending grid failed
# in the BER sweep, a negative seed in the random-number generator).
@example(name="ber_linewidth_4qam", mutations=[(("run", "snr_grid_db"), DESCENDING_GRID)])
@example(name="lock_transient_4qam", mutations=[(("run", "seed"), -1)])
@given(
    name=st.sampled_from(sorted(PRESETS)),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
)
def test_mutated_preset_exits_with_documented_code(name, mutations):
    cfg = _short_preset(name)
    for (section, key), value in mutations:
        cfg.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(cfg, indent=1))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", str(path), "-o", str(Path(tmp) / "out")])
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()

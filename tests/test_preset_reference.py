"""Every output of the nine non-lock presets against a committed reference.

Each preset runs through ``run_scenario``, and every file it writes (CSV,
SVG and manifest) must match ``preset_reference.json``.  The comparison rule
is byte identity: the reference holds the SHA-256 digest of each file's
bytes, so a CSV number that moves in its last digit fails the test.  The
error-rate digits come from scipy's ``erfc``, so a scipy build that rounds
it differently fails here too; the reference was written with numpy 2.4.6
and scipy 1.17.1.

The two lock presets stay out.  A clean lock run's CSV depends in its last
bits on OpenBLAS's row blocking in the chunk matmul of ``cpr``, the two take
about 3 s together, and criterion 3 of ``test_acceptance`` already checks
the transient.

A change that moves a preset output on purpose re-pins the reference in the
same commit by running this file as a script:

    PYTHONPATH=src python tests/test_preset_reference.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from oqamcpr.cli import run_scenario
from oqamcpr.presets import PRESETS, preset_config

REFERENCE = Path(__file__).with_name("preset_reference.json")
NON_LOCK = sorted(name for name in PRESETS if preset_config(name)["run"]["mode"] != "lock")


def digests(name: str) -> dict[str, str]:
    """SHA-256 of each file one run of the preset writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_scenario(name, output_dir=tmp)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(result.files + [result.manifest])}


def test_reference_lists_every_non_lock_preset():
    assert sorted(json.loads(REFERENCE.read_text())) == NON_LOCK


@pytest.mark.parametrize("name", NON_LOCK)
def test_preset_outputs_match_the_reference(name):
    assert digests(name) == json.loads(REFERENCE.read_text())[name]


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps({name: digests(name) for name in NON_LOCK}, indent=1) + "\n")

"""Every output of the 11 presets against a committed reference.

Each preset runs through ``run_scenario``, and every file it writes (CSV,
SVG and manifest) must match ``preset_reference.json``.  The comparison rule
is byte identity: the reference holds the SHA-256 digest of each file's
bytes, so a CSV number that moves in its last digit fails the test.

The last digits rest on the numeric libraries.  The error-rate digits come
from scipy's ``erfc``, so a scipy build that rounds it differently fails
here.  The lock presets' CSVs come from the chunk matmul in ``cpr``, which
OpenBLAS rounds with its row blocking, and so with ``cpr.CHUNK_SAMPLES``;
another BLAS build or chunk size fails here too.  The reference was written
with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (scipy-openblas64).

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
from oqamcpr.presets import PRESETS

REFERENCE = Path(__file__).with_name("preset_reference.json")


def digests(name: str) -> dict[str, str]:
    """SHA-256 of each file one run of the preset writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_scenario(name, output_dir=tmp)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(result.files + [result.manifest])}


def test_reference_lists_every_preset():
    assert sorted(json.loads(REFERENCE.read_text())) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_outputs_match_the_reference(name):
    assert digests(name) == json.loads(REFERENCE.read_text())[name]


if __name__ == "__main__":
    reference = {name: digests(name) for name in sorted(PRESETS)}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")

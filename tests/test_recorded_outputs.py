"""The pipeline's outputs are those recorded in ``outputs_manifest.json``.

On the environment the manifest was recorded in (the numpy version,
numpy's OpenBLAS configuration string and its thread count), every file
must match its recorded sha256.  On any other environment the kernels
round otherwise, so every number must lie within ``RTOL`` times its file's
largest recorded magnitude of its recorded value, and the text without its
numbers must match.  Either way the test prints which comparison ran and
each file's largest relative move (run pytest with ``-s`` to see them).
``record_outputs.py`` rewrites the manifest.
"""

import copy
import os

import numpy as np
import pytest

import record_outputs

# Four other OpenBLAS set-ups (the Haswell, Sandybridge and Nehalem kernels,
# and one thread) moved no number by more than 3e-10 of its file's largest.
RTOL = 1e-6


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The cases run afresh: ``(their output directory, their manifest)``."""
    root = str(tmp_path_factory.mktemp("outputs"))
    return root, record_outputs.record(root)


def test_outputs_match_the_manifest(fresh):
    manifest = record_outputs.load()
    current = fresh[1]
    if manifest["environment"] == current["environment"]:
        rtol = None
        print("exact comparison: sha256 of every file, on the recorded environment")
    else:
        rtol = RTOL
        print(f"relative comparison within {RTOL:g} of each file's largest number: the "
              f"environment {current['environment']} is not the recorded {manifest['environment']}")
    lines, differ = record_outputs.compare(manifest, current, rtol)
    print("\n".join(lines))
    assert not differ, f"outputs differ from the manifest: {', '.join(differ)}"


def _nudged(root, current, change):
    """The fresh cases' manifest with the first p_hat of the reference run's
    ``spectrum.csv`` set to ``change(p_hat)``, as its text gives it."""
    with open(os.path.join(root, "reference", "spectrum.csv"), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[1].split(",")
    fields[-1] = f"{change(float(fields[-1])):.17g}"
    lines[1] = ",".join(fields)
    nudged = copy.deepcopy(current)
    nudged["runs"]["reference"]["files"]["spectrum.csv"] = record_outputs.describe("\n".join(lines))
    return nudged


def test_one_ulp_fails_the_exact_comparison_and_names_the_file(fresh):
    root, current = fresh
    nudged = _nudged(root, current, lambda p: np.nextafter(p, np.inf))
    lines, differ = record_outputs.compare(current, nudged)
    assert differ == ["reference/spectrum.csv"]
    assert "reference/spectrum.csv: DIFFERS" in "\n".join(lines)
    # the relative comparison of other environments lets one ulp through, and not ten times its bound
    assert record_outputs.compare(current, nudged, RTOL)[1] == []
    scale = max(map(abs, current["runs"]["reference"]["files"]["spectrum.csv"]["numbers"]))
    moved = _nudged(root, current, lambda p: p + 10 * RTOL * scale)
    assert record_outputs.compare(current, moved, RTOL)[1] == ["reference/spectrum.csv"]

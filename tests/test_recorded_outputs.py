"""The pipeline's outputs are those recorded in ``outputs_manifest.json``.

On the environment the manifest was recorded in (the numpy version,
numpy's OpenBLAS configuration string and its thread count), every file
must match its recorded sha256.  On any other environment the kernels
round otherwise, so every number must lie within ``ATOL`` plus ``RTOL``
times the largest recorded magnitude of its CSV column or JSON key of its
recorded value, and the text without its numbers must match.  Either way
the test prints which comparison ran and each file's largest relative move
(run pytest with ``-s`` to see them).
``record_outputs.py`` rewrites the manifest.
"""

import copy
import json
import os

import numpy as np
import pytest

import record_outputs

# Four other OpenBLAS set-ups (the Haswell, Sandybridge and Nehalem kernels,
# and one thread) moved every number by at most 6e-8 of its column's largest,
# except the second gain of vertex_large's trace (up to 5.1e-6 of the largest
# gain) and numbers that hold rounding error only: the check's error
# statistics, and a population run's NMSE and residual, all below 3e-12 and
# moved by up to 3.4 times their size.  That second gain is ill-conditioned,
# not badly computed: its round's regularized Gram matrix is eps I (eps =
# 4.9e9) plus one row of squared norm 1.4e23, condition 3.0e13.  Moving each
# entry of that matrix by one ulp moves the gain, recomputed to 60 digits, by
# up to 7.6e-6 relative and the greedy gain by up to 1.5e-5, and moving the
# vertex diagonal rows by one ulp moves the greedy gain by up to 8.1e-6 (20
# draws each; the other 19 gains by at most 1.9e-7, and no order changed).  On
# the same inputs the block path's gain lies within 6.9e-6 of the 60-digit
# gain (2.3e-6 unmoved), inside that band: the objective's conditioning at the
# default epsilon sets these digits, not cancellation in the block gain path.
RTOL = 8e-6
ATOL = 1e-11


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
        print(f"relative comparison within {ATOL:g} plus {RTOL:g} of each column's largest "
              f"number: the environment {current['environment']} is not the recorded "
              f"{manifest['environment']}")
    lines, differ = record_outputs.compare(manifest, current, rtol, ATOL)
    print("\n".join(lines))
    assert not differ, f"outputs differ from the manifest: {', '.join(differ)}"


def _changed(root, current, file, change):
    """The fresh cases' manifest with the reference run's ``file`` replaced
    by ``change(its text)``."""
    with open(os.path.join(root, "reference", file), encoding="utf-8") as fh:
        text = change(fh.read())
    changed = copy.deepcopy(current)
    changed["runs"]["reference"]["files"][file] = record_outputs.describe(file, text)
    return changed


def _nudged(root, current, change):
    """The fresh cases' manifest with the first p_hat of the reference run's
    ``spectrum.csv`` set to ``change(p_hat)``, as its text gives it."""

    def nudge(text):
        lines = text.split("\n")
        fields = lines[1].split(",")
        fields[-1] = f"{change(float(fields[-1])):.17g}"
        lines[1] = ",".join(fields)
        return "\n".join(lines)

    return _changed(root, current, "spectrum.csv", nudge)


def test_one_ulp_fails_the_exact_comparison_and_names_the_file(fresh):
    root, current = fresh
    nudged = _nudged(root, current, lambda p: np.nextafter(p, np.inf))
    lines, differ = record_outputs.compare(current, nudged)
    assert differ == ["reference/spectrum.csv"]
    assert "reference/spectrum.csv: DIFFERS" in "\n".join(lines)
    # the relative comparison of other environments lets one ulp through, and not ten times its bound
    assert record_outputs.compare(current, nudged, RTOL, ATOL)[1] == []
    scale = max(map(abs, current["runs"]["reference"]["files"]["spectrum.csv"]["numbers"]["p_hat"]))
    moved = _nudged(root, current, lambda p: p + 10 * RTOL * scale)
    assert record_outputs.compare(current, moved, RTOL, ATOL)[1] == ["reference/spectrum.csv"]


def test_gain_moved_by_1e_5_fails_the_relative_comparison(fresh):
    """The largest gain of the reference run, moved by 1e-5 of itself, is
    held to ``RTOL`` of the largest gain.  A bound of 1e-6 of the file's
    largest number (``final_value``, about 11 times the largest gain) would
    let the move through."""
    root, current = fresh

    def move_largest_gain(text):
        trace = json.loads(text)
        gains = trace["gains"]
        i = int(np.argmax(np.abs(gains)))
        gains[i] *= 1 + 1e-5
        return json.dumps(trace, indent=2, sort_keys=True) + "\n"

    moved = _changed(root, current, "trace.json", move_largest_gain)
    numbers = moved["runs"]["reference"]["files"]["trace.json"]["numbers"]
    assert 1e-5 * max(map(abs, numbers["gains"])) < 1e-6 * max(map(abs, sum(numbers.values(), [])))
    files = (current, moved)
    _, scaled = record_outputs.moves(*(m["runs"]["reference"]["files"]["trace.json"] for m in files))
    assert scaled == pytest.approx(1e-5)
    lines, differ = record_outputs.compare(current, moved, RTOL, ATOL)
    assert differ == ["reference/trace.json"]
    assert "reference/trace.json: DIFFERS" in "\n".join(lines)

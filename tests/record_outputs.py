"""The recorded outputs of the pipeline: run the cases, and rewrite the manifest.

``outputs_manifest.json`` holds, for every file that the CLI runs of
:data:`CASES` write, its sha256, the sha256 of its text with every number
taken out, and its numbers, by CSV column or JSON key.  It also holds the
environment the bytes came from: the numpy version, numpy's OpenBLAS
configuration string (the kernel it chose at run time included) and its
thread count.
``test_recorded_outputs.py`` runs the same cases and compares.  A change
that moves output bytes on purpose rewrites the manifest in the same commit,
and says which files moved and by how much::

    PYTHONPATH=src python tests/record_outputs.py
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from graphpsd import cli

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "outputs_manifest.json")

# the vertex_large benchmark's call on its first pool graph, golden.json["vertex_large"]["pool"][0]
VERTEX_LARGE = {
    "graph": {"n": 800, "k_neighbors": 6, "seed": 1000},
    "domain": "vertex", "k": 20, "q": 13, "n_snapshots": 1000, "seed": 1000,
}
POPULATION_VERTEX = {"domain": "vertex", "k": 10, "use_population_covariance": True}
# the estimate_large benchmark's call on its first pool graph, golden.json["estimate_large"]["pool"][0]
ESTIMATE_LARGE = {
    "graph": {"n": 600, "k_neighbors": 6, "seed": 2000},
    "domain": "spectral", "k": 100, "sampler": "random", "n_snapshots": 1000, "seed": 2000,
}

# name -> (CLI arguments, config written to a file and passed by --config, or None);
# each run writes into its own directory, given by --out
CASES = {
    "reference": (["run"], None),
    "vertex_large": (["run"], VERTEX_LARGE),
    "estimate_large": (["run"], ESTIMATE_LARGE),
    "population_vertex": (["run"], POPULATION_VERTEX),
    "check": (["check", "--seed", "0"], None),
    "sweep": (["sweep", "--n", "100", "--k-list", "14,20", "--seeds", "3"], None),
}

# a decimal number as the outputs write one: JSON, CSV and .dat files, repr and %.17g
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bNaN\b|-?\bInfinity\b|\bnan\b|-?\binf\b")


def environment():
    """What output bytes depend on besides the code: numpy and its BLAS at run time.

    The BLAS entries come from the OpenBLAS a numpy wheel bundles in
    ``numpy.libs``; they are None for any other BLAS.
    """
    config = threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    if paths:
        lib = ctypes.CDLL(paths[0])
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_config is not None and get_threads is not None:
            get_config.restype = ctypes.c_char_p
            config, threads = get_config().decode(), get_threads()
    return {"numpy": np.__version__, "openblas": config, "blas_threads": threads}


def columns(name, text):
    """The numbers of file ``name``, as ``{column: [numbers]}`` in the order of the text.

    A JSON file's column is the key path of the number (``a.b`` for key
    ``b`` of object ``a``; list positions are left out).  A CSV or ``.dat``
    file's column is the field's name in the header, or the field's
    position when the file has no header.
    """
    found = {}

    def add(key, tokens):
        if tokens:
            found.setdefault(key, []).extend(map(float, tokens))

    if name.endswith(".json"):
        def walk(value, key):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(value, list):
                for v in value:
                    walk(v, key)
            elif isinstance(value, str):
                add(key, NUMBER.findall(value))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                add(key, [value])

        walk(json.loads(text), "")
        return found
    split = (lambda line: line.split(",")) if name.endswith(".csv") else str.split
    lines = text.splitlines()
    header = split(lines[0]) if lines and not NUMBER.search(lines[0]) else None
    for line in lines[1:] if header else lines:
        for i, field in enumerate(split(line)):
            add(header[i] if header else str(i), NUMBER.findall(field))
    return found


def describe(name, text):
    """File ``name``'s sha256, the sha256 of its text without its numbers,
    and its numbers by column (see :func:`columns`)."""
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "text_sha256": hashlib.sha256(NUMBER.sub("#", text).encode()).hexdigest(),
        "numbers": columns(name, text),
    }


def run_case(name, root):
    """Run case ``name`` by ``cli.main`` in a directory under ``root``.

    Returns ``(exit code, {file name: text})`` of every file the run wrote.
    """
    argv, config = CASES[name]
    out = os.path.join(root, name)
    argv = [*argv, "--out", out]
    if config is not None:
        path = os.path.join(root, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv += ["--config", path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    texts = {}
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), encoding="utf-8") as fh:
            texts[file] = fh.read()
    return code, texts


def record(root):
    """The manifest of the cases run under ``root``."""
    runs = {}
    for name, (argv, config) in CASES.items():
        code, texts = run_case(name, root)
        files = {file: describe(file, text) for file, text in texts.items()}
        runs[name] = {"argv": argv, "config": config, "exit_code": code, "files": files}
    return {"environment": environment(), "runs": runs}


def dumps(manifest):
    """The manifest as JSON, each list on one line, so a diff names the files that moved."""
    text = json.dumps(manifest, indent=1, sort_keys=True)
    return re.sub(r"\[([^\[\]{}]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def load():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def moves(recorded, fresh, atol=0.0):
    """How far a file's numbers moved: ``(largest relative move, largest scaled move)``.

    A number's relative move is ``|a - b| / max(|a|, |b|)``; its scaled
    move divides the part of ``|a - b|`` beyond ``atol`` by the largest
    recorded magnitude of its column instead.  Both are inf when the files
    differ in anything but the values of their numbers.
    """
    old, new = recorded["numbers"], fresh["numbers"]
    if recorded["text_sha256"] != fresh["text_sha256"] or set(old) != set(new) \
            or any(len(old[c]) != len(new[c]) for c in old):
        return math.inf, math.inf
    relative = scaled = 0.0
    for column in old:
        a, b = np.array(old[column], dtype=float), np.array(new[column], dtype=float)
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        with np.errstate(invalid="ignore"):
            diff = np.where(same, 0.0, np.abs(a - b))
        diff[np.isnan(diff)] = math.inf
        moved = diff > 0.0
        if not moved.any():
            continue
        with np.errstate(invalid="ignore"):
            rel = diff[moved] / np.maximum(np.abs(a[moved]), np.abs(b[moved]))
        beyond = max(float(diff.max()) - atol, 0.0)
        scale = np.abs(a[np.isfinite(a)]).max(initial=0.0)
        relative = max(relative, float(np.nan_to_num(rel, nan=math.inf).max()))
        scaled = max(scaled, beyond / scale if scale else math.inf if beyond else 0.0)
    return relative, scaled


def compare(recorded, fresh, rtol=None, atol=0.0):
    """Compare the runs of two manifests: ``(report lines, names of the files that differ)``.

    With ``rtol`` None a file differs unless its sha256 matches.  Otherwise
    it differs unless its text without numbers matches and every number
    lies within ``atol`` plus ``rtol`` times its column's largest recorded
    magnitude of its recorded value.  A run differs whole when its
    arguments, config, exit code or set of files do.  Each line names a
    file and how far its numbers moved (see :func:`moves`).
    """
    lines, differ = [], []
    for run in sorted(set(recorded["runs"]) | set(fresh["runs"])):
        old, new = recorded["runs"].get(run), fresh["runs"].get(run)
        what = ("argv", "config", "exit_code")
        if old is None or new is None or [old[k] for k in what] != [new[k] for k in what] \
                or set(old["files"]) != set(new["files"]):
            lines.append(f"{run}: the run itself differs (arguments, config, exit code or files)")
            differ.append(run)
            continue
        for file in sorted(old["files"]):
            before, after = old["files"][file], new["files"][file]
            exact = rtol is None
            relative, scaled = moves(before, after, 0.0 if exact else atol)
            ok = before["sha256"] == after["sha256"] if exact else scaled <= rtol
            beyond = "" if exact or not atol else f" beyond {atol:g}"
            lines.append(f"{run}/{file}: {'ok' if ok else 'DIFFERS'}, largest relative move "
                         f"{relative:.3g}, {scaled:.3g} of its column's largest number{beyond}")
            if not ok:
                differ.append(f"{run}/{file}")
    return lines, differ


def main():
    previous = load() if os.path.exists(MANIFEST) else None
    with tempfile.TemporaryDirectory() as root:
        manifest = record(root)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(dumps(manifest))
    print(f"wrote {MANIFEST}, environment {manifest['environment']}")
    if previous is not None:
        lines, differ = compare(previous, manifest)
        print("\n".join(lines))
        print(f"{len(differ)} files moved: {', '.join(differ) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

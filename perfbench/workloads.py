"""The benchmark's workloads: the calls each one makes and what they return.

Every call goes through the package's public entry points, looked up on
their modules at call time so that a traced run sees them patched:
``experiments.run_experiment`` for ``reference`` and ``estimate_large``,
``cli.main(["run", "--config", ...])`` for ``vertex_large``.  Inputs come
from the workload seed and the call's index only.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from graphpsd import cli, experiments

K_NEIGHBORS = 6
N_SNAPSHOTS = 1000
# the warm-up call runs every stage at full N but greedy-selects only this many vertices
WARMUP_K = 2
WARMUP_INDEX = 999
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@functools.cache
def golden():
    """Recorded inputs and outputs of the package's original version (see ``golden.py``)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    n: int
    k: int
    sampler: str = "greedy"
    q: int | None = None
    graph_seed: int | None = None  # one graph for every call; None: a fresh graph per call
    # a fresh graph's seed, also its snapshot and sampler seed, comes from golden.json's pool
    candidates: tuple = ()  # graph seeds golden.py considers for the pool
    via_cli: bool = False
    writes: bool = False

    def pool(self):
        return tuple(golden()[self.name]["pool"]) if self.candidates else ()

    def max_calls(self):
        return len(self.pool()) or None

    def seeds_for(self, seed, index):
        """(graph seed, snapshot and sampler seed) of call ``index``."""
        if self.graph_seed is not None:
            return self.graph_seed, seed * 1000 + index
        if index == WARMUP_INDEX:
            return 10**6 - 1, seed * 1000 + index
        pool = self.pool()
        graph_seed = pool[(seed * 17 + index) % len(pool)]
        return graph_seed, graph_seed

    def config_dict(self, seed, index, out_dir=None, k=None):
        graph_seed, call_seed = self.seeds_for(seed, index)
        return {
            "graph": {"n": self.n, "k_neighbors": K_NEIGHBORS, "seed": graph_seed},
            "domain": self.domain,
            "k": self.k if k is None else k,
            "q": self.q,
            "sampler": self.sampler,
            "n_snapshots": N_SNAPSHOTS,
            "seed": call_seed,
            "output_dir": out_dir,
        }

    def prepare(self, seed, index, out_dir, k=None):
        """Write the call's inputs and return ``(config, call, collect)``.

        ``call()`` is the timed part; ``collect(call())`` reads its outputs.
        """
        data = self.config_dict(seed, index, out_dir if (self.writes or self.via_cli) else None, k)
        cfg = experiments.ExperimentConfig.from_dict(data)
        if self.via_cli:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            argv = ["run", "--config", path]

            def call():
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    return cli.main(argv)

            return cfg, call, lambda code: CallOutputs.from_files(cfg, code)
        return cfg, lambda: experiments.run_experiment(cfg), CallOutputs.from_result


@dataclass
class CallOutputs:
    """What one call produced, read from its returned result or written files."""

    selected: tuple
    chosen: tuple | None
    gains: tuple | None
    final_value: float | None
    p_true: np.ndarray
    p_hat: np.ndarray
    nmse: float
    rank_ok: bool
    files: dict  # deterministic output file name -> bytes

    @classmethod
    def from_result(cls, result):
        trace = result.trace
        return cls(
            selected=result.pattern.selected,
            chosen=trace.chosen if trace else None,
            gains=trace.gains if trace else None,
            final_value=trace.final_value if trace else None,
            p_true=result.p_true,
            p_hat=result.p_hat,
            nmse=result.nmse,
            rank_ok=bool(result.estimate.rank_ok),
            files=_read_outputs(result.config.output_dir),
        )

    @classmethod
    def from_files(cls, cfg, exit_code):
        if exit_code != 0:
            raise RuntimeError(f"graphpsd run exited with code {exit_code}")
        out = cfg.output_dir
        files = _read_outputs(out)
        table = np.loadtxt(os.path.join(out, experiments.SPECTRUM_CSV), delimiter=",", skiprows=1, ndmin=2)
        metrics = json.loads(files[experiments.METRICS_JSON])
        pattern = json.loads(files[experiments.PATTERN_JSON])
        trace = json.loads(files[experiments.TRACE_JSON]) if experiments.TRACE_JSON in files else None
        return cls(
            selected=tuple(pattern["selected"]),
            chosen=tuple(trace["chosen"]) if trace else None,
            gains=tuple(trace["gains"]) if trace else None,
            final_value=trace["final_value"] if trace else None,
            p_true=table[:, 2],
            p_hat=table[:, 3],
            nmse=float(metrics["nmse"]),
            rank_ok=bool(metrics["rank_ok"]),
            files=files,
        )

    def fingerprint(self):
        """Bytes that must not change when the call is traced."""
        parts = [repr((self.selected, self.chosen, self.gains, self.final_value, self.nmse, self.rank_ok))]
        parts += [self.p_true.tobytes().hex(), self.p_hat.tobytes().hex()]
        parts += [f"{name}:{data.hex()}" for name, data in sorted(self.files.items())]
        return "\n".join(parts)


def _read_outputs(out_dir):
    files = {}
    if out_dir is None:
        return files
    for name in experiments.DETERMINISTIC_OUTPUTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


REFERENCE = Workload(name="reference", domain="spectral", n=100, k=50, graph_seed=1, writes=True)
VERTEX_LARGE = Workload(
    name="vertex_large", domain="vertex", n=800, k=20, q=13, candidates=tuple(range(1000, 1128)), via_cli=True
)
ESTIMATE_LARGE = Workload(
    name="estimate_large", domain="spectral", n=600, k=100, sampler="random", candidates=tuple(range(2000, 2160))
)

WORKLOADS = {w.name: w for w in (REFERENCE, VERTEX_LARGE, ESTIMATE_LARGE)}

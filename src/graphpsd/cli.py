"""Command-line interface for the experiment pipeline.

Verbs: ``gen-graph``, ``design``, ``run``, ``sweep``, ``check``;
``run --pattern`` estimates from a pattern file that ``design`` wrote.
Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures (including property-suite failures from ``check``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import experiments as exp
from . import graphs as graphs_mod
from .errors import ConfigError, GraphPSDError


def _add_override_flags(parser):
    parser.add_argument("--config", help="JSON config file (defaults are used otherwise)")
    parser.add_argument("--n", type=int, help="number of vertices for the generated graph")
    parser.add_argument("--k", type=int, help="sample budget K")
    parser.add_argument("--q", type=int, help="vertex-domain polynomial order Q")
    parser.add_argument("--snapshots", type=int, dest="n_snapshots", help="number of snapshots N_s")
    parser.add_argument("--domain", choices=["spectral", "vertex"])
    parser.add_argument("--sampler", choices=["greedy", "random", "file"])
    parser.add_argument("--seed", type=int, help="seed for snapshots and the random sampler")
    parser.add_argument("--out", dest="output_dir", help="output directory")


# config fields that an override flag of the same dest replaces
_OVERRIDDEN = ("k", "q", "n_snapshots", "domain", "sampler", "seed", "output_dir")


def _config_from_args(args, **fixed):
    """The config file's (or the default) config with the flags and ``fixed`` applied."""
    cfg = exp.load_config(args.config) if args.config else exp.ExperimentConfig()
    updates = {name: getattr(args, name) for name in _OVERRIDDEN if getattr(args, name) is not None}
    if args.n is not None:
        updates["graph"] = dataclasses.replace(cfg.graph, n=args.n, path=None)
    if getattr(args, "pattern", None) is not None:
        updates["pattern_path"] = args.pattern
        updates["sampler"] = "file"
    return dataclasses.replace(cfg, **{**updates, **fixed})


def _cmd_gen_graph(args):
    if args.n < 2 or not (1 <= args.k_neighbors < args.n):
        raise ConfigError("need n >= 2 and 1 <= k-neighbors < n")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    graph = graphs_mod.random_sensor_graph(args.n, args.k_neighbors, args.seed)
    try:
        graphs_mod.save_graph(graph, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}: {graph.n_vertices} vertices, {graph.n_edges} edges")
    return 0


def _cmd_run(args):
    cfg = _config_from_args(args)
    if cfg.output_dir is None:
        raise ConfigError("run needs an output directory (--out or output_dir)")
    result = exp.run_experiment(cfg)
    print(
        f"domain={cfg.domain} k={result.pattern.k} rank_ok={result.estimate.rank_ok} "
        f"nmse={result.nmse:.6g}"
    )
    for stage, seconds in result.runtimes.items():
        print(f"  {stage}: {seconds:.3f}s", file=sys.stderr)
    return 0


def _cmd_design(args):
    cfg = _config_from_args(args)
    if cfg.output_dir is None:
        raise ConfigError("design needs an output directory (--out or output_dir)")
    if cfg.sampler == "file":
        raise ConfigError("design supports greedy or random samplers")
    pattern, trace = exp.prepare(cfg).design()
    os.makedirs(cfg.output_dir, exist_ok=True)
    exp._write_design(cfg.output_dir, pattern, trace)
    print(f"designed pattern of {pattern.k} vertices -> {cfg.output_dir}")
    return 0


def _cmd_sweep(args):
    try:
        k_list = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --k-list: {exc}") from exc
    if not k_list:
        raise ConfigError("no budgets given")
    # the sweep designs greedily at its largest budget, whatever --k and --sampler say
    cfg = _config_from_args(args, k=max(k_list), sampler="greedy", pattern_path=None)
    out_dir = cfg.output_dir
    if out_dir is None:
        raise ConfigError("sweep needs an output directory (--out or output_dir)")
    rows = exp.compression_sweep(cfg, k_list, args.seeds, out_dir=out_dir)
    for row in rows:
        print(
            f"k={row['k']} sampler={row['sampler']} mean_nmse={row['mean_nmse']:.6g} "
            f"rank_ok_fraction={row['rank_ok_fraction']:.2f}"
        )
    return 0


def _cmd_check(args):
    # with no trial no diminishing-returns chain is sampled, and the verb would pass
    if args.trials < 1:
        raise ConfigError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    report = exp.run_property_suites(seed=args.seed, trials=args.trials)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        exp._write_json(f"{args.out}/check.json", report)
    for name, section in report.items():
        if isinstance(section, dict):
            print(f"{'PASS' if section['ok'] else 'FAIL'} {name}")
    return 0 if report["ok"] else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphpsd",
        description="Estimate graph power spectra from designed vertex subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a random sensor graph file")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k-neighbors", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="edge-list file to write")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("design", help="design a sampling pattern")
    _add_override_flags(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("run", help="run the full pipeline")
    _add_override_flags(p)
    p.add_argument("--pattern", help="pattern.json to estimate from, in place of a design")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="compare samplers across sample budgets")
    _add_override_flags(p)
    p.add_argument("--k-list", required=True, help="comma-separated K values")
    p.add_argument("--seeds", type=int, default=5, help="seeds per cell")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run the structural property suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for check.json")
    p.set_defaults(func=_cmd_check)

    return parser


# one parser per process: every in-process call of main shares it
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GraphPSDError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline runs, rank scans, sweeps, and deterministic outputs."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import graphpsd
from graphpsd import (
    ConfigError,
    ExperimentConfig,
    FilterSpec,
    GraphSpec,
    SamplingPattern,
    compression_sweep,
    load_pattern,
    prepare,
    rank_threshold_scan,
    run_experiment,
    run_property_suites,
    save_pattern,
)
from graphpsd import graphs as graphs_mod
from graphpsd import sampling as sampling_mod
from graphpsd import spectral as spectral_mod
from graphpsd.experiments import DETERMINISTIC_OUTPUTS

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def small_cfg(**overrides):
    base = dict(
        graph=GraphSpec(n=30, k_neighbors=5, seed=2),
        k=12,
        n_snapshots=400,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's keyword arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_bad_domain_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(domain="fourier").validate()

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(k=31).validate()

    def test_file_sampler_needs_pattern(self):
        with pytest.raises(ConfigError):
            small_cfg(sampler="file").validate()

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"graph": {"n": 5}, "k": 3}, "k_neighbors"),
            ({"graph": {"n": 30, "k_neighbors": 0}, "k": 10}, "k_neighbors"),
            ({"filter": {"length": 0}}, "filter.length"),
            ({"shift_kind": "foo"}, "shift kind"),
            ({"n_snapshots": 2.5}, "n_snapshots must be an integer"),
            ({"k": 10.0}, "k must be an integer"),
            ({"q": 3.5, "domain": "vertex"}, "q must be an integer"),
            ({"graph": {"n": 30.0}, "k": 10}, "graph.n must be an integer"),
            ({"graph": {"k_neighbors": "6"}}, "graph.k_neighbors must be an integer"),
            ({"filter": {"length": 7.5}}, "filter.length must be an integer"),
            ({"n_snapshots": True}, "n_snapshots must be an integer"),
            ({"seed": 1.5}, "seed must be a nonnegative integer"),
            ({"seed": -3}, "seed must be a nonnegative integer"),
            ({"graph": {"seed": 1.5}}, "graph.seed must be a nonnegative integer"),
            ({"graph": {"seed": -3}}, "graph.seed must be a nonnegative integer"),
            ({"epsilon": -1}, "epsilon must be a positive number"),
            ({"epsilon": 0}, "epsilon must be a positive number"),
            ({"epsilon": "abc"}, "epsilon must be a positive number"),
            ({"filter": {"rate": "x"}}, "filter.rate must be a finite number"),
            ({"filter": {"coefficients": [1, "a"]}}, "filter.coefficients must be a non-empty"),
            ({"filter": {"coefficients": []}}, "filter.coefficients must be a non-empty"),
            ({"use_population_covariance": "no"}, "use_population_covariance must be true or false"),
        ],
    )
    def test_bad_fields_are_config_errors(self, data, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(data)

    def test_generator_fields_unchecked_for_graph_files(self, tmp_path):
        """``graph.n`` and ``graph.k_neighbors`` describe the generator only,
        and explicit coefficients make ``filter.length`` unused."""
        cfg = ExperimentConfig.from_dict({
            "graph": {"path": str(tmp_path / "g.txt"), "n": 5, "k_neighbors": 9},
            "filter": {"coefficients": [1.0, 0.5], "length": 0},
            "k": 3,
        })
        assert cfg.graph.k_neighbors == 9

    def test_round_trip_through_dict(self):
        cfg = small_cfg(domain="vertex", q=9)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestRunExperiment:
    def test_population_covariance_recovers_exactly(self):
        """Machine-precision recovery whenever the model has full rank."""
        cfg = small_cfg(use_population_covariance=True)
        result = run_experiment(cfg)
        assert result.estimate.rank_ok
        assert result.nmse <= 1e-12

    def test_vertex_domain_run(self):
        """Q matching the filter's polynomial degree recovers exactly."""
        cfg = small_cfg(domain="vertex", q=13, k=6, use_population_covariance=True)
        result = run_experiment(cfg)
        assert result.estimate.rank_ok
        assert result.estimate.alpha_hat.shape == (13,)
        assert result.nmse <= 1e-10

    def test_vertex_domain_default_q(self):
        """With q unset the pipeline uses min(2L-1, N) from the filter length."""
        cfg = small_cfg(domain="vertex", k=6, use_population_covariance=True)
        result = run_experiment(cfg)
        assert result.estimate.alpha_hat.shape == (13,)

    def test_vertex_domain_undersized_q_leaves_model_bias(self):
        """A too-small polynomial order cannot represent the covariance exactly,
        so population-data recovery is no longer machine precision."""
        cfg = small_cfg(domain="vertex", q=9, k=6, use_population_covariance=True)
        result = run_experiment(cfg)
        assert result.estimate.rank_ok
        assert result.nmse > 1e-12

    def test_reference_vertex_run_k10_q12(self):
        """The 100-vertex vertex-domain run with K=10 and Q=12 keeps a
        full-rank model (K^2 = 100 >= 12)."""
        cfg = ExperimentConfig(
            graph=GraphSpec(n=100, k_neighbors=6, seed=1),
            domain="vertex",
            k=10,
            q=12,
            n_snapshots=1000,
            seed=0,
        )
        result = run_experiment(cfg)
        assert result.estimate.rank_ok
        assert result.pattern.k == 10
        assert result.estimate.alpha_hat.shape == (12,)

    def test_finite_sample_run_reports_positive_nmse(self):
        result = run_experiment(small_cfg())
        assert result.estimate.rank_ok
        assert 0.0 < result.nmse < 1.0

    def test_random_sampler(self):
        cfg = small_cfg(sampler="random", k=20, use_population_covariance=True)
        result = run_experiment(cfg)
        assert result.trace is None
        assert result.pattern.k == 20

    def test_outputs_written(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path / "out"))
        result = run_experiment(cfg)
        out = tmp_path / "out"
        for name in DETERMINISTIC_OUTPUTS:
            assert (out / name).exists(), name
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue,p_true,p_hat"
        assert len(lines) == 31
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rank_ok"] is True
        assert metrics["k"] == 12
        np.testing.assert_allclose(metrics["nmse"], result.nmse)
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["chosen"]) == 12

    def test_plot_data_shapes(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        out = tmp_path / "out"
        true_rows = (out / "spectrum_true.dat").read_text().splitlines()
        est_rows = (out / "spectrum_estimate.dat").read_text().splitlines()
        assert len(true_rows) == 30 and len(est_rows) == 30
        i, value = true_rows[5].split()
        assert int(i) == 5 and float(value) >= 0.0
        node_rows = (out / "nodes.dat").read_text().splitlines()
        assert len(node_rows) == 30
        marks = sum(int(r.split()[2]) for r in node_rows)
        assert marks == 12

    def test_deterministic_outputs(self, tmp_path):
        """Identical configs produce byte-identical CSV/JSON/dat outputs."""
        cfg_a = small_cfg(output_dir=str(tmp_path / "a"))
        cfg_b = small_cfg(output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in DETERMINISTIC_OUTPUTS:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_failure_record_names_stage(self, tmp_path):
        """A broken pattern file leaves a failure record behind."""
        bad_pattern = SamplingPattern(10, (0, 3))
        pattern_path = tmp_path / "pattern.json"
        save_pattern(bad_pattern, pattern_path)
        cfg = small_cfg(
            sampler="file",
            pattern_path=str(pattern_path),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(Exception):
            run_experiment(cfg)
        failure = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert failure["stage"] == "model"
        assert "error" in failure

    def test_runtimes_present_but_not_written(self, tmp_path):
        cfg = small_cfg(output_dir=str(tmp_path / "out"))
        result = run_experiment(cfg)
        assert set(result.runtimes) >= {"graph", "basis", "covariance", "design", "estimate"}
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert "runtimes" not in metrics


class TestPatternFiles:
    def test_round_trip(self, tmp_path):
        p = SamplingPattern(20, (1, 5, 19))
        path = tmp_path / "p.json"
        save_pattern(p, path)
        assert load_pattern(path) == p

    def test_bad_file_is_config_error(self, tmp_path):
        """A missing key, an entry that is not an integer, a repeated or an
        out-of-range vertex.  No entry is truncated or split, so
        ``[0.5, 3.9]`` is not vertices 0 and 3, and ``"0123"`` is not
        [0, 1, 2, 3]."""
        path = tmp_path / "p.json"
        for data in (
            {},
            {"n_vertices": 20, "selected": [0.5, 3.9, 7]},
            {"n_vertices": 20, "selected": "0123"},
            {"n_vertices": 20.0, "selected": [0, 3]},
            {"n_vertices": True, "selected": [0]},
            {"n_vertices": 20, "selected": [0, True]},
            {"n_vertices": 20, "selected": [0, 0, 5]},
            {"n_vertices": 20, "selected": [0, 45]},
        ):
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigError):
                load_pattern(path)


class TestRankThresholdScan:
    def test_full_budget_reaches_full_rank(self):
        cfg = small_cfg()
        rows = rank_threshold_scan(cfg, [30])
        assert rows == [(30, True)]

    def test_below_square_root_never_full_rank(self):
        """K^2 < N cannot give a full-rank spectral model."""
        cfg = small_cfg()
        rows = rank_threshold_scan(cfg, range(1, 6))
        assert all(ok is False for _, ok in rows)

    def test_threshold_is_monotone_here(self):
        cfg = small_cfg()
        rows = rank_threshold_scan(cfg, range(6, 15))
        flags = [ok for _, ok in rows]
        first_ok = flags.index(True)
        assert all(flags[first_ok:])
        k_star = rows[first_ok][0]
        assert k_star * k_star >= 30

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            rank_threshold_scan(small_cfg(), [])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_greedy_full_rank_at_the_information_minimum(self, seed):
        """The sampling law on sensor graphs of N=200: the greedy prefix has
        full rank from K_min = min{K : K(K+1)/2 >= N} = 20 on, and not
        before (K(K+1)/2 distinct equations cannot fix N unknowns)."""
        n = 200
        k_min = next(k for k in range(1, n + 1) if k * (k + 1) // 2 >= n)
        assert k_min == 20
        rows = rank_threshold_scan(ExperimentConfig(graph=GraphSpec(n=n, seed=seed)), range(17, 23))
        assert rows == [(k, k >= k_min) for k in range(17, 23)]


class TestOneBlas:
    def test_pipeline_never_imports_scipy_linalg(self):
        """numpy and scipy each load their own OpenBLAS, whose threads
        contend when both run, so all dense linear algebra is numpy's and
        scipy serves only ``scipy.sparse``.  A fresh interpreter is needed
        because the test modules import ``scipy.linalg`` themselves."""
        script = textwrap.dedent(
            """
            import sys
            from graphpsd import ExperimentConfig, GraphSpec, run_experiment

            for domain in ("spectral", "vertex"):
                cfg = ExperimentConfig(
                    graph=GraphSpec(n=30, k_neighbors=5, seed=2), domain=domain, k=12
                )
                assert run_experiment(cfg).estimate.rank_ok, domain
            assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
            """
        )
        src = str(pathlib.Path(graphpsd.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestSparseOnDemand:
    def test_spectral_pipeline_never_imports_scipy_sparse(self, tmp_path):
        """Only the vertex domain's products with the shift use
        ``scipy.sparse``, and its import is most of the package's start-up
        time, so it loads on first use.  A module-level import of a scipy
        submodule that pulls it in brings that cost back; a fresh interpreter
        shows it, because the test modules import scipy themselves."""
        script = textwrap.dedent(
            """
            import os, sys
            from graphpsd import ExperimentConfig, GraphSpec, run_experiment
            from graphpsd.cli import main

            def loaded():
                return "scipy.sparse" in sys.modules

            out = sys.argv[1]
            graph = GraphSpec(n=30, k_neighbors=5, seed=2)
            assert not loaded(), "import graphpsd"
            for sampler in ("greedy", "random"):
                cfg = ExperimentConfig(graph=graph, k=12, n_snapshots=200, sampler=sampler)
                run_experiment(cfg)
                assert not loaded(), f"spectral {sampler} run_experiment"
            small = ["--n", "30", "--snapshots", "200"]
            pattern = os.path.join(out, "design", "pattern.json")
            verbs = [
                ["gen-graph", "--n", "30", "--out", os.path.join(out, "g.txt")],
                ["run", *small, "--k", "12", "--out", os.path.join(out, "run")],
                ["design", *small, "--k", "12", "--out", os.path.join(out, "design")],
                ["estimate", *small, "--pattern", pattern, "--out", os.path.join(out, "est")],
                ["sweep", *small, "--k-list", "12", "--seeds", "1",
                 "--out", os.path.join(out, "sweep")],
            ]
            for argv in verbs:
                assert main(argv) == 0, argv
                assert not loaded(), argv[0]
            run_experiment(ExperimentConfig(graph=graph, k=12, n_snapshots=200, domain="vertex"))
            assert loaded(), "the vertex domain did not load scipy.sparse"
            """
        )
        src = str(pathlib.Path(graphpsd.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDesignMemory:
    @pytest.mark.parametrize("domain, q, m", [("spectral", None, 300), ("vertex", 13, 13)])
    def test_greedy_never_builds_the_pair_tensor(self, domain, q, m):
        """Greedy design at N=300 peaks below a tenth of the N x N x M tensor
        of pair rows (216 MB spectral, 9.4 MB vertex at Q=13).  The setting's
        own arrays (graph, shift and its CSR view, basis) are built before
        measuring, so the first CSR view's import of scipy.sparse is not
        counted either."""
        n = 300
        setting = prepare(ExperimentConfig(graph=GraphSpec(n=n), domain=domain, q=q, k=8))
        setting.shift.sparse  # built on first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            setting.greedy(8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < n * n * m * 8 / 10


class TestObservedCovariance:
    @pytest.mark.parametrize("domain", ["spectral", "vertex"])
    def test_sample_covariance_gets_only_the_observed_rows(self, monkeypatch, domain):
        shapes = []
        original = spectral_mod.sample_covariance

        def recording(snapshots, *args, **kwargs):
            shapes.append(np.shape(snapshots))
            return original(snapshots, *args, **kwargs)

        monkeypatch.setattr(spectral_mod, "sample_covariance", recording)
        result = run_experiment(small_cfg(domain=domain, k=12))
        assert shapes == [(12, 400)]
        assert np.isfinite(result.nmse)

    def test_pattern_of_another_vertex_count_rejected(self):
        setting = prepare(small_cfg())
        with pytest.raises(ConfigError, match="for 100 vertices"):
            setting.covariance(0, SamplingPattern(100, (0, 5, 50)))

    def test_covariance_stage_builds_nothing_beyond_the_noise(self):
        """N=600, K=100, 1000 snapshots: the stage holds the 4.8 MB noise
        draw, and its K x N and K x 1000 products.  The peak stays below the
        noise plus one N x N array, so neither the N x N filter matrix nor
        N x 1000 snapshots nor an N x N covariance is built."""
        n, k, n_snapshots = 600, 100, 1000
        setting = prepare(
            ExperimentConfig(graph=GraphSpec(n=n), k=k, sampler="random", n_snapshots=n_snapshots)
        )
        pattern, _, _ = setting.design()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cov = setting.covariance(0, pattern)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cov.matrix.shape == (k, k)
        assert cov.n_snapshots == n_snapshots
        assert peak < 8 * (n * n_snapshots + n * n)


class TestVertexDomainWithoutEigenvectors:
    """The vertex pipeline runs on eigenvalues and the sparse shift alone."""

    @pytest.mark.parametrize("population, max_nmse", [(False, np.inf), (True, 1e-10)])
    def test_run_experiment_never_calls_eigh(self, monkeypatch, population, max_nmse):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh was called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfg = small_cfg(domain="vertex", k=6, use_population_covariance=population)
        result = run_experiment(cfg)
        assert result.estimate.rank_ok
        assert result.nmse < max_nmse

    @pytest.mark.parametrize("domain, eigh_calls", [("spectral", 1), ("vertex", 0)])
    def test_eigh_calls_per_prepare(self, monkeypatch, domain, eigh_calls):
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        prepare(small_cfg(domain=domain))
        assert len(calls) == eigh_calls

    def test_one_sparse_conversion_per_run(self, monkeypatch):
        """The design objective, the model and the filter rows share the
        shift's one CSR view."""
        calls = count_calls(monkeypatch, graphs_mod.scipy.sparse, "csr_array")
        run_experiment(small_cfg(domain="vertex", k=6))
        assert len(calls) == 1

    def test_population_covariance_is_the_principal_submatrix(self):
        setting = prepare(small_cfg(domain="vertex", use_population_covariance=True))
        pattern = SamplingPattern(30, (1, 4, 9, 16, 25, 29))
        cov = setting.covariance(0, pattern)
        basis = spectral_mod.eigendecompose(setting.shift)
        full = spectral_mod.true_covariance(setting.filter, basis)
        sub = sampling_mod.subsampled_covariance(full, pattern).matrix
        assert cov.n_snapshots == 0
        assert np.abs(cov.matrix - sub).max() <= 1e-12 * np.abs(sub).max()

    def test_sampled_covariance_filters_the_same_draw(self):
        """The vertex domain's snapshots are the spectral synthesis of the
        same seeded noise, to rounding."""
        setting = prepare(small_cfg(domain="vertex"))
        pattern = SamplingPattern(30, (0, 7, 8, 20, 21))
        cov = setting.covariance(11, pattern).matrix
        basis = spectral_mod.eigendecompose(setting.shift)
        reference = spectral_mod.sample_covariance(
            spectral_mod.synthesize(setting.filter, basis, 400, seed=11, vertices=pattern.selected)
        ).matrix
        assert np.abs(cov - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_benchmark_true_spectrum_matches_an_eigh_basis(self):
        """The benchmark checks each vertex_large call's true spectrum against
        one built from an ``eigh`` basis, at 1e-12; the first four graphs of
        its pool stay a decade inside that."""
        pool = json.loads(GOLDEN.read_text())["vertex_large"]["pool"][:4]
        for graph_seed in pool:
            cfg = ExperimentConfig(
                graph=GraphSpec(n=800, k_neighbors=6, seed=graph_seed), domain="vertex", k=20, q=13
            )
            setting = prepare(cfg)
            basis = spectral_mod.eigendecompose(setting.shift)
            p_true = spectral_mod.true_power_spectrum(FilterSpec().build(basis), basis)
            error = np.abs(setting.p_true - p_true).max() / np.abs(p_true).max()
            assert error <= 1e-13, graph_seed


class TestCompressionSweep:
    def test_empty_k_list_rejected(self):
        with pytest.raises(ConfigError):
            compression_sweep(small_cfg(), [], 3)

    def test_full_budget_matches_between_samplers(self):
        """At K = N both samplers observe everything and agree exactly."""
        rows = compression_sweep(small_cfg(use_population_covariance=True), [30], 2)
        by_sampler = {r["sampler"]: r for r in rows}
        assert by_sampler["greedy"]["mean_nmse"] == by_sampler["random"]["mean_nmse"]
        assert by_sampler["greedy"]["rank_ok_fraction"] == 1.0
        assert by_sampler["random"]["rank_ok_fraction"] == 1.0

    def test_csv_written(self, tmp_path):
        compression_sweep(small_cfg(), [12, 30], 2, out_dir=str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,sampler,mean_nmse,rank_ok_fraction"
        assert len(lines) == 5

    def test_random_rank_fraction_reported(self):
        """Random sampling at the threshold budget may or may not reach full
        rank; the fraction is reported, not asserted."""
        rows = compression_sweep(
            small_cfg(use_population_covariance=True), [7], 20
        )
        by_sampler = {r["sampler"]: r for r in rows}
        frac = by_sampler["random"]["rank_ok_fraction"]
        assert 0.0 <= frac <= 1.0

    def test_one_sampled_covariance_per_seed(self, monkeypatch):
        calls = count_calls(monkeypatch, spectral_mod, "white_noise")
        compression_sweep(small_cfg(seed=4), [12, 20, 30], 2)
        assert [kwargs["seed"] for kwargs in calls] == [4, 5]

    def test_one_population_covariance_in_total(self, monkeypatch):
        calls = count_calls(monkeypatch, spectral_mod, "true_covariance")
        compression_sweep(small_cfg(use_population_covariance=True), [12, 30], 3)
        assert len(calls) == 1

    def test_repeated_budget_estimated_once(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, sampling_mod, "estimate_spectrum_spectral")
        rows = compression_sweep(small_cfg(), [12, 20, 7, 12], 2, out_dir=str(tmp_path))
        assert len(calls) == 2 * 3 * 2  # seeds x distinct budgets x samplers
        assert [r["k"] for r in rows] == [12, 12, 20, 20, 7, 7, 12, 12]
        assert rows[6:] == rows[:2]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[7:] == lines[1:3]

    def test_greedy_row_matches_run_experiment(self):
        cfg = small_cfg(seed=3)
        rows = compression_sweep(cfg, [14], 1)
        greedy = next(r for r in rows if r["sampler"] == "greedy")
        assert greedy["mean_nmse"] == run_experiment(dataclasses.replace(cfg, k=14)).nmse


class TestRandomSamplerStudy:
    def test_rank_fraction_at_threshold_budget_reported(self, sensor100_basis):
        """At the smallest budget any pattern can achieve full rank (K=14 for
        N=100, since only K(K+1)/2 of the K^2 rows are distinct), the greedy
        pattern succeeds while random patterns may not.  The random fraction
        is reported, not asserted."""
        from graphpsd import (
            DesignObjective,
            build_spectral_model,
            greedy_design,
            model_rank,
            random_design,
        )

        objective = DesignObjective.spectral(sensor100_basis)
        pattern, _ = greedy_design(objective, 14)
        _, greedy_ok = model_rank(build_spectral_model(sensor100_basis, pattern))
        assert greedy_ok
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            rand = random_design(100, 14, seed=seed)
            _, ok = model_rank(build_spectral_model(sensor100_basis, rand))
            hits += int(ok)
        fraction = hits / n_seeds
        print(f"random-sampler rank-ok fraction at K=14, N=100: {fraction:.2f}")
        assert 0.0 <= fraction <= 1.0


class TestSnapshotTrend:
    def test_median_nmse_decreases_with_more_snapshots(self):
        """Median over 11 seeds improves when snapshots go 100 -> 10000."""
        nmse = {100: [], 10000: []}
        for n_snapshots in nmse:
            for seed in range(11):
                cfg = small_cfg(n_snapshots=n_snapshots, seed=seed)
                nmse[n_snapshots].append(run_experiment(cfg).nmse)
        assert np.median(nmse[10000]) < np.median(nmse[100])


class TestPropertySuites:
    def test_report_structure_and_known_outcomes(self):
        report = run_property_suites(seed=0, trials=60)
        assert set(report) == {
            "submodularity",
            "greedy_bound",
            "model_equivalence",
            "spectrum_consistency",
            "incremental_gains",
            "estimator_agreement",
            "ok",
        }
        assert report["greedy_bound"]["ok"]
        assert report["model_equivalence"]["ok"]
        assert report["spectrum_consistency"]["ok"]
        assert report["incremental_gains"]["ok"]
        assert report["estimator_agreement"]["ok"]
        # the log-det objective is monotone and normalized on every instance
        for row in report["submodularity"]["instances"]:
            assert row["normalization_ok"]
            assert row["monotonicity_violations"] == 0

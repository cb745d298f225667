"""Command-line interface: verbs, flag overrides, exit codes, outputs."""

import json

import numpy as np
import pytest

from graphpsd import SamplingPattern, load_graph, save_pattern
from graphpsd.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestGenGraph:
    def test_writes_loadable_graph(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli("gen-graph", "--n", "25", "--k-neighbors", "4", "--seed", "3",
                       "--out", str(out)) == 0
        g = load_graph(out)
        assert g.n_vertices == 25
        assert g.coordinates is not None

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        for args in (
            ("--n", "1", "--out", str(out)),
            ("--seed", "-1", "--out", str(out)),
            ("--out", str(tmp_path / "missing" / "g.txt")),
        ):
            assert run_cli("gen-graph", *args) == 2, args
            assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_full_pipeline_with_flags(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--n", "30", "--k", "12", "--snapshots", "300",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert (out / "spectrum.csv").exists()
        assert (out / "metrics.json").exists()
        assert "rank_ok=True" in capsys.readouterr().out

    def test_snapshot_count_beyond_memory_runs(self, tmp_path):
        """A 50 x 1e11 noise draw could not fit; the run draws the sample
        covariance from its Wishart law instead and gives a finite NMSE."""
        out = tmp_path / "out"
        huge = ("--n", "50", "--k", "10", "--snapshots", "100000000000")
        assert run_cli("run", *huge, "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_snapshots"] == 10**11
        assert np.isfinite(metrics["nmse"])
        assert not (out / "failure.json").exists()

    def test_zero_snapshots_runs_the_population_covariance(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--n", "30", "--k", "12", "--snapshots", "0", "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["n_snapshots"], metrics["use_population_covariance"]) == (0, True)
        assert metrics["rank_ok"] is True
        assert metrics["nmse"] <= 1e-12
        assert "rank_ok=True" in capsys.readouterr().out

    def test_negative_snapshots_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--n", "30", "--k", "12", "--snapshots", "-1", "--out", str(out)) == 2
        assert "n_snapshots must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_filter_that_vanishes_everywhere_exits_2(self, tmp_path, capsys, verb):
        """A zero filter's true spectrum is zero, and its NMSE would be NaN:
        the run exits 2 at the check after the filter stage and writes no
        metrics."""
        cfg_path = tmp_path / "zf.json"
        cfg_path.write_text(json.dumps(
            {"filter": {"coefficients": [0.0, 0.0]}, "k": 20, "n_snapshots": 100}
        ))
        out = tmp_path / "out"
        extra = ["--k-list", "14,20", "--seeds", "2"] if verb == "sweep" else []
        assert run_cli(verb, "--config", str(cfg_path), *extra, "--out", str(out)) == 2
        assert "vanishes at every graph frequency" in capsys.readouterr().err
        if verb == "run":
            failure = json.loads((out / "failure.json").read_text())
            assert failure["stage"] == "checks"
            assert sorted(p.name for p in out.iterdir()) == ["failure.json"]

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "graph": {"n": 30, "k_neighbors": 5, "seed": 2},
            "k": 12,
            "n_snapshots": 200,
        }))
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(cfg_path), "--k", "14", "--out", str(out))
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["k"] == 14

    def test_vertex_domain_runs_without_eigh(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh was called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out = tmp_path / "out"
        code = run_cli(
            "run", "--n", "40", "--k", "8", "--domain", "vertex", "--snapshots", "300",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["domain"] == "vertex"
        assert "rank_ok=True" in capsys.readouterr().out

    def test_missing_out_is_config_error(self):
        assert run_cli("run", "--n", "20", "--k", "10") == 2

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("not json")
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == 2

    def test_inconsistent_budget_exits_2(self, tmp_path):
        assert run_cli("run", "--n", "20", "--k", "50", "--out", str(tmp_path)) == 2

    def test_neighbors_not_below_n_exits_2(self, tmp_path, capsys):
        assert run_cli("run", "--n", "5", "--k", "3", "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    # explicit ids, so removing a case renames no other; these keep the
    # ids they had when pytest numbered the cases by position
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param({"filter": {"length": 0}}, id="data0"),
            pytest.param({"shift_kind": "foo"}, id="data1"),
            pytest.param({"n_snapshots": 2.5}, id="data2"),
            pytest.param({"seed": 1.5}, id="data3"),
            pytest.param({"seed": -3}, id="data4"),
            pytest.param({"graph": {"n": 30, "seed": 1.5}}, id="data5"),
            pytest.param({"graph": {"n": 30, "seed": -3}}, id="data6"),
            pytest.param({"epsilon": -1}, id="data7"),
            pytest.param({"epsilon": 0}, id="data8"),
            pytest.param({"epsilon": "abc"}, id="data9"),
            pytest.param({"filter": {"rate": "x"}}, id="data10"),
            pytest.param({"filter": {"coefficients": [1, "a"]}}, id="data11"),
            pytest.param({"filter": {"coefficients": []}}, id="data12"),
            pytest.param({"n_snapshots": -1}, id="data13"),
            pytest.param({"filter": "x"}, id="data14"),
            pytest.param({"filter": {"rte": 5}}, id="data15"),
            pytest.param({"graph": {"path": 0}}, id="data16"),
            pytest.param({"sampler": "file", "pattern_path": 0}, id="data17"),
            pytest.param({"objective_kind": "frame_potential"}, id="data18"),
            pytest.param({"objective_kind": "mse"}, id="data19"),
            pytest.param({"objective_kind": 3}, id="data20"),
            pytest.param({"use_population_covariance": True}, id="data21"),
            pytest.param({"filter": {"profile": "lowpass_exp"}}, id="data22"),
        ],
    )
    def test_bad_config_fields_exit_2(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"n": 30}, "k": 10, **data}))
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--sampler", "random"]], ids=["greedy", "random"])
    def test_pattern_path_without_file_sampler_exits_2(self, tmp_path, capsys, flags):
        """A pattern file that the sampler would not read is an error, not
        a run that quietly designs its own pattern."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"graph": {"n": 30}, "k": 8, "pattern_path": "does_not_exist.json"}
        ))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "pattern_path is read by sampler 'file' only" in err and "sampler is" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, data",
        [
            ("output_dir", {"output_dir": 7}),
            ("graph.path", {"graph": {"path": 0}, "output_dir": "out"}),
            ("pattern_path", {"sampler": "file", "pattern_path": 0, "output_dir": "out"}),
        ],
        ids=["output_dir", "graph.path", "pattern_path"],
    )
    def test_path_fields_must_be_strings(self, tmp_path, capsys, name, data):
        """A path that is not a string is rejected before it is opened: the
        integer 0 would read and close stdin.  With no --out the config's
        output_dir is the output directory."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"n": 30}, "k": 10, **data}))
        assert run_cli("run", "--config", str(cfg_path)) == 2
        assert f"{name} must be a string" in capsys.readouterr().err

    def test_graph_from_file(self, tmp_path):
        gpath = tmp_path / "g.txt"
        run_cli("gen-graph", "--n", "30", "--k-neighbors", "5", "--seed", "2",
                "--out", str(gpath))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "graph": {"path": str(gpath)},
            "k": 12,
            "n_snapshots": 200,
        }))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0

    @pytest.mark.parametrize(
        "text", [None, "N 3\nE 0 1 1.0\nE 1 2 x\n", "N 3\nE 0 1 1.0\nE 1 2 nan\n"],
        ids=["missing", "malformed_weight", "nan_weight"],
    )
    def test_bad_graph_file_exits_2(self, tmp_path, capsys, text):
        """A graph file that is missing or does not parse is a configuration
        error, not an uncaught exception or a numerical failure."""
        gpath = tmp_path / "g.txt"
        if text is not None:
            gpath.write_text(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"path": str(gpath)}, "k": 2}))
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
        assert f"cannot load graph {gpath}" in capsys.readouterr().err


class TestDesignAndEstimate:
    def test_design_then_estimate(self, tmp_path):
        design_dir = tmp_path / "design"
        code = run_cli("design", "--n", "30", "--k", "12", "--out", str(design_dir))
        assert code == 0
        pattern_file = design_dir / "pattern.json"
        trace_file = design_dir / "trace.json"
        assert pattern_file.exists() and trace_file.exists()
        trace = json.loads(trace_file.read_text())
        assert len(trace["chosen"]) == 12
        assert min(trace["gains"]) >= -1e-10

        est_dir = tmp_path / "estimate"
        code = run_cli(
            "run", "--n", "30", "--snapshots", "300",
            "--pattern", str(pattern_file), "--out", str(est_dir),
        )
        assert code == 0
        metrics = json.loads((est_dir / "metrics.json").read_text())
        assert metrics["sampler"] == "file"
        assert metrics["k"] == 12
        # the designed pattern estimates the spectrum a greedy run of the same flags does
        run_dir = tmp_path / "run"
        assert run_cli("run", "--n", "30", "--k", "12", "--snapshots", "300",
                       "--out", str(run_dir)) == 0
        assert (est_dir / "spectrum.csv").read_bytes() == (run_dir / "spectrum.csv").read_bytes()

    def test_estimate_requires_pattern_flag(self, tmp_path, capsys):
        """A file sampler with no pattern file, or an empty one, is an
        error, not a run that designs its own pattern."""
        for flags in (["--sampler", "file"], ["--pattern", ""]):
            assert run_cli("run", "--n", "30", *flags, "--out", str(tmp_path / "out")) == 2
            assert "sampler 'file' needs pattern_path" in capsys.readouterr().err

    def test_estimate_verb_is_gone(self, tmp_path, capsys):
        """``run --pattern`` is the one way to estimate from a pattern file."""
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--n", "30", "--pattern", str(tmp_path / "p.json"),
                    "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "invalid choice: 'estimate'" in capsys.readouterr().err


class TestBudgetAgainstGraphFile:
    """Budgets that a graph file cannot hold are configuration errors."""

    @pytest.fixture
    def small_graph_cfg(self, tmp_path):
        gpath = tmp_path / "g10.txt"
        run_cli("gen-graph", "--n", "10", "--k-neighbors", "3", "--seed", "2", "--out", str(gpath))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"graph": {"path": str(gpath)}, "n_snapshots": 200}))
        return str(cfg_path)

    def test_k_above_graph_size_exits_2(self, tmp_path, small_graph_cfg):
        for verb in ("run", "design"):
            out = tmp_path / verb
            assert run_cli(verb, "--config", small_graph_cfg, "--k", "12", "--out", str(out)) == 2

    def test_k_above_graph_size_recorded_as_checks(self, tmp_path, small_graph_cfg, capsys):
        """The budget is checked against the graph after the graph stage has
        ended, so ``failure.json`` names the checks, not the graph."""
        out = tmp_path / "run"
        assert run_cli("run", "--config", small_graph_cfg, "--k", "20", "--out", str(out)) == 2
        assert "exceeds the graph's 10 vertices" in capsys.readouterr().err
        assert json.loads((out / "failure.json").read_text())["stage"] == "checks"

    def test_q_above_graph_size_exits_2(self, tmp_path, small_graph_cfg):
        design_dir = tmp_path / "design"
        assert run_cli("design", "--config", small_graph_cfg, "--k", "4", "--out", str(design_dir)) == 0
        assert run_cli("run", "--config", small_graph_cfg, "--k", "4", "--domain", "vertex",
                       "--q", "14", "--out", str(tmp_path / "run")) == 2
        assert run_cli("run", "--config", small_graph_cfg, "--domain", "vertex", "--q", "14",
                       "--pattern", str(design_dir / "pattern.json"),
                       "--out", str(tmp_path / "estimate")) == 2

    def test_pattern_of_another_graph_size_exits_2(self, tmp_path, small_graph_cfg, capsys):
        pattern_path = tmp_path / "pattern.json"
        save_pattern(SamplingPattern(100, (0, 5, 50)), pattern_path)
        out = tmp_path / "estimate"
        assert run_cli("run", "--config", small_graph_cfg, "--pattern", str(pattern_path),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "for 100 vertices" in err and "graph has 10" in err
        assert json.loads((out / "failure.json").read_text())["stage"] == "model"


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--n", "30", "--snapshots", "200", "--k-list", "12,30",
            "--seeds", "2", "--out", str(out),
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k,sampler,mean_nmse,rank_ok_fraction"
        assert len(lines) == 5

    def test_sweep_designs_whatever_the_config_samples(self, tmp_path):
        """The sweep designs greedily, so a config's file sampler and its
        pattern file are set aside, not read and not an error."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"graph": {"n": 30}, "sampler": "file", "pattern_path": "does_not_exist.json"}
        ))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(cfg_path), "--k-list", "12", "--seeds", "1",
                       "--out", str(out)) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_bad_k_list_exits_2(self, tmp_path):
        assert run_cli("sweep", "--k-list", "a,b", "--out", str(tmp_path)) == 2

    def test_empty_k_list_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--n", "30", "--k-list", ",", "--out", str(tmp_path)) == 2
        assert "no budgets given" in capsys.readouterr().err


class TestCheck:
    def test_check_writes_report(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("check", "--trials", "40", "--out", str(out))
        report = json.loads((out / "check.json").read_text())
        # the structural suites hold; the diminishing-returns sampling does
        # not (the objective is monotone but not submodular), so the verb
        # reports failure through its exit code
        assert report["greedy_bound"]["ok"]
        assert report["model_equivalence"]["ok"]
        assert report["spectrum_consistency"]["ok"]
        assert report["incremental_gains"]["ok"]
        assert report["estimator_agreement"]["ok"]
        assert code == (0 if report["ok"] else 3)

    def test_bad_trials_exit_2(self, tmp_path, capsys):
        """With no trial the diminishing-returns suite would sample nothing
        and the verb would pass."""
        for trials in ("-1", "0"):
            assert run_cli("check", "--trials", trials, "--out", str(tmp_path)) == 2
            assert "--trials must be positive" in capsys.readouterr().err
        assert not (tmp_path / "check.json").exists()

    def test_negative_seed_exit_2(self, capsys):
        assert run_cli("check", "--trials", "1", "--seed", "-1") == 2
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err


class TestDeterminism:
    def test_same_invocation_same_bytes(self, tmp_path):
        args = ["run", "--n", "30", "--k", "12", "--snapshots", "200", "--seed", "1"]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("spectrum.csv", "pattern.json", "metrics.json", "trace.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    def test_check_same_bytes(self, tmp_path):
        """Criterion 10 for the ``check`` verb: its report is byte-reproducible."""
        for name in ("a", "b"):
            run_cli("check", "--trials", "20", "--out", str(tmp_path / name))
        a, b = ((tmp_path / name / "check.json").read_bytes() for name in ("a", "b"))
        assert a == b


class TestDesignMatchesRun:
    def test_design_and_run_write_the_same_pattern_and_trace(self, tmp_path):
        args = ["--n", "30", "--k", "12", "--snapshots", "200", "--seed", "1"]
        assert run_cli("design", *args, "--out", str(tmp_path / "design")) == 0
        assert run_cli("run", *args, "--out", str(tmp_path / "run")) == 0
        for name in ("pattern.json", "trace.json"):
            assert (tmp_path / "design" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

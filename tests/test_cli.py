"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_writes_market(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        code = main([
            "generate", "synthetic-uniform", str(path),
            "--workers", "12", "--tasks", "6", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["workers"]) == 12
        assert "wrote" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "m.json")])


class TestSolve:
    @pytest.fixture
    def market_path(self, tmp_path):
        path = tmp_path / "m.json"
        main([
            "generate", "synthetic-uniform", str(path),
            "--workers", "15", "--tasks", "8", "--seed", "2",
        ])
        return path

    def test_solve_prints_totals(self, market_path, capsys):
        assert main(["solve", str(market_path)]) == 0
        out = capsys.readouterr().out
        assert "requester" in out
        assert "worker" in out

    def test_solve_writes_assignment(self, market_path, tmp_path, capsys):
        output = tmp_path / "a.json"
        code = main([
            "solve", str(market_path), "--solver", "greedy",
            "--output", str(output),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["solver"] == "greedy"
        assert payload["edges"]

    def test_lambda_flag(self, market_path, capsys):
        assert main(["solve", str(market_path), "--lam", "1.0"]) == 0

    def test_unknown_solver_rejected(self, market_path):
        with pytest.raises(SystemExit):
            main(["solve", str(market_path), "--solver", "magic"])


class TestSimulate:
    def test_simulate_prints_rounds(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        main([
            "generate", "synthetic-uniform", str(path),
            "--workers", "15", "--tasks", "8",
        ])
        code = main([
            "simulate", str(path), "--rounds", "3", "--no-retention",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out
        assert out.count("\n") >= 5


class TestSimulateDurability:
    @pytest.fixture
    def market_path(self, tmp_path):
        path = tmp_path / "m.json"
        main([
            "generate", "synthetic-uniform", str(path),
            "--workers", "12", "--tasks", "6", "--seed", "1",
        ])
        return path

    def test_resume_requires_checkpoint(self, market_path, capsys):
        code = main(["simulate", str(market_path), "--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_then_resume_matches_straight_run(
        self, market_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        main([
            "simulate", str(market_path), "--rounds", "2",
            "--checkpoint", str(ckpt),
        ])
        capsys.readouterr()
        code = main([
            "simulate", str(market_path), "--rounds", "4",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 0
        resumed = capsys.readouterr().out
        assert main(["simulate", str(market_path), "--rounds", "4"]) == 0
        straight = capsys.readouterr().out
        assert resumed == straight


class TestSweep:
    SPEC = """\
schema = "repro-spec/1"

[market]
workload = "synthetic-uniform"
workers = 20
tasks = 10
seed = 0

[scenario]
n_rounds = 2

[axes]
"scenario.solver" = ["flow", "greedy"]
"""

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.SPEC)
        return path

    def test_sweep_prints_stats_line(self, spec_path, capsys):
        code = main([
            "sweep", str(spec_path), "--repetitions", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed 2" in out
        assert "quarantined 0" in out
        assert out.count("sc-") == 2

    def test_sweep_checkpoint_resume_skips(
        self, spec_path, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        main([
            "sweep", str(spec_path), "--repetitions", "1",
            "--checkpoint", str(ckpt),
        ])
        first = capsys.readouterr().out
        code = main([
            "sweep", str(spec_path), "--repetitions", "1",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 0
        second = capsys.readouterr().out
        assert "skipped 2" in second
        assert "completed 0" in second
        # identical measured values either way
        assert first.splitlines()[:3] == second.splitlines()[:3]

    def test_sweep_resume_requires_checkpoint(self, spec_path, capsys):
        code = main(["sweep", str(spec_path), "--resume"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_sweep_invalid_spec_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('schema = "repro-spec/1"\n[nope]\nx = 1\n')
        code = main(["sweep", str(path)])
        assert code == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_sweep_runtime_table_supplies_defaults(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        spec = tmp_path / "spec.toml"
        spec.write_text(
            self.SPEC + f'\n[runtime]\ncheckpoint_dir = "{ckpt}"\n'
        )
        assert main(["sweep", str(spec), "--repetitions", "1"]) == 0
        capsys.readouterr()
        code = main([
            "sweep", str(spec), "--repetitions", "1", "--resume",
        ])
        assert code == 0
        assert "skipped 2" in capsys.readouterr().out


class TestExperiment:
    def test_runs_small_experiment(self, capsys):
        code = main(["experiment", "T1", "--scale", "0.1"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "T99"])


class TestCompare:
    def test_compare_prints_table(self, capsys):
        code = main([
            "compare", "flow", "random",
            "--workers", "12", "--tasks", "6", "--instances", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "random" in out

    def test_unknown_solver_is_handled(self, capsys):
        code = main([
            "compare", "flow", "not-a-solver",
            "--workers", "8", "--tasks", "4", "--instances", "2",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEvents:
    def test_events_summary(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        main([
            "generate", "synthetic-uniform", str(path),
            "--workers", "15", "--tasks", "8",
        ])
        code = main([
            "events", str(path), "--policy", "sample-price",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "posted" in out
        assert "combined benefit" in out


class TestStream:
    SPEC = """\
schema = "repro-spec/1"

[market]
workload = "synthetic-uniform"
workers = 25
tasks = 20
seed = 0

[stream]
policy = "greedy"
task_rate = 8.0
worker_rate = 3.0
deadline = 4.0
session_length = 3.0
"""

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "stream.toml"
        path.write_text(self.SPEC)
        return path

    def test_stream_prints_summary(self, spec_path, capsys):
        code = main(["stream", str(spec_path), "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "posted" in out
        assert "time-to-assignment" in out

    def test_stream_writes_batched_records(
        self, spec_path, tmp_path, capsys
    ):
        output = tmp_path / "records.jsonl"
        code = main([
            "stream", str(spec_path), "--seed", "3",
            "--output", str(output),
        ])
        assert code == 0
        rows = [
            json.loads(line) for line in output.read_text().splitlines()
        ]
        assert rows
        assert {"time", "worker", "task", "benefit", "wait"} <= set(
            rows[0]
        )

    def test_stream_round_mode(self, tmp_path, capsys):
        path = tmp_path / "round.toml"
        path.write_text(
            self.SPEC.replace('policy = "greedy"', 'policy = "round"')
            + "round_rounds = 2\n"
        )
        code = main(["stream", str(path), "--seed", "1"])
        assert code == 0
        assert "rounds" in capsys.readouterr().out

    def test_stream_traced_run_exports_valid_trace(
        self, spec_path, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "stream", str(spec_path), "--seed", "3",
            "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        assert main(["trace", str(trace)]) == 0

    def test_stream_invalid_spec_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            self.SPEC + 'sample_fraction = 0.4\n'
        )
        code = main(["stream", str(path)])
        assert code != 0
        assert "C212" in capsys.readouterr().err


class TestErrors:
    def test_missing_market_file_is_handled(self, capsys, tmp_path):
        # load_market raises FileNotFoundError (not ReproError); the
        # CLI lets genuine I/O errors propagate for a real traceback.
        with pytest.raises(FileNotFoundError):
            main(["solve", str(tmp_path / "missing.json")])

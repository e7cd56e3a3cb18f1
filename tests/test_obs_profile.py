"""The span-attributed sampling profiler: attribution, collapsed
output, and the CLI surfaces (`repro profile`, `--profile`)."""

import time

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ValidationError
from repro.obs.profile import SpanProfiler


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.disable()
    yield
    obs.disable()


def _busy(seconds):
    """Burn CPU (not sleep) so the sampler catches Python frames."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(50))
    return total


class TestSpanProfiler:
    def test_samples_attribute_to_open_span_path(self):
        tracer = obs.Tracer()
        profiler = SpanProfiler(tracer=tracer, interval=0.001)
        with obs.tracing(tracer):
            with profiler:
                with obs.span("outer"):
                    with obs.span("inner"):
                        _busy(0.15)
        assert profiler.n_samples > 0
        totals = profiler.span_totals()
        assert "outer.inner" in totals
        assert totals["outer.inner"] == max(totals.values())

    def test_collapsed_lines_are_well_formed_and_sorted(self):
        profiler = SpanProfiler(interval=0.001)
        with profiler:
            _busy(0.1)
        lines = profiler.collapsed()
        assert lines
        counts = []
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack
            counts.append(int(count))
        assert counts == sorted(counts, reverse=True)

    def test_zero_sample_run_forces_one_synchronous_sample(self):
        profiler = SpanProfiler(interval=60.0)  # never fires
        with profiler:
            pass
        assert profiler.n_samples >= 1
        assert profiler.collapsed()

    def test_write_emits_nonempty_file(self, tmp_path):
        profiler = SpanProfiler(interval=0.001)
        with profiler:
            _busy(0.05)
        path = profiler.write(tmp_path / "profile.collapsed")
        content = path.read_text()
        assert content.strip()
        # Every line is "frame;frame;... count".
        for line in content.strip().splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValidationError, match="interval"):
            SpanProfiler(interval=0.0)

    def test_double_start_rejected(self):
        profiler = SpanProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(ValidationError, match="already"):
                profiler.start()
        finally:
            profiler.stop()

    def test_untraced_profiler_has_plain_stacks(self):
        profiler = SpanProfiler(interval=0.001)
        with profiler:
            _busy(0.05)
        assert set(profiler.span_totals()) == {"(no span)"}


class TestProfileCli:
    def test_profile_bench_case_names_solver_spans(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "profile.collapsed"
        # A case of a few ms gets two samples, and the one taken while
        # the profiler stops can outweigh it; this one gets tens.
        assert main(
            ["profile", "flow/w=120,t=120", "--quick",
             "--output", str(out_path)]
        ) == 0
        assert "wrote profile" in capsys.readouterr().out
        content = out_path.read_text().strip()
        assert content
        # The heaviest lines carry the bench span prefix: the span
        # layer names the stage, the frames name the code.
        top = content.splitlines()[0]
        assert top.startswith("bench.case;")

    def test_profile_list_cases(self, capsys):
        assert main(["profile", "--list", "--quick"]) == 0
        assert "flow/n=15" in capsys.readouterr().out

    def test_profile_unknown_case_errors(self, capsys):
        assert main(
            ["profile", "no-such-case", "--quick"]
        ) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_simulate_profile_flag(self, tmp_path, capsys):
        market_path = tmp_path / "market.json"
        assert main(
            ["generate", "synthetic-uniform", str(market_path),
             "--workers", "15", "--tasks", "8", "--seed", "1"]
        ) == 0
        profile_path = tmp_path / "sim.collapsed"
        assert main(
            ["simulate", str(market_path), "--rounds", "2",
             "--no-retention", "--profile", str(profile_path)]
        ) == 0
        assert "wrote profile" in capsys.readouterr().out
        assert profile_path.read_text().strip()

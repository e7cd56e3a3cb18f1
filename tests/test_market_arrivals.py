"""Tests for arrival processes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.market.arrivals import (
    Arrival,
    BatchArrivals,
    PoissonArrivals,
    TraceArrivals,
)


def _scalar_poisson(rate, n, rng):
    """One exponential draw per arrival: the chunked stream's reference."""
    order = rng.permutation(n)
    time = 0.0
    out = []
    for index in order:
        time += rng.exponential(1.0 / rate)
        out.append(Arrival(int(index), time))
    return out


class TestPoissonArrivals:
    def test_order_is_permutation(self):
        order = PoissonArrivals().order(20, seed=0)
        assert sorted(order) == list(range(20))

    def test_times_strictly_increase(self):
        stream = list(PoissonArrivals(rate=2.0).stream(10, seed=1))
        times = [a.time for a in stream]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_scales_times(self):
        slow = list(PoissonArrivals(rate=0.5).stream(200, seed=3))
        fast = list(PoissonArrivals(rate=5.0).stream(200, seed=3))
        assert slow[-1].time > fast[-1].time

    def test_deterministic_given_seed(self):
        assert PoissonArrivals().order(15, 7) == PoissonArrivals().order(15, 7)

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(rate=0.0)

    @given(st.integers(min_value=0, max_value=100))
    def test_every_size_is_permutation(self, n):
        assert sorted(PoissonArrivals().order(n, seed=0)) == list(range(n))


    @pytest.mark.parametrize("rate", [0.3, 4.0, 80.0])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3000])
    def test_chunked_stream_matches_scalar_draws(self, rate, n):
        for seed in (0, 1):
            stream = list(PoissonArrivals(rate).stream(n, seed=seed))
            assert stream == _scalar_poisson(
                rate, n, np.random.default_rng(seed)
            )
            assert all(
                type(a.index) is int and type(a.time) is float
                for a in stream
            )

    @pytest.mark.parametrize("n", [5, 1024, 2500])
    def test_shared_generator_state_matches_scalar_draws(self, n):
        # Online solvers draw their arrival order from the run's shared
        # generator and keep using it afterwards.
        shared = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        order = PoissonArrivals(2.0).order(n, shared)
        expected = _scalar_poisson(2.0, n, reference)
        assert order == [a.index for a in expected]
        assert shared.bit_generator.state == reference.bit_generator.state


class TestBatchArrivals:
    def test_batch_timestamps(self):
        stream = list(BatchArrivals(batch_size=4).stream(10, seed=0))
        times = [a.time for a in stream]
        assert times == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_order_is_permutation(self):
        assert sorted(BatchArrivals(3).order(11, seed=5)) == list(range(11))

    def test_invalid_batch_size(self):
        with pytest.raises(ValidationError):
            BatchArrivals(batch_size=0)


class TestTraceArrivals:
    def test_replays_exact_order(self):
        trace = TraceArrivals([2, 0, 1])
        assert trace.order(3) == [2, 0, 1]

    def test_explicit_times(self):
        stream = list(TraceArrivals([1, 0], times=[0.5, 2.5]).stream(2))
        assert [a.time for a in stream] == [0.5, 2.5]

    def test_not_a_permutation(self):
        with pytest.raises(ValidationError, match="permutation"):
            list(TraceArrivals([0, 0, 1]).stream(3))

    def test_wrong_n(self):
        with pytest.raises(ValidationError):
            list(TraceArrivals([0, 1]).stream(3))

    def test_times_length_mismatch(self):
        with pytest.raises(ValidationError):
            TraceArrivals([0, 1], times=[1.0])

    def test_numpy_trace_yields_builtin_types(self):
        """Regression: a numpy-sourced trace leaked np.int64/np.float64
        into ``Arrival``, breaking JSON export of recorded streams."""
        import json

        import numpy as np

        order = np.array([2, 0, 1], dtype=np.int64)
        times = np.array([0.5, 1.5, 2.5])
        stream = list(TraceArrivals(order, times=times).stream(3))
        for arrival in stream:
            assert type(arrival.index) is int
            assert type(arrival.time) is float
        # np.int64 is not JSON-serializable; builtin ints/floats are.
        json.dumps([[a.index, a.time] for a in stream])


def test_arrival_is_an_immutable_named_pair():
    arrival = Arrival(3, 1.25)
    assert arrival._fields == ("index", "time")
    assert (arrival.index, arrival.time) == (3, 1.25)
    with pytest.raises(AttributeError):
        arrival.time = 0.0

"""Arrival processes for the online market.

In the online setting workers (or tasks) appear one at a time and an
assignment decision must be made before the next arrival.  An arrival
process turns a static population into an ordered stream, optionally
with timestamps.  Three processes cover the evaluation's needs:

* :class:`PoissonArrivals` — memoryless inter-arrival times, the
  standard model for platform traffic;
* :class:`BatchArrivals` — entities arrive in fixed-size batches
  (micro-batching, what real platforms actually do);
* :class:`TraceArrivals` — replay an explicit order, for adversarial
  and recorded sequences.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_rng


class Arrival(NamedTuple):
    """One arrival event: which entity index arrived and when (a named
    tuple, built at tuple cost once per entity)."""

    index: int
    time: float


#: Poisson gaps drawn per ``exponential`` call.
_CHUNK = 1024


class ArrivalProcess(abc.ABC):
    """Turns ``n`` entities into an ordered arrival stream."""

    @abc.abstractmethod
    def stream(self, n: int, seed: SeedLike = None) -> Iterator[Arrival]:
        """Yield each of the ``n`` indices exactly once, with times."""

    def order(self, n: int, seed: SeedLike = None) -> list[int]:
        """Just the arrival order, without timestamps."""
        return [a.index for a in self.stream(n, seed)]


class PoissonArrivals(ArrivalProcess):
    """Uniform random order with exponential inter-arrival gaps.

    ``rate`` is arrivals per unit time.  The *order* is a uniform random
    permutation — the random-order model under which online algorithms'
    average-case guarantees are stated.
    """

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValidationError(f"rate must be > 0, got {rate}")
        self.rate = rate

    def stream(self, n: int, seed: SeedLike = None) -> Iterator[Arrival]:
        # Gaps are drawn a chunk at a time: a vector ``exponential``
        # draw consumes the generator exactly like as many scalar
        # draws, and ``cumsum`` seeded with the running clock adds
        # them in the same order, so the stream (and the generator's
        # state once it is drained) is bit-identical to drawing one
        # gap per arrival.  Chunking keeps memory flat for large n.
        rng = as_rng(seed)
        order = rng.permutation(n)
        scale = 1.0 / self.rate
        time = 0.0
        for start in range(0, n, _CHUNK):
            gaps = rng.exponential(scale, size=min(_CHUNK, n - start))
            times = np.cumsum(np.concatenate(([time], gaps)))[1:]
            time = float(times[-1])
            yield from map(
                Arrival,
                order[start : start + _CHUNK].tolist(),
                times.tolist(),
            )


class BatchArrivals(ArrivalProcess):
    """Random order, arriving in batches of ``batch_size`` at integer times.

    All members of batch ``b`` share timestamp ``float(b)``; the online
    solvers treat a shared timestamp as "may be assigned together".
    """

    def __init__(self, batch_size: int = 10) -> None:
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size

    def stream(self, n: int, seed: SeedLike = None) -> Iterator[Arrival]:
        rng = as_rng(seed)
        order = rng.permutation(n)
        for pos, index in enumerate(order):
            yield Arrival(int(index), float(pos // self.batch_size))


class TraceArrivals(ArrivalProcess):
    """Replay a fixed order (optionally with explicit times).

    Used for adversarial sequences in tests and for recorded traces.
    """

    def __init__(
        self, order: Sequence[int], times: Sequence[float] | None = None
    ) -> None:
        self._order = list(order)
        if times is not None and len(times) != len(order):
            raise ValidationError(
                f"times has {len(times)} entries but order has {len(order)}"
            )
        self._times = list(times) if times is not None else None

    def stream(self, n: int, seed: SeedLike = None) -> Iterator[Arrival]:
        if sorted(self._order) != list(range(n)):
            raise ValidationError(
                f"trace must be a permutation of range({n}), "
                f"got {self._order!r}"
            )
        for pos, index in enumerate(self._order):
            time = self._times[pos] if self._times is not None else float(pos)
            # Cast like the other processes do: a numpy trace would
            # otherwise leak np.int64/np.float64 into Arrival, breaking
            # JSON export of recorded arrival streams.
            yield Arrival(int(index), float(time))

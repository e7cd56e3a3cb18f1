"""Simulating worker answers to assigned tasks.

A task has ``n_classes`` labels (two by default, the standard model in
the task-assignment literature, where binary keeps aggregation
accuracy closed-form).  A worker answers a task correctly with the
probability given by ``Worker.accuracy_on`` — exactly the same
quantity the benefit models plan with, so simulated outcomes are an
unbiased realization of the planner's expectations — and otherwise
picks one of the other labels uniformly (symmetric noise; for two
classes, a flip).

The documented RNG contract is *per-edge stream addressing*: walking
``edges`` in order, each first occurrence of a task draws its truth
via ``rng.integers(0, n_classes)``, every edge then draws one
``rng.random()`` for correctness, and a wrong answer draws its offset
from the truth via ``rng.integers(1, n_classes)`` (which consumes no
draw when there are two classes).  For two classes
:func:`simulate_answers` batches all of those draws into one
``random_raw`` block while reproducing the scalar call sequence bit
for bit (see :func:`_simulate_answers_batched`), so seeded runs are
byte-identical to the loop — which survives as
:func:`simulate_answers_reference`, serves more classes, and is
cross-checked in tests.  Both return an :class:`AnswerSet`, whose rows
are the answers in the order that loop's ``{task: {worker: answer}}``
dict iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.market.worker import accuracy
from repro.utils.rng import SeedLike, as_rng


def _check_n_classes(n_classes: int) -> None:
    if n_classes < 2:
        raise ValidationError(f"n_classes must be >= 2, got {n_classes}")


@dataclass(frozen=True, eq=False)
class AnswerSet:
    """All answers produced for one assignment round.

    Answers are stored once, as three parallel read-only ``int64``
    arrays with one row per answered (task, worker) pair.  The
    simulator and :meth:`from_dicts` group the rows by task in
    first-answer order, and within a task order the workers by first
    answer — the iteration order of the ``{task: {worker: answer}}``
    dict the rows replace.  Aggregators and the skill estimator reduce
    over the rows with ``np.bincount``.

    Attributes
    ----------
    tasks / workers / votes:
        Row ``r`` says worker ``workers[r]`` answered task ``tasks[r]``
        with label ``votes[r]`` in ``[0, n_classes)``.
    truths:
        ``{task_index: true_label}`` — ground truth for scoring; kept
        separate so aggregation methods cannot accidentally peek.
    n_classes:
        Number of labels per task (at least 2).
    """

    tasks: np.ndarray = ()
    workers: np.ndarray = ()
    votes: np.ndarray = ()
    truths: dict[int, int] = field(default_factory=dict)
    n_classes: int = 2

    def __post_init__(self) -> None:
        _check_n_classes(self.n_classes)
        columns = [
            np.array(c, dtype=np.int64)
            for c in (self.tasks, self.workers, self.votes)
        ]
        if any(c.ndim != 1 for c in columns) or len(
            {c.size for c in columns}
        ) != 1:
            raise ValidationError(
                "tasks, workers and votes must have one entry per answer"
            )
        if np.any((columns[2] < 0) | (columns[2] >= self.n_classes)):
            raise ValidationError(
                f"votes must lie in [0, {self.n_classes})"
            )
        pairs = np.stack(columns[:2])[:, np.lexsort(columns[1::-1])]
        if np.any(np.all(np.diff(pairs) == 0, axis=0)):
            raise ValidationError("a (task, worker) pair has two answers")
        for name, column in zip(("tasks", "workers", "votes"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_dicts(
        cls,
        answers: dict[int, dict[int, int]],
        truths: dict[int, int] | None = None,
        n_classes: int = 2,
    ) -> AnswerSet:
        """Build the rows from ``{task: {worker: answer}}``, in its
        iteration order (tasks with no answers have no rows)."""
        rows = [
            (task, worker, answer)
            for task, by_worker in answers.items()
            for worker, answer in by_worker.items()
        ]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return cls(*columns, dict(truths or {}), n_classes)

    @cached_property
    def task_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(task_ids, group)``: the answered tasks in first-answer
        order, and each row's position in ``task_ids``."""
        ids, first, inverse = np.unique(
            self.tasks, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return ids[order], rank[inverse]

    def n_answers(self) -> int:
        return int(self.tasks.size)

    def require_binary(self, method: str) -> None:
        """Raise unless the answers have two classes."""
        if self.n_classes != 2:
            raise ValidationError(
                f"{method} needs binary answers, got n_classes="
                f"{self.n_classes}"
            )


def simulate_answers_reference(
    market: LaborMarket,
    edges: list[tuple[int, int]],
    seed: SeedLike = None,
    n_classes: int = 2,
) -> AnswerSet:
    """Scalar-loop reference for :func:`simulate_answers`.

    One RNG call per draw, in edge order — the ground truth for the
    batched fast path's stream addressing, and the path for more than
    two classes and for bit generators whose word stream the fast path
    cannot emulate.
    """
    _check_n_classes(n_classes)
    rng = as_rng(seed)
    accuracy_matrix = market.accuracy_matrix()
    answers: dict[int, dict[int, int]] = {}
    truths: dict[int, int] = {}
    for worker_index, task_index in edges:
        if not 0 <= worker_index < market.n_workers:
            raise ValidationError(
                f"edge references worker index {worker_index} outside market"
            )
        if not 0 <= task_index < market.n_tasks:
            raise ValidationError(
                f"edge references task index {task_index} outside market"
            )
        if task_index not in truths:
            truths[task_index] = int(rng.integers(0, n_classes))
        truth = truths[task_index]
        correct = rng.random() < accuracy_matrix[worker_index, task_index]
        answer = (
            truth
            if correct
            else (truth + int(rng.integers(1, n_classes))) % n_classes
        )
        answers.setdefault(task_index, {})[worker_index] = answer
    return AnswerSet.from_dicts(answers, truths, n_classes)


def simulate_answers(
    market: LaborMarket,
    edges: list[tuple[int, int]],
    seed: SeedLike = None,
    n_classes: int = 2,
) -> AnswerSet:
    """Generate answers for every assigned (worker_index, task_index) edge.

    Each task draws a uniform true label once; each assigned worker
    reports it correctly with their accuracy, otherwise picks one of
    the other labels uniformly.  Binary draws are batched when the
    generator is PCG64 (numpy's default); results and the post-call
    generator state are bit-identical to
    :func:`simulate_answers_reference` either way.
    """
    rng = as_rng(seed)
    if not edges:
        return AnswerSet(n_classes=n_classes)
    if (
        n_classes != 2
        or rng.bit_generator.state.get("bit_generator") != "PCG64"
    ):
        return simulate_answers_reference(market, edges, rng, n_classes)

    edge_array = np.asarray(edges, dtype=np.int64)
    workers = edge_array[:, 0]
    tasks = edge_array[:, 1]
    if (
        workers.min() < 0
        or workers.max() >= market.n_workers
        or tasks.min() < 0
        or tasks.max() >= market.n_tasks
    ):
        # The reference loop validates edge by edge, consuming draws
        # for the edges preceding the bad one before raising; replay
        # it so the error path leaves the caller's generator in the
        # identical state.
        return simulate_answers_reference(market, edges, rng)

    # Gather each edge's accuracy instead of building the full
    # (n_workers, n_tasks) matrix: same formula, same entries.
    edge_accuracy = accuracy(
        market.skill_matrix()[workers, market.task_categories()[tasks]],
        market.task_difficulties()[tasks],
    )
    return _simulate_answers_batched(rng, edge_accuracy, workers, tasks)


def _simulate_answers_batched(
    rng: np.random.Generator,
    edge_accuracy: np.ndarray,
    workers: np.ndarray,
    tasks: np.ndarray,
) -> AnswerSet:
    """Batched Bernoulli draws reproducing the scalar PCG64 stream.

    The reference loop interleaves two kinds of calls whose word
    consumption differs:

    * ``rng.integers(0, 2)`` draws one 32-bit half-word (Lemire
      bounded generation; the value is the half-word's top bit).
      PCG64 serves half-words from a one-deep buffer: an *empty*
      buffer pulls a fresh 64-bit word, returns its low half and
      buffers the high half; a *full* buffer is consumed in place.
    * ``rng.random()`` always consumes one fresh 64-bit word
      (``word >> 11`` scaled by ``2**-53``) and leaves the half-word
      buffer untouched.

    Only truth draws toggle the buffer, so truth draw ``t`` (0-based,
    in edge order) pulls a fresh word iff ``(t + has0) % 2 == 0``
    where ``has0`` is the buffer flag on entry.  That makes every
    draw's source word a prefix-sum away: pull the whole block with
    ``random_raw`` (which advances the underlying stream exactly like
    the scalar calls did), slice halves arithmetically, and restore
    the buffer flag/value on the way out.
    """
    n_edges = workers.size
    state = rng.bit_generator.state
    has0 = int(state["has_uint32"])
    buffered0 = int(state["uinteger"])

    # First occurrence of each task, in edge order, draws the truth.
    _, first_by_id, inverse = np.unique(
        tasks, return_index=True, return_inverse=True
    )
    first_positions = np.sort(first_by_id)
    is_first = np.zeros(n_edges, dtype=bool)
    is_first[first_positions] = True
    n_truths = first_positions.size
    # truth ordinal t -> does it pull a fresh 64-bit word?
    truth_ordinals = np.arange(n_truths)
    truth_fresh = (truth_ordinals + has0) % 2 == 0
    # Per-edge count of fresh truth words consumed up to and
    # including that edge (0/1 per edge, cumulative).
    fresh_at_edge = np.zeros(n_edges, dtype=np.int64)
    fresh_at_edge[first_positions] = truth_fresh.astype(np.int64)
    fresh_cumulative = np.cumsum(fresh_at_edge)

    total_words = int(fresh_cumulative[-1]) + n_edges
    words = rng.bit_generator.random_raw(total_words)

    # An edge's random() word comes after all earlier edges' words and
    # after its own truth word (if that truth pulled one).
    random_positions = fresh_cumulative + np.arange(n_edges)
    uniforms = (words[random_positions] >> np.uint64(11)) * (2.0 ** -53)

    # Truth half-words: fresh ordinals read the low half of their own
    # word; buffered ordinals read the high half of the previous fresh
    # ordinal's word (ordinal 0 reads the entry buffer when has0=1).
    truth_words = np.zeros(n_truths, dtype=np.uint64)
    truth_word_positions = (
        fresh_cumulative[first_positions] - 1 + first_positions
    )
    truth_words[truth_fresh] = words[truth_word_positions[truth_fresh]]
    halves = np.empty(n_truths, dtype=np.uint64)
    halves[truth_fresh] = truth_words[truth_fresh] & np.uint64(0xFFFFFFFF)
    if n_truths and not truth_fresh[0]:
        halves[0] = np.uint64(buffered0)
    stale = ~truth_fresh
    stale[0:1] = False
    if stale.any():
        halves[stale] = truth_words[
            np.flatnonzero(stale) - 1
        ] >> np.uint64(32)
    truths = (halves >> np.uint64(31)).astype(np.int64)

    # Restore the half-word buffer: full iff an odd number of truth
    # draws remains unconsumed from the last fresh word.  PCG64 never
    # zeroes ``uinteger`` on consumption, so the value must be the
    # last buffered half even when the flag says empty — state dicts
    # are compared bit for bit in tests.
    final_state = rng.bit_generator.state
    final_state["has_uint32"] = (n_truths + has0) % 2
    if truth_fresh.any():
        last_fresh = int(np.flatnonzero(truth_fresh)[-1])
        final_state["uinteger"] = int(
            truth_words[last_fresh] >> np.uint64(32)
        )
    else:
        final_state["uinteger"] = buffered0
    rng.bit_generator.state = final_state

    # `truths` is in first-occurrence (edge) order; reorder to sorted
    # task order so the unique-inverse can broadcast it per edge.
    truths_sorted = truths[np.argsort(tasks[first_positions])]
    truth_per_edge = truths_sorted[inverse]

    correct = uniforms < edge_accuracy
    votes = np.where(correct, truth_per_edge, 1 - truth_per_edge)

    # One row per (task, worker) pair, placed where the pair first
    # occurred and carrying its last answer (the reference loop's dict
    # overwrite), with rows grouped by the task's first occurrence.
    pair = tasks * (int(workers.max()) + 1) + workers
    _, pair_first = np.unique(pair, return_index=True)
    _, pair_first_reversed = np.unique(pair[::-1], return_index=True)
    pair_last = n_edges - 1 - pair_first_reversed
    order = np.lexsort((pair_first, first_by_id[inverse][pair_first]))
    rows = pair_first[order]
    return AnswerSet(
        tasks[rows],
        workers[rows],
        votes[pair_last[order]],
        dict(zip(tasks[first_positions].tolist(), truths.tolist())),
    )

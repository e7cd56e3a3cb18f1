"""EM aggregators against results recorded before their libm caching.

One-coin Dawid–Skene and GLAD keep each per-worker log and
each task's ``exp``/``log``/``exp`` results between EM iterations and
re-evaluate only the entries whose input moved.  The binary reference
loops in ``tests/crowd_reference.py`` do not cover K > 2 with a
non-uniform prior, or GLAD at all, so
``tests/fixtures/em_results.json`` pins them: its answer sets are
one-coin K = 3 and K = 4 sets with non-uniform class priors, and the
three round answer sets of the ``batch_large`` benchmark workload at
seed 0, and its results (labels, posteriors, per-worker accuracies or
abilities, log-likelihood, iterations) were recorded by the
implementation that called ``math.log``/``math.exp`` for every entry
on every iteration.  Every float is compared with ``==``.  The fixture
also holds the retired two-coin model's three ``batch_large`` results,
which nothing reads any more.

The work counters are pinned too: each EM run records its iterations
and its libm evaluations once, as ``crowd.em.iterations`` and
``crowd.em.libm_evaluations``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.crowd.aggregation import dawid_skene, glad
from repro.crowd.aggregation.dawid_skene import TaskRows, _moved
from repro.crowd.answer_model import AnswerSet

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "em_results.json"

#: ``(answer set, method, class prior)`` per recorded result.
CASES = [
    ("k3", "dawid_skene", (0.5, 0.3, 0.2)),
    ("k4", "dawid_skene", (0.1, 0.2, 0.3, 0.4)),
    *(
        (f"batch_large_round{r}", method, None)
        for r in range(3)
        for method in ("dawid_skene", "glad")
    ),
]

METHODS = {
    "dawid_skene": dawid_skene,
    "glad": glad,
}


def multiclass_answer_set(n_classes: int, seed: int) -> AnswerSet:
    """Five answers per task from workers of spread accuracy, some
    spammers; one answer set per ``(n_classes, seed)``."""
    rng = np.random.default_rng(seed)
    n_workers, n_tasks = 30, 80
    skill = rng.uniform(0.2, 0.95, n_workers)
    truths = rng.integers(0, n_classes, n_tasks)
    tasks, workers, votes = [], [], []
    for task in range(n_tasks):
        for worker in rng.choice(n_workers, 5, replace=False).tolist():
            vote = int(truths[task])
            if rng.random() >= skill[worker]:
                vote = int(rng.integers(0, n_classes))
            tasks.append(task)
            workers.append(worker)
            votes.append(vote)
    return AnswerSet(
        tasks, workers, votes, dict(enumerate(truths.tolist())), n_classes
    )


def encode_answer_set(answer_set: AnswerSet) -> dict:
    return {
        "tasks": answer_set.tasks.tolist(),
        "workers": answer_set.workers.tolist(),
        "votes": answer_set.votes.tolist(),
        "truths": sorted(answer_set.truths.items()),
        "n_classes": answer_set.n_classes,
    }


def decode_answer_set(data: dict) -> AnswerSet:
    return AnswerSet(
        data["tasks"],
        data["workers"],
        data["votes"],
        {task: label for task, label in data["truths"]},
        data["n_classes"],
    )


def encode_result(result) -> dict:
    """A result as JSON-ready lists: dicts become sorted pairs."""
    return {
        name: (
            [[key, list(v) if isinstance(v, tuple) else v]
             for key, v in sorted(value.items())]
            if isinstance(value, dict)
            else value
        )
        for name, value in dataclasses.asdict(result).items()
    }


def run(case, answer_sets) -> dict:
    name, method, prior = case
    kwargs = {} if prior is None else {"class_prior": prior}
    return encode_result(METHODS[method](answer_sets[name], **kwargs))


@pytest.fixture(scope="module")
def recorded():
    data = json.loads(FIXTURE.read_text())
    answer_sets = {
        name: decode_answer_set(value)
        for name, value in data["answer_sets"].items()
    }
    return answer_sets, data["results"]


def test_fixture_answer_sets_are_the_generated_ones(recorded):
    answer_sets, _ = recorded
    for name, n_classes, seed in (("k3", 3, 3), ("k4", 4, 4)):
        assert encode_answer_set(answer_sets[name]) == encode_answer_set(
            multiclass_answer_set(n_classes, seed)
        )


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_result_equals_recorded(case, recorded):
    answer_sets, results = recorded
    assert run(case, answer_sets) == results[f"{case[0]}/{case[1]}"]


def test_result_independent_of_earlier_runs(recorded):
    """Caches live in one EM run: running every case twice, in
    reverse the second time, gives the recorded results both times."""
    answer_sets, results = recorded
    for case in CASES + CASES[::-1]:
        assert run(case, answer_sets) == results[f"{case[0]}/{case[1]}"]


# ``(iterations, libm evaluations)`` per run.  Evaluating every entry
# on every iteration takes 2·W + 2·K·T per one-coin iteration: for
# round 0's W = 293 workers and T = 184 tasks, 2·293 + 2·2·184 = 1322,
# or 118 980 over its 90 iterations.
COUNTERS = {
    ("batch_large_round0", "dawid_skene"): (90, 21_389),
    ("batch_large_round0", "glad"): (50, 37_532),
    ("k3", "dawid_skene"): (21, 11_228),
}


@pytest.mark.parametrize(
    "case", [c for c in CASES if c[:2] in COUNTERS], ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_work_counters(case, recorded):
    answer_sets, results = recorded
    with obs.tracing() as tracer:
        run(case, answer_sets)
    counters = tracer.metrics.counters
    iterations, evaluations = COUNTERS[case[:2]]
    assert counters["crowd.em.iterations"] == iterations
    assert counters["crowd.em.libm_evaluations"] == evaluations
    assert iterations == results[f"{case[0]}/{case[1]}"]["iterations"]


class TestMoved:
    def test_first_call_moves_every_row(self):
        assert _moved(None, np.zeros((3, 2))).tolist() == [0, 1, 2]

    def test_signed_zero_counts_as_moved(self):
        previous = np.array([0.0, 1.0, -0.0])
        assert _moved(previous, np.array([-0.0, 1.0, -0.0])).tolist() == [0]

    def test_a_row_moves_when_any_entry_moves(self):
        previous = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        values = previous.copy()
        values[1, 1] = np.nextafter(4.0, 5.0)
        values[2, 0] = 5.0
        assert _moved(previous, values).tolist() == [1]


def test_e_step_keeps_only_unmoved_rows(recorded):
    """A second E-step on the same log-likelihood evaluates nothing
    and returns the first one's results; moving one task's rows
    re-evaluates that task alone, to what a fresh E-step gives."""
    answer_sets, _ = recorded
    answer_set = answer_sets["k3"]
    rows = TaskRows.of(answer_set)
    rng = np.random.default_rng(0)
    log_prior = np.log([0.5, 0.3, 0.2])
    log_likelihood = np.log(rng.uniform(0.05, 1.0, (rows.vote.size, 3)))
    first = rows.e_step(log_prior, log_likelihood.copy())
    evaluations = rows.libm_evaluations
    assert evaluations == 2 * 3 * rows.task_ids.size
    again = rows.e_step(log_prior, log_likelihood.copy())
    assert rows.libm_evaluations == evaluations
    for kept, fresh in zip(again, first):
        assert np.array_equal(kept, fresh)

    log_likelihood[rows.task == 5] *= 0.5
    moved = rows.e_step(log_prior, log_likelihood.copy())
    assert rows.libm_evaluations == evaluations + 2 * 3
    fresh = TaskRows.of(answer_set).e_step(log_prior, log_likelihood.copy())
    for kept, expected in zip(moved, fresh):
        assert np.array_equal(kept, expected)
    assert not np.array_equal(moved[1], first[1])

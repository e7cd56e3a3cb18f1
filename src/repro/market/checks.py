"""Entity field checks, each written once as a check over whole columns.

:class:`~repro.market.worker.Worker` and :class:`~repro.market.task.Task`
run these on their own single row; :meth:`LaborMarket.from_arrays
<repro.market.market.LaborMarket.from_arrays>` runs them once on every
row of a generated market.  Either way a failure raises the same
:class:`~repro.errors.ValidationError` text, naming the first offending
entity.  Each range check is written as "inside the valid set", never as
"``x < 0``", so it rejects NaN too; the float fields also reject ±inf,
and the integer fields (capacity, category, replication) any value that
is not a whole number.  They then require an integer dtype
(:func:`~repro.utils.validation.check_integers`), so a whole float such
as ``capacity=2.0`` is refused on both paths with one text and every
entity holds an integer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_integers, check_shape, reject_first


def _outside_unit(values: np.ndarray) -> np.ndarray:
    return ~((values >= 0.0) & (values <= 1.0))


def _not_whole_at_least(values: np.ndarray, low: int) -> np.ndarray:
    bad = ~(values >= low)
    if values.dtype.kind == "f":
        bad |= ~np.isfinite(values) | (np.floor(values) != values)
    return bad


def column(name: str, values, n: int, *, integer: bool = False) -> np.ndarray:
    """``values`` as a length-``n`` column of floats, or with
    ``integer`` in their own dtype, which the field checks refuse
    unless it is an integer one, after naming any entity whose value
    is not a whole number.

    A scalar stands for ``n`` equal entries and comes back as a
    read-only broadcast view (stride 0), so no ``n``-entry copy exists.
    """
    values = np.asarray(values) if integer else np.asarray(values, dtype=float)
    if values.ndim:
        check_shape(name, values, (n,))
    return np.broadcast_to(values, (n,))


def check_skills(ids: Sequence[int], skills: np.ndarray) -> None:
    """Row ``i`` of ``skills`` is worker ``ids[i]``'s skill vector."""
    reject_first(
        "worker", ids, _outside_unit(skills).any(axis=1),
        "skills must be finite and lie in [0, 1]",
    )


def check_worker_fields(
    ids: Sequence[int],
    skills: np.ndarray,
    interests: np.ndarray,
    capacities: np.ndarray,
    reservation_wages: np.ndarray,
) -> None:
    """Entry ``i`` of each column (row ``i`` of the matrices) belongs to
    worker ``ids[i]``."""
    check_skills(ids, skills)
    reject_first(
        "worker", ids, _not_whole_at_least(capacities, 0),
        "capacity must be an integer >= 0, got {}", capacities,
    )
    reject_first(
        "worker", ids,
        ~(np.isfinite(reservation_wages) & (reservation_wages >= 0)),
        "reservation_wage must be finite and >= 0, got {}",
        reservation_wages,
    )
    reject_first(
        "worker", ids, _outside_unit(interests).any(axis=1),
        "interests must be finite and lie in [0, 1]",
    )
    check_integers(capacities=capacities)


def check_task_fields(
    ids: Sequence[int],
    categories: np.ndarray,
    difficulties: np.ndarray,
    payments: np.ndarray,
    replications: np.ndarray,
    efforts: np.ndarray,
) -> None:
    """Entry ``i`` of each column belongs to task ``ids[i]``."""
    reject_first(
        "task", ids, _not_whole_at_least(categories, 0),
        "category must be an integer >= 0, got {}", categories,
    )
    reject_first(
        "task", ids, _outside_unit(difficulties),
        "difficulty must lie in [0, 1], got {}", difficulties,
    )
    reject_first(
        "task", ids, ~(np.isfinite(payments) & (payments >= 0)),
        "payment must be finite and >= 0, got {}", payments,
    )
    reject_first(
        "task", ids, _not_whole_at_least(replications, 1),
        "replication must be an integer >= 1, got {}", replications,
    )
    reject_first(
        "task", ids, ~(np.isfinite(efforts) & (efforts > 0)),
        "effort must be finite and > 0, got {}", efforts,
    )
    check_integers(categories=categories, replications=replications)


def check_categories(
    ids: Sequence[int], categories: np.ndarray, n_categories: int
) -> None:
    """Every task's category exists in a taxonomy of ``n_categories``."""
    reject_first(
        "task", ids, categories >= n_categories,
        f"category {{}} outside taxonomy of size {n_categories}", categories,
    )


def check_requesters(
    ids: Sequence[int], requester_ids: np.ndarray, known: Sequence[int]
) -> None:
    """Requester ids are unique, and every task's owner is one of them
    or ``-1`` (standalone).  A market without requesters does no
    accounting, so its tasks' owners go unchecked."""
    if len(set(known)) != len(known):
        raise ValidationError("duplicate requester ids")
    if len(known):
        # A sorted lookup, not np.isin/np.unique: those import numpy.ma,
        # about 1 MB resident in every process that builds a market.
        known_ids = np.sort(np.asarray(known, dtype=int))
        slot = np.searchsorted(known_ids, requester_ids)
        found = known_ids[slot.clip(max=known_ids.size - 1)] == requester_ids
        reject_first(
            "task", ids, (requester_ids != -1) & ~found,
            "references unknown requester {}", requester_ids,
        )

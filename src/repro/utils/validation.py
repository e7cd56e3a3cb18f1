"""Argument-validation helpers.

These raise :class:`repro.errors.ValidationError` with messages that
name the offending argument, so failures surface at the API boundary
instead of deep inside a solver.

The array rules of the assignment problem live here, each written
once: a weight matrix (:func:`check_weights`), a capacity vector
(:func:`check_capacities`) and a start vector (:func:`check_start`);
the column checks that name the first offending entity by its id
(:func:`reject_first`, :func:`check_unique_ids`).
:class:`~repro.benefit.matrices.BenefitMatrices`,
:meth:`MBAProblem.from_benefits
<repro.core.problem.MBAProblem.from_benefits>` and every public
matching kernel call them, so one bad input gives one text wherever it
enters.  The entity checks of :mod:`repro.market.checks` share
:func:`check_shape` and :func:`check_integers`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0`` (so not NaN); return it for chaining."""
    if not value >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_probability_matrix(name: str, matrix: np.ndarray) -> np.ndarray:
    """Require a row-stochastic matrix (rows sum to 1, entries in [0, 1])."""
    arr = _two_d(name, matrix)
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    row_sums = arr.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        raise ValidationError(
            f"{name} rows must sum to 1, got row sums {row_sums!r}"
        )
    return arr


def check_shape(name: str, array: np.ndarray, expected: tuple[int, ...]) -> None:
    if array.shape != expected:
        raise ValidationError(
            f"{name} has shape {array.shape}, expected {expected}"
        )


def check_integers(**columns: np.ndarray) -> None:
    """Each column has an integer dtype: a column of whole floats is
    refused too, so no later ``dtype=int`` cast can truncate one."""
    for name, values in columns.items():
        if values.size and values.dtype.kind not in "iu":
            raise ValidationError(f"{name} must be integers, got {values.dtype}")


def reject_first(
    kind: str,
    ids: Sequence,
    bad: np.ndarray,
    message: str,
    values: np.ndarray | None = None,
) -> None:
    """Raise for the first entity flagged in ``bad``, named by its id;
    ``message`` is formatted with that entity's entry of ``values``
    when given."""
    if bad.any():
        i = int(bad.argmax())
        if values is not None:
            message = message.format(values[i])
        raise ValidationError(f"{kind} {ids[i]}: {message}")


def check_unique_ids(kind: str, ids: Sequence) -> None:
    """No id repeats; a failure names the first entry whose id an
    earlier entry already holds."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    repeat = np.zeros(ids.size, dtype=bool)
    repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    if repeat.any():
        raise ValidationError(f"duplicate {kind} id {ids[repeat.argmax()]}")


def check_same_shape(what: str, *arrays: np.ndarray) -> None:
    """All of ``arrays`` share one shape."""
    shapes = [np.shape(array) for array in arrays]
    if len(set(shapes)) > 1:
        raise ValidationError(
            f"{what} must share one shape, got "
            + ", ".join(map(str, shapes))
        )


def _two_d(name: str, matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {matrix.shape}")
    return matrix


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} must be finite")


def check_weights(
    weights, name: str = "weights", *, wide: bool = False
) -> np.ndarray:
    """``weights`` as a 2-D float matrix of finite entries; with
    ``wide``, one with at most as many rows as columns (every row is
    then assignable to a distinct column)."""
    weights = _two_d(name, weights)
    n, m = weights.shape
    if wide and n > m:
        raise ValidationError(
            f"{name} must have n_rows <= n_cols, got {n} x {m}; "
            "transpose or pad the matrix"
        )
    _check_finite(name, weights)
    return weights


def check_capacities(name: str, caps, size: int) -> np.ndarray:
    """``caps`` as a length-``size`` vector of non-negative integers
    (an ``int64`` copy)."""
    caps = np.asarray(caps)
    check_shape(name, caps, (size,))
    check_integers(**{name: caps})
    if not (caps >= 0).all():
        raise ValidationError(f"{name} must be non-negative")
    return caps.astype(np.int64)


def check_start(name: str, start, size: int) -> np.ndarray:
    """``start`` as a fresh length-``size`` float vector of finite
    entries, which the caller may update in place."""
    start = np.array(start, dtype=float)
    check_shape(name, start, (size,))
    _check_finite(name, start)
    return start

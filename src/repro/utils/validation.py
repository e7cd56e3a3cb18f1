"""Argument-validation helpers.

These raise :class:`repro.errors.ValidationError` with messages that
name the offending argument, so failures surface at the API boundary
instead of deep inside a solver.
"""

from __future__ import annotations

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
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    row_sums = arr.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        raise ValidationError(
            f"{name} rows must sum to 1, got row sums {row_sums!r}"
        )
    return arr

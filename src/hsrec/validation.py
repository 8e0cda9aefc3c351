"""Input checks shared by the estimator and the numeric entry points.  Seeds
need none: seeded code passes them straight to ``np.random.default_rng``."""

from __future__ import annotations

import numpy as np

from .exceptions import NotFittedError


def check_array(X, *, dtype=np.float64, ndim=2, finite=True, name="X") -> np.ndarray:
    """Coerce ``X`` to a contiguous ndarray and validate shape and finiteness."""
    arr = np.ascontiguousarray(X, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def check_is_fitted(estimator, attributes) -> None:
    """Raise NotFittedError unless all trailing-underscore attributes exist."""
    if isinstance(attributes, str):
        attributes = [attributes]
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first "
            f"(missing {', '.join(missing)})"
        )


def check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")

"""Numeric helpers the test suite shares."""

import numpy as np


def max_abs(m) -> float:
    """Largest entry magnitude; 0.0 for an empty array."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0

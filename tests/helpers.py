"""Numeric helpers the test suite shares."""

import numpy as np

from mubkit.matcore import as_matrix


def max_abs(m) -> float:
    """Largest entry magnitude; 0.0 for an empty array."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


def matrix_to_json(m) -> dict:
    """The matrix file format as a dict, built entry by entry: the byte oracle
    for matcore.write_matrix's template (json.dumps(matrix_to_json(m), indent=2))."""
    m = as_matrix(m)
    rows, cols = m.shape
    data = [[{"re": float(m[i, j].real), "im": float(m[i, j].imag)} for j in range(cols)]
            for i in range(rows)]
    return {"rows": rows, "cols": cols, "data": data}

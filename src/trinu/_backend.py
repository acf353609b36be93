"""Numerical backend for the small Hermitian eigenproblems: LAPACK via numpy."""

import numpy as np


def eigvalsh_small(h):
    """Ascending eigenvalues of a complex Hermitian matrix or a stack of them.

    ``h`` has shape (..., n, n); the result has shape (..., n).  Any
    sub-tolerance Hermiticity defect of the input is symmetrized away first.
    """
    h = np.asarray(h, dtype=np.complex128)
    return np.linalg.eigvalsh(0.5 * (h + np.swapaxes(h, -1, -2).conj()))

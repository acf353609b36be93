"""Numerical backend for the small Hermitian eigenproblems: LAPACK via numpy."""

import numpy as np


def eigvalsh_small(h):
    """Ascending eigenvalues of a complex Hermitian matrix or a stack of them.

    ``h`` has shape (..., n, n); the result has shape (..., n).  Only the
    lower triangle is read, so ``h`` must already be Hermitian.
    """
    return np.linalg.eigvalsh(h)

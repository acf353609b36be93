"""Dense complex linear algebra for matrices up to 8x8.

Everything here operates on plain ``numpy`` arrays and broadcasts over
leading axes, so a stack of matrices is handled in one call.  The
three-qubit index convention is fixed once and for all: qubit A is the most
significant bit of the 3-bit basis index, so ``|100>`` sits at index 4.
"""

import numpy as np

from ._backend import eigvalsh_small

#: Maximum tolerated Hermiticity defect max|m - m^dagger|.
HERMITICITY_TOL = 1e-12

#: Eigenvalues above this (negative) floor count as non-negative.
PSD_TOL = 1e-10

QUBITS = "ABC"


def check_hermitian(m):
    """Raise ``ValueError`` if ``m`` (one matrix or a stack) deviates from
    Hermiticity, max|m - m^dagger| over the whole stack, by more than
    ``HERMITICITY_TOL``."""
    m = np.asarray(m)
    defect = float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))
    if not defect <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )


def hermitian_eigenvalues(m):
    """All eigenvalues of a Hermitian matrix, ascending, shape (..., n).

    ``m`` is one (n, n) matrix or a stack of shape (..., n, n); a stack is
    solved in one batched call.  Raises ``ValueError`` if any input deviates
    from Hermiticity by more than ``HERMITICITY_TOL``; a smaller defect is
    symmetrized away before the solve.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    check_hermitian(m)
    return eigvalsh_small(0.5 * (m + np.swapaxes(m, -1, -2).conj()))


#: Entries of a 4x4 matrix outside the X pattern (diagonal and anti-diagonal).
_OFF_X = (np.array([0, 0, 1, 1, 2, 2, 3, 3]), np.array([1, 2, 0, 3, 0, 3, 1, 2]))


def _eig2(a, d, b):
    """Determinant and eigenvalues of 2x2 Hermitian blocks [[a, b*], [b, d]].

    ``a`` and ``d`` are real, ``b`` complex, all of one shape; returns
    (det, smaller, larger) of that shape.  The larger eigenvalue is
    (a + d)/2 + hypot((a - d)/2, |b|).  Where a + d > 0 the smaller is det
    over the larger, which does not cancel when it is near 0.  Elsewhere the
    sum for the larger can cancel to a rounding residue of either sign,
    which makes that quotient meaningless, while the difference (a + d)/2 -
    hypot(...) for the smaller does not cancel.
    """
    mean = (a + d) / 2.0
    radius = np.hypot((a - d) / 2.0, np.abs(b))
    hi = mean + radius
    det = a * d - (b.real ** 2 + b.imag ** 2)
    positive = mean > 0.0
    lo = np.where(positive, det / np.where(positive, hi, 1.0), mean - radius)
    return det, lo, hi


def _x_spectra(m):
    """X-block eigenvalues of a Hermitian (..., 4, 4) stack and its partial transpose.

    Returns ``off``, shape (...), the largest |entry| outside the X pattern;
    the eigenvalues of the blocks {|00>, |11>} and {|01>, |10>} of ``m`` as
    (..., 4), (smaller, larger) of the first block, then of the second; and
    the same for the partial transpose of ``m``.  A partial transpose, on
    either qubit, maps the X pattern onto itself: it keeps the diagonal and
    trades the blocks' off-diagonal entries, so its blocks take |m[1, 2]|
    and |m[0, 3]| where those of ``m`` take |m[3, 0]| and |m[2, 1]|.  Each
    block's eigenvalues come from ``_eig2``.
    """
    diag = np.diagonal(m, axis1=-2, axis2=-1).real
    a, d = diag[..., [0, 1, 0, 1]], diag[..., [3, 2, 3, 2]]
    _, lo, hi = _eig2(a, d, m[..., [3, 2, 1, 0], [0, 1, 2, 3]])
    off = np.abs(m[..., _OFF_X[0], _OFF_X[1]]).max(axis=-1)
    w = np.stack([lo, hi], axis=-1).reshape(m.shape[:-2] + (2, 4))
    return off, w[..., 0, :], w[..., 1, :]


def _check_x_psd(off, w):
    """Raise ``ValueError`` unless ``_x_spectra(m)[:2]`` shows an X-shaped, PSD ``m``.

    Every entry outside the X pattern must be within ``HERMITICITY_TOL`` of
    zero.  That off-X part is Hermitian with at most two entries per row, so
    its spectral norm is at most twice its largest entry, and (Weyl) every
    eigenvalue of the matrix is within that of an X-block eigenvalue.  So
    the smallest block eigenvalue minus twice the largest off-X entry must
    exceed ``-PSD_TOL``: a test never weaker than requiring every exact
    eigenvalue to exceed it.
    """
    worst = float(off.max())
    if not worst <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(
            f"matrix is not an X state: off-X entry {worst:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    low = float((w.min(axis=-1) - 2.0 * off).min())
    if not low > -PSD_TOL:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue bound {low:.3e} is below {-PSD_TOL:.1e}"
        )


def _qubit_axes(keep):
    keep = "".join(sorted(set(keep.upper())))
    if not keep or any(q not in QUBITS for q in keep):
        raise ValueError(f"keep must name a subset of {QUBITS!r}, got {keep!r}")
    if len(keep) == len(QUBITS):
        raise ValueError("keep must be a proper subset: tracing nothing out")
    return [QUBITS.index(q) for q in keep]


def partial_trace(rho, keep):
    """Trace 8x8 three-qubit density matrices down to the qubits in ``keep``.

    ``rho`` is one 8x8 matrix or a stack of shape (..., 8, 8).  ``keep`` is
    a string naming one or two of "A", "B", "C".  Qubit A is the most
    significant bit of the basis index.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {rho.shape}")
    check_hermitian(rho)
    return _partial_trace(rho, keep)


def _partial_trace(rho, keep):
    """``partial_trace`` of a complex (..., 8, 8) stack, without input checks."""
    kept = _qubit_axes(keep)
    ket = "abc"
    bra = "".join(q.upper() if i in kept else q for i, q in enumerate(ket))
    out = "".join(ket[i] for i in kept) + "".join(bra[i] for i in kept)
    t = np.einsum(f"...{ket}{bra}->...{out}", rho.reshape(rho.shape[:-2] + (2,) * 6))
    d = 2 ** len(kept)
    return t.reshape(rho.shape[:-2] + (d, d))


def partial_transpose(rho, on=0):
    """Transpose one qubit of a two-qubit (4x4) matrix or of a (..., 4, 4) stack.

    ``on`` selects the qubit: 0 for the first (most significant bit), 1 for
    the second.  Pure index permutation, so applying it twice is bit-exact.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if on not in (0, 1):
        raise ValueError("on must be 0 (first qubit) or 1 (second qubit)")
    t = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    t = np.swapaxes(t, -4, -2) if on == 0 else np.swapaxes(t, -3, -1)
    # the swapped axes never merge back into a view, so this reshape copies
    return t.reshape(rho.shape)

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


def _check_psd(m):
    """Raise ``ValueError`` unless every eigenvalue of ``m`` exceeds ``-PSD_TOL``.

    ``m`` is an (..., n, n) stack already checked to be Hermitian (and
    so finite) with ``check_hermitian``; only its lower triangle is read.  The
    test is one batched Cholesky factorization of ``m + PSD_TOL * I``, which
    exists exactly when the smallest eigenvalue of ``m`` is above
    ``-PSD_TOL``.  The eigenvalues are computed only to report a failure.
    """
    try:
        np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        w = eigvalsh_small(m)[..., 0].min()
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {w:.3e} is below {-PSD_TOL:.1e}"
        ) from None


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

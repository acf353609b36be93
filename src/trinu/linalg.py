"""Dense complex linear algebra for matrices up to 8x8.

Everything here operates on plain ``numpy`` arrays and broadcasts over
leading axes, so a stack of matrices is handled in one call.  The private
helpers ``_partial_trace`` and ``_x_spectra`` take entry rows instead:
shape (d, d, ...), the matrix axes first and the states after them, so that
each entry of every matrix is one contiguous row.  ``_partial_trace`` is the
reference that the generic route's pair reductions, formed from the state
vectors, are tested against.  ``_x_spectra``, a step of the generic route,
tests the X pattern its closed form relies on, and gives the
spectra of the partial transposes only: the negativities read them, and no
check of the route reads the spectra of the matrices themselves.  The
three-qubit index convention is fixed once and for all: qubit A is the most
significant bit of the 3-bit basis index, so ``|100>`` sits at index 4.
"""

import itertools

import numpy as np

from ._backend import eigvalsh_small

#: Maximum tolerated Hermiticity defect max|m - m^dagger|, and off-X entry
#: of a matrix that ``_x_spectra`` takes as an X matrix.
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


def _eig2(a, d, b):
    """Determinant and eigenvalues of 2x2 Hermitian blocks [[a, b*], [b, d]].

    ``a`` and ``d`` are real, ``b`` complex, of shapes that broadcast
    together; returns (det, smaller, larger) of the broadcast shape.  The
    larger eigenvalue is (a + d)/2 + hypot((a - d)/2, |b|).  Where a + d > 0
    the smaller is det over the larger, which does not cancel when it is
    near 0.  Elsewhere the sum for the larger can cancel to a rounding
    residue of either sign, which makes that quotient meaningless, while the
    difference (a + d)/2 - hypot(...) for the smaller does not cancel.
    """
    mean = (a + d) / 2.0
    radius = np.hypot((a - d) / 2.0, np.abs(b))
    hi = mean + radius
    det = a * d - (b.real ** 2 + b.imag ** 2)
    positive = mean > 0.0
    lo = np.where(positive, det / np.where(positive, hi, 1.0), mean - radius)
    return det, lo, hi


def _x_spectra(m):
    """X-block eigenvalues of the partial transposes of Hermitian 4x4 X matrices.

    ``m`` holds the matrices as entry rows, shape (4, 4, ...): ``m[r, c]``
    is entry (r, c) of every matrix.  Raises ``ValueError`` unless every
    entry outside the X pattern is within ``HERMITICITY_TOL`` of zero, and
    returns the eigenvalues of the blocks {|00>, |11>} and {|01>, |10>} of
    the partial transpose of ``m`` as (4, ...) rows: (smaller, larger) of
    the first block, then of the second.  A partial transpose, on either
    qubit, maps the X pattern onto itself: it keeps the diagonal and trades
    the blocks' off-diagonal entries, so its blocks take |m[1, 2]| and
    |m[0, 3]|.  Every entry is read through a strided view of the flat
    entry rows, so nothing is copied before ``_eig2`` takes the eigenvalues
    of both blocks at once.
    """
    # off the X: m[0, 1:3], m[3, 1:3], m[1, 0::3] and m[2, 0::3]
    off = float(np.maximum(np.abs(m[0::3, 1:3]).max(), np.abs(m[1:3, 0::3]).max()))
    if not off <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(
            f"matrix is not an X state: off-X entry {off:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    flat = m.reshape((16,) + m.shape[2:])
    # the blocks' entries a, (m[0, 0], m[1, 1]), d, (m[3, 3], m[2, 2]), and
    # b, (m[1, 2], m[0, 3]) at flat 6 and 3
    a, d, b = flat[0:6:5].real, flat[15:9:-5].real, flat[6:2:-3]
    _, lo, hi = _eig2(a, d, b)
    return np.stack([lo, hi], axis=1).reshape((4,) + m.shape[2:])


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
    rows = _partial_trace(np.moveaxis(rho, (-2, -1), (0, 1)), keep)
    return np.moveaxis(rows, (0, 1), (-2, -1))


def _partial_trace(rows, keep):
    """``partial_trace`` of entry rows (8, 8, ...), as entry rows (d, d, ...).

    No input checks.  The rows, reshaped to the qubit axes (a, b, c, a', b',
    c', ...), give each reduced entry as the sum of the diagonal slices over
    the traced qubits: two for a pair, added by one ``np.add``, four for a
    single qubit.
    """
    kept = _qubit_axes(keep)
    traced = [q for q in range(len(QUBITS)) if q not in kept]
    t = rows.reshape((2,) * 6 + rows.shape[2:])
    terms = []
    for bits in itertools.product((0, 1), repeat=len(traced)):
        index = [slice(None)] * 6
        for q, bit in zip(traced, bits):
            index[q] = index[q + 3] = bit
        terms.append(t[tuple(index)])
    d = 2 ** len(kept)
    out = np.empty((d, d) + rows.shape[2:], dtype=np.complex128)
    sums = out.reshape(terms[0].shape)
    np.add(terms[0], terms[1], out=sums)
    for term in terms[2:]:
        sums += term
    return out


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

"""Three-qubit occupation-number encoding of a flavor state.

Mapping: |nu_e> = |100>, |nu_mu> = |010>, |nu_tau> = |001>, with qubit A the
most significant bit.  The evolved state lives entirely in the
single-excitation subspace spanned by basis indices {4, 2, 1}.
"""

from dataclasses import dataclass

import numpy as np

#: Basis indices of (|100>, |010>, |001>).
OCCUPATION_INDICES = (4, 2, 1)

NORM_TOL = 1e-10


@dataclass(frozen=True)
class TripartiteState:
    """Pure W-class state a_e|100> + a_mu|010> + a_tau|001>."""

    a_e: complex
    a_mu: complex
    a_tau: complex

    def __post_init__(self):
        norm = abs(self.a_e) ** 2 + abs(self.a_mu) ** 2 + abs(self.a_tau) ** 2
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"state norm^2 is {float(norm)!r}, expected 1 within {NORM_TOL}")

    def amplitudes(self):
        return (self.a_e, self.a_mu, self.a_tau)

    def probabilities(self):
        """Excitation probability of each qubit (A, B, C)."""
        return tuple(abs(a) ** 2 for a in self.amplitudes())


def make_state(amps):
    """Build a TripartiteState from a 3-sequence of amplitudes (a_e, a_mu, a_tau)."""
    a_e, a_mu, a_tau = (complex(a) for a in amps)
    return TripartiteState(a_e, a_mu, a_tau)


def occupation_vectors(amps):
    """State vectors of W-class states in the three-qubit basis, checked.

    ``amps`` holds amplitudes (a_e, a_mu, a_tau) on its last axis.  Returns
    an (8, ...) array: basis index first, one contiguous row per index, with
    the amplitudes at ``OCCUPATION_INDICES`` and exact zeros elsewhere.
    Every state must be normalized to within ``NORM_TOL``.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape[-1:] != (3,):
        raise ValueError(
            f"expected amplitudes on a last axis of length 3, got shape {amps.shape}"
        )
    rows = [amps[..., k] for k in range(3)]
    squares = [np.abs(row) ** 2 for row in rows]
    norm = squares[0] + squares[1] + squares[2]
    # the smallest and the largest norm decide; NaN fails both comparisons
    if norm.size and not (norm.min() - 1.0 >= -NORM_TOL and norm.max() - 1.0 <= NORM_TOL):
        bad = ~(np.abs(norm - 1.0) <= NORM_TOL)
        raise ValueError(
            f"state norm^2 is {float(norm[bad].flat[0])!r}, expected 1 within {NORM_TOL}"
        )
    v = np.zeros((8,) + amps.shape[:-1], dtype=np.complex128)
    for index, row in zip(OCCUPATION_INDICES, rows):
        v[index] = row
    return v


def density(amps):
    """Density matrices |psi><psi| of W-class states.

    ``amps`` holds amplitudes (a_e, a_mu, a_tau) on its last axis and gives
    a (..., 8, 8) stack.  Every row must be normalized to within ``NORM_TOL``
    (``occupation_vectors`` checks them).

    The matrices are built as entry rows (8, 8, ...), one contiguous row
    v_i conj(v_j) per entry, and returned as a (..., 8, 8) view of them:
    ``np.moveaxis(rho, (-2, -1), (0, 1))`` gives the rows back without a
    copy.
    """
    v = occupation_vectors(amps)
    return np.moveaxis(v[:, None] * v[None, :].conj(), (0, 1), (-2, -1))

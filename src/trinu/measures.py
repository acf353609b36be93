"""Tripartite entanglement measures for W-class three-qubit states.

Every measure is available along two independent routes:

* a *generic* route that works on the 8x8 density matrix through partial
  traces and the spectra of the two-qubit reductions and of their partial
  transposes, batched over stacks of states.  Those reductions are X
  states, so all these spectra come in closed form from 2x2 blocks, and
* a *closed-form* route expressed directly in the three oscillation
  probabilities.

The two must agree to 1e-10, which is the main cross-check of the library.

Convention note: the negativity used here is the trace-norm deficit
N = ||rho^T||_1 - 1, i.e. twice the sum of the magnitudes of the negative
eigenvalues of the partial transpose.  This is the unique normalization for
which N_{A(BC)} equals the one-to-other concurrence sqrt(2[1 - Tr(rho_A^2)])
on pure states, and it reproduces the closed-form three-pi expression.
"""

import functools

import numpy as np

from . import linalg, tristate
from ._backend import eigvalsh_small
from .oscillation import amplitude_array, checked_probabilities

#: Probabilities below this are treated as exact zeros in the closed forms.
PROB_SNAP = 1e-15

#: Final measure values within this of zero are snapped to exactly zero.
VALUE_SNAP = 1e-14

MEASURE_NAMES = ("ggm", "three_pi", "gmc", "fill")

#: Columns of a measure table, as ``table`` returns them and sweeps write them.
CSV_COLUMNS = (
    "le_km_per_GeV", "p_e", "p_mu", "p_tau",
    "ggm", "three_pi", "gmc", "fill",
    "edge_a", "edge_b", "edge_c",
)


def _snap(x):
    x = np.where(np.abs(x) < VALUE_SNAP, 0.0, x)
    return np.maximum(x, 0.0)


def check_triangles(edges):
    """Raise ``ValueError`` unless every row of ``edges`` (..., 3) is a triangle.

    Each edge must lie in [0, 1] and none may exceed the sum of the other
    two, both within 1e-10.
    """
    edges = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    bad = ~((edges >= -1e-10) & (edges <= 1.0 + 1e-10))
    if np.any(bad):
        raise ValueError(f"triangle edge {float(edges[bad][0])!r} outside [0, 1]")
    total = edges.sum(axis=-1, keepdims=True)
    bad = edges > total - edges + 1e-10
    if np.any(bad):
        row = int(np.nonzero(bad.any(axis=-1))[0][0])
        raise ValueError(
            f"edge {float(edges[bad][0])!r} violates the triangle inequality against "
            f"{tuple(edges[row].tolist())}"
        )


# ---------------------------------------------------------------------------
# closed-form route: everything as a function of the probability triple.
# All functions broadcast over a trailing axis of length 3.
# ---------------------------------------------------------------------------

def _one_row_as_stack(fn):
    """Evaluate a single (3,) input as the one row of a (1, 3) stack.

    numpy's scalar power rounds the fourth root differently from its array
    loop, so a lone triple would otherwise differ in the last bit from the
    same triple inside a stack.  A tuple result is unstacked item by item.
    """
    @functools.wraps(fn)
    def wrapper(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            return fn(x)
        out = fn(x[None])
        return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]
    return wrapper


@_one_row_as_stack
def _closed_form(p):
    """(ggm, three_pi, gmc, fill) as (..., 4) and the triangle edges as (..., 3).

    Probabilities below ``PROB_SNAP`` count as zero.  A triangle whose
    shortest edge snaps to zero is degenerate and fills nothing, so the fill
    is forced to 0 there; this keeps the closed form consistent with the
    Heron evaluation on snapped edges.
    """
    p = np.where(p < PROB_SNAP, 0.0, p)
    pe, pm, pt = p[..., 0], p[..., 1], p[..., 2]
    # P_y + P_z for each P_x, in place of 1 - P_x, which cancels as P_x nears 1
    rest = np.stack([pm + pt, pe + pt, pe + pm], axis=-1)
    # edges 4 P_x (P_y + P_z)
    edges = _snap(4.0 * p * rest)
    # 1 minus the largest single-qubit eigenvalue max(P_x, P_y + P_z): the smallest
    ggm = _snap(np.minimum(p, rest).min(axis=-1))
    # average residual negativity-squared of the three one-qubit focuses,
    # 4/3 sum_x P_x (sqrt(P_x^2 + 4 P_y P_z) - P_x), with each difference as
    # 4 P_y P_z / (P_x + sqrt(...)), which does not cancel near product
    # states; a denominator is 0 only at basis states, where the product is
    product = pe * pm * pt
    den = p + np.sqrt(p ** 2 + 4.0 * np.stack([pm * pt, pe * pt, pe * pm], axis=-1))
    three_pi = _snap(16.0 / 3.0 * product * (1.0 / np.where(den > 0.0, den, 1.0)).sum(axis=-1))
    # the shortest edge (squared convention)
    gmc = _snap(edges.min(axis=-1))
    # the concurrence fill via the explicit W-class product formula
    inner = product ** 2 * (pm * pt + pe * (pm + pt)) / 3.0
    fill = np.where(gmc > 0.0, _snap(8.0 * np.maximum(inner, 0.0) ** 0.25), 0.0)
    return np.stack([ggm, three_pi, gmc, fill], axis=-1), edges


def measures_from_probs(p):
    """(ggm, three_pi, gmc, fill) stacked on the last axis, shape (..., 4)."""
    return _closed_form(p)[0]


@_one_row_as_stack
def heron_fill(edges):
    """Concurrence fill from triangle edges: [16/3 Q prod(Q - edge)]^(1/4).

    ``edges`` has shape (..., 3); the result has shape (...).

    Evaluated through Kahan's rearrangement of Heron's formula (edges sorted,
    16 A^2 = (a+(b+c)) (c-(a-b)) (c+(a-b)) (a+(b-c)) with a >= b >= c), which
    keeps the relative error small even for needle-like triangles.  The one
    factor that can go negative is clamped at zero, so collinear (degenerate)
    and slightly inequality-violating triangles give 0 instead of a domain
    error.
    """
    s = np.sort(np.asarray(edges, dtype=np.float64), axis=-1)
    c, b, a = s[..., 0], s[..., 1], s[..., 2]
    prod = (
        (a + (b + c))
        * np.maximum(c - (a - b), 0.0)
        * (c + (a - b))
        * (a + (b - c))
    )
    return _snap((np.maximum(prod, 0.0) / 3.0) ** 0.25)


# ---------------------------------------------------------------------------
# generic route: density-matrix reductions and their closed-form X-block
# spectra, batched over stacks of states.
# ---------------------------------------------------------------------------

#: States per batch of the generic route; bounds its working memory.
GENERIC_CHUNK = 256


def negativity(rho):
    """Trace-norm deficit ||rho^T||_1 - 1 of a two-qubit partial transpose.

    ``rho`` is one 4x4 density matrix, giving a float, or a (..., 4, 4)
    stack, giving an array of shape (...).  Every matrix must be Hermitian
    and positive semidefinite, both within the ``linalg`` tolerances; it
    need not be an X state.  The first qubit is transposed; rho^{T_B} =
    (rho^{T_A})^T has the same spectrum, so the choice does not change the
    result.  This is the general version, with a Cholesky PSD test and a
    LAPACK eigensolve: the generic route takes its negativities from X-block
    spectra instead, and is tested against this function.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    linalg.check_hermitian(rho)
    linalg._check_psd(rho)
    wt = eigvalsh_small(linalg.partial_transpose(rho))
    n = _snap(-2.0 * np.where(wt < 0.0, wt, 0.0).sum(axis=-1))
    return float(n) if n.ndim == 0 else n


def _generic_chunk(amps):
    rho = tristate.density(amps)
    # the one Hermiticity check: every reduction below, and its partial
    # transpose, inherits it, so none is checked or symmetrized again
    linalg.check_hermitian(rho)
    pairs = np.stack([linalg._partial_trace(rho, pair) for pair in ("AB", "AC", "BC")],
                     axis=-3)
    # rho_A and rho_B are partial traces of rho_AB, rho_C one of rho_AC
    ab, ac = pairs[..., 0, :, :], pairs[..., 1, :, :]
    singles = np.stack([
        ab[..., 0::2, 0::2] + ab[..., 1::2, 1::2],
        ab[..., :2, :2] + ab[..., 2:, 2:],
        ac[..., :2, :2] + ac[..., 2:, 2:],
    ], axis=-3)
    # the edge 2[1 - Tr(rho_X^2)] as 4 det(rho_X): the same quantity for a
    # unit-trace 2x2 matrix, but free of the cancellation that 1 - Tr(rho^2)
    # suffers near product states
    det = (singles[..., 0, 0] * singles[..., 1, 1]
           - singles[..., 0, 1] * singles[..., 1, 0]).real
    edges = _snap(4.0 * det)
    check_triangles(edges)
    # largest eigenvalue of each 2x2 Hermitian [[a, b*], [b, d]]:
    # (a + d)/2 + hypot((a - d)/2, |b|); the smallest is det over it, which
    # unlike 1 minus it does not cancel near product states
    a, d = singles[..., 0, 0].real, singles[..., 1, 1].real
    lam = (a + d) / 2.0 + np.hypot((a - d) / 2.0, np.abs(singles[..., 1, 0]))
    # every two-qubit reduction of a W-class state is an X state (Yu and
    # Eberly, QIC 7, 459 (2007)), so its spectrum, and that of its partial
    # transpose, comes in closed form from two 2x2 blocks.  The transpose
    # maps the X pattern onto itself, so it needs no check of its own.
    off, w, wt = linalg._x_spectra(pairs)
    linalg._check_x_psd(off, w)
    neg = np.minimum(wt, 0.0)
    n_ab, n_ac, n_bc = np.moveaxis(_snap(-2.0 * neg.sum(axis=-1)) ** 2, -1, 0)
    pi_a = edges[..., 0] - n_ab - n_ac
    pi_b = edges[..., 1] - n_ab - n_bc
    pi_c = edges[..., 2] - n_ac - n_bc
    values = np.stack([
        _snap((det / lam).min(axis=-1)),
        _snap((pi_a + pi_b + pi_c) / 3.0),
        _snap(edges.min(axis=-1)),
        heron_fill(edges),
    ], axis=-1)
    return values, edges


def generic_measures(amps):
    """All four measures and the concurrence triangle along the generic route.

    ``amps`` holds W-class amplitudes (a_e, a_mu, a_tau) on the rows of an
    (n, 3) array.  Returns (ggm, three_pi, gmc, fill) as an (n, 4) array and
    the triangle edges as an (n, 3) array.  The states are processed in
    batches of ``GENERIC_CHUNK``.  Per batch: one stack of density matrices
    with one Hermiticity check; its three two-qubit reductions, from which
    the single-qubit reductions are summed; the largest eigenvalue of each
    2x2 reduction in closed form; the 2x2 blocks of the two-qubit
    reductions and of their partial transposes, in closed form; one
    X-structure and PSD test of the reductions from their blocks; and the
    negativities from the blocks of the partial transposes.  No LAPACK
    solver is called.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != 3:
        raise ValueError(f"expected amplitudes of shape (n, 3), got {amps.shape}")
    parts = [_generic_chunk(amps[i:i + GENERIC_CHUNK])
             for i in range(0, len(amps), GENERIC_CHUNK)]
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([e for _, e in parts]))


def _state_measures(state):
    return generic_measures([state.amplitudes()])[0][0].tolist()


def ggm(state):
    """The smallest eigenvalue among the three one-qubit reductions (1 minus the largest)."""
    return _state_measures(state)[0]


def three_pi(state):
    """Average of the three residual entanglements pi_A, pi_B, pi_C."""
    return _state_measures(state)[1]


def gmc(state):
    """Shortest edge of the concurrence triangle (squared convention)."""
    return _state_measures(state)[2]


def concurrence_fill(state):
    """Concurrence fill via Heron's formula on the generic triangle edges."""
    return _state_measures(state)[3]


# ---------------------------------------------------------------------------
# the measure table: every query is rows of it.
# ---------------------------------------------------------------------------

PATHS = ("closed-form", "generic")


def table(params, initial, le, path="closed-form"):
    """Probabilities, the four measures and the triangle edges over an L/E array.

    ``le`` is a 1-D array of L/E values (km/GeV).  Returns an (n, 11) array
    whose columns are ``CSV_COLUMNS``.  Both routes take the probabilities
    |a|^2 of one amplitude evaluation; the closed form works from them, the
    generic route from the amplitudes.  The probabilities and the triangles
    are validated on either route.
    """
    if path not in PATHS:
        raise ValueError(f"path must be one of {PATHS}, got {path!r}")
    amps = amplitude_array(params, initial, le)
    probs = checked_probabilities(amps.real ** 2 + amps.imag ** 2)
    if path == "closed-form":
        vals, edges = _closed_form(probs)
        check_triangles(edges)
    else:
        vals, edges = generic_measures(amps)
    return np.column_stack([le, probs, vals, edges])


def report(params, initial, le, path="closed-form"):
    """Probabilities, all four measures and the triangle edges at one L/E point (km/GeV).

    This is the one row of ``table`` at ``le`` as a dict keyed by
    ``CSV_COLUMNS`` in column order, so it equals the matching row of any
    sweep bit for bit.
    """
    row = table(params, initial, np.array([le], dtype=np.float64), path=path)[0]
    return dict(zip(CSV_COLUMNS, row.tolist()))

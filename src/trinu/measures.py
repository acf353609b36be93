"""Tripartite entanglement measures for W-class three-qubit states.

Every measure is available along two independent routes:

* a *generic* route that works on the 8x8 density matrix through partial
  traces and the spectra of the two-qubit reductions and of their partial
  transposes, batched over stacks of states.  Those reductions are X
  states, so all these spectra come in closed form from 2x2 blocks, and
* a *closed-form* route expressed directly in the three oscillation
  probabilities.  It works on them as component rows (p_e, p_mu, p_tau),
  so that each quantity it forms is one contiguous row of a block.

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
from .oscillation import _clip_probability_rows, amplitude_array

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
    """Set the entries of the array ``x`` within ``VALUE_SNAP`` of zero, and
    the negative ones, to +0.0, in place; returns ``x``."""
    np.copyto(x, 0.0, where=np.abs(x) < VALUE_SNAP)
    return np.maximum(x, 0.0, out=x)


def check_triangles(edges):
    """Raise ``ValueError`` unless every row of ``edges`` (..., 3) is a triangle.

    Each edge must lie in [0, 1] and none may exceed the sum of the other
    two, both within 1e-10.
    """
    _check_triangle_rows(np.asarray(edges, dtype=np.float64).reshape(-1, 3).T)


def _check_triangle_rows(rows):
    """``check_triangles`` on edges held as component rows, shape (3, n).

    Each predicate is tested by whole-array reductions, and the offending
    edge is looked for only when one fails, in the order of the (n, 3)
    layout.  ``min`` and ``max`` return NaN if any edge is NaN, and NaN
    fails both comparisons.
    """
    edges = rows.T
    if rows.size and not (rows.min() >= -1e-10 and rows.max() <= 1.0 + 1e-10):
        bad = ~((edges >= -1e-10) & (edges <= 1.0 + 1e-10))
        raise ValueError(f"triangle edge {float(edges[bad][0])!r} outside [0, 1]")
    # each edge against (a + b + c) - edge, the sum of the other two
    slack = rows[0] + rows[1] + rows[2] - rows + 1e-10
    if np.greater(rows, slack).any():
        bad = edges > slack.T
        row = int(np.nonzero(bad.any(axis=-1))[0][0])
        raise ValueError(
            f"edge {float(edges[bad][0])!r} violates the triangle inequality against "
            f"{tuple(edges[row].tolist())}"
        )


# ---------------------------------------------------------------------------
# closed-form route: everything as a function of the probability triple.
# ``_closed_form`` works on component rows (3, ...); the public functions
# broadcast over a trailing axis of length 3.
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


def _closed_form(p):
    """(ggm, three_pi, gmc, fill) as (4, ...) rows and the triangle edges as (3, ...) rows.

    ``p`` holds the probabilities as component rows (p_e, p_mu, p_tau),
    shape (3, ...) with at least one axis after the first.  Every quantity
    is one contiguous row of a block, computed once with ``out=`` ufuncs;
    the two results are views of one (7, ...) block.

    Probabilities below ``PROB_SNAP`` count as zero.  A triangle whose
    shortest edge snaps to zero is degenerate and fills nothing, so the fill
    is forced to 0 there; this keeps the closed form consistent with the
    Heron evaluation on snapped edges.
    """
    # the snapped probabilities, then p_e and p_mu again, so that rows 1-3
    # and 2-4 hold (P_y, P_z) for each P_x in turn
    q = np.empty((5,) + p.shape[1:])
    snapped = q[:3]
    np.copyto(snapped, p)
    np.copyto(snapped, 0.0, where=p < PROB_SNAP)
    q[3:] = q[:2]
    pe, pm, pt = snapped
    # P_y + P_z for each P_x, in place of 1 - P_x, which cancels as P_x nears 1
    rest = q[1:4] + q[2:5]
    pairs = q[1:4] * q[2:5]
    block = np.empty((7,) + p.shape[1:])
    values, edges = block[:4], block[4:]
    ggm, three_pi, gmc, fill = values
    # edges 4 P_x (P_y + P_z)
    np.multiply(4.0, snapped, out=edges)
    edges *= rest
    _snap(edges)
    # the shortest edge (squared convention)
    np.min(edges, axis=0, out=gmc)
    # the concurrence fill via the explicit W-class product formula,
    # 8 [(P_e P_mu P_tau)^2 (P_mu P_tau + P_e (P_mu + P_tau)) / 3]^(1/4): its
    # factors are taken here, while rest and pairs hold their inputs; both
    # buffers are overwritten below
    product = pairs[2] * pt
    inner = pe * rest[0]
    inner += pairs[0]
    # 1 minus the largest single-qubit eigenvalue max(P_x, P_y + P_z): the smallest
    np.min(np.minimum(snapped, rest, out=rest), axis=0, out=ggm)
    # average residual negativity-squared of the three one-qubit focuses,
    # 4/3 sum_x P_x (sqrt(P_x^2 + 4 P_y P_z) - P_x), with each difference as
    # 4 P_y P_z / (P_x + sqrt(...)), which does not cancel near product
    # states; a denominator is 0 only at basis states, where the product is
    den = np.multiply(4.0, pairs, out=pairs)
    den += np.square(snapped, out=rest)
    np.sqrt(den, out=den)
    den += snapped
    np.copyto(den, 1.0, where=~(den > 0.0))
    np.divide(1.0, den, out=den)
    np.multiply(16.0 / 3.0, product, out=three_pi)
    den[0] += den[1]
    den[0] += den[2]
    three_pi *= den[0]
    # the fill, from the factors taken above
    inner *= np.square(product, out=product)
    inner /= 3.0
    np.maximum(inner, 0.0, out=inner)
    np.power(inner, 0.25, out=fill)
    fill *= 8.0
    np.copyto(fill, 0.0, where=~(gmc > 0.0))
    _snap(values)
    return values, edges


@_one_row_as_stack
def measures_from_probs(p):
    """(ggm, three_pi, gmc, fill) stacked on the last axis, shape (..., 4)."""
    return np.moveaxis(_closed_form(np.moveaxis(p, -1, 0))[0], 0, -1)


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
    result.  This is the general version, with the spectra of ``rho`` and
    of its partial transpose from ``linalg.hermitian_eigenvalues``: the
    generic route takes its negativities from X-block spectra instead, and
    is tested against this function.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    low = float(linalg.hermitian_eigenvalues(rho)[..., 0].min())
    if not low > -linalg.PSD_TOL:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {low:.3e} is below {-linalg.PSD_TOL:.1e}"
        )
    wt = linalg.hermitian_eigenvalues(linalg.partial_transpose(rho))
    n = _snap(np.asarray(-2.0 * np.where(wt < 0.0, wt, 0.0).sum(axis=-1)))
    return float(n) if n.ndim == 0 else n


def _generic_chunk(amps):
    # density has checked the amplitudes, and v v^dagger of them is Hermitian
    # to rounding, so the route makes no Hermiticity check
    rho = tristate.density(amps)
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
    # suffers near product states; the smallest eigenvalue, the ggm
    # candidate, is likewise det over the largest, not 1 minus it
    det, lo, _ = linalg._eig2(singles[..., 0, 0].real, singles[..., 1, 1].real,
                              singles[..., 1, 0])
    edges = _snap(4.0 * det)
    check_triangles(edges)
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
        _snap(lo.min(axis=-1)),
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
    batches of ``GENERIC_CHUNK``.  Per batch: one stack of density matrices;
    its three two-qubit reductions, from which the single-qubit reductions
    are summed; the spectra of the 2x2 single-qubit reductions, and of the
    2x2 blocks of the two-qubit reductions and of their partial transposes,
    all by the one closed form ``linalg._eig2``; one X-structure and PSD
    test of the reductions from their blocks; and the negativities from the
    blocks of the partial transposes.  No LAPACK solver is called.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != 3:
        raise ValueError(f"expected amplitudes of shape (n, 3), got {amps.shape}")
    if not len(amps):
        return np.empty((0, 4)), np.empty((0, 3))
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

    ``le`` is a 1-D array of L/E values (km/GeV).  Returns a C-contiguous
    (n, 11) array whose columns are ``CSV_COLUMNS``.  Both routes take the
    probabilities |a|^2 of one amplitude evaluation; the closed form works
    from them, the generic route from the amplitudes.  The probabilities and
    the triangles are validated on either route.

    The columns are built as the contiguous rows of one (11, n) block,
    which is transposed once at the end: the probabilities, and on the
    closed-form route every intermediate quantity, are computed as whole
    rows, and the checks test whole rows with a few reductions.
    """
    if path not in PATHS:
        raise ValueError(f"path must be one of {PATHS}, got {path!r}")
    amps = amplitude_array(params, initial, le)
    rows = np.empty((len(CSV_COLUMNS), len(amps)))
    rows[0] = le
    probs = rows[1:4]
    np.square(amps.real.T, out=probs)
    probs += np.square(amps.imag.T)
    _clip_probability_rows(probs)
    if path == "closed-form":
        values, edges = _closed_form(probs)
        _check_triangle_rows(edges)
    else:
        values, edges = (a.T for a in generic_measures(amps))
    rows[4:8], rows[8:] = values, edges
    return rows.T.copy()


def report(params, initial, le, path="closed-form"):
    """Probabilities, all four measures and the triangle edges at one L/E point (km/GeV).

    This is the one row of ``table`` at ``le`` as a dict keyed by
    ``CSV_COLUMNS`` in column order, so it equals the matching row of any
    sweep bit for bit.
    """
    row = table(params, initial, np.array([le], dtype=np.float64), path=path)[0]
    return dict(zip(CSV_COLUMNS, row.tolist()))

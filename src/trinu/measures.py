"""Tripartite entanglement measures for W-class three-qubit states.

Every measure is available along two independent routes:

* a *generic* route that works on the 8x8 density matrix through partial
  traces and the spectra of the one-qubit reductions and of the partial
  transposes of the two-qubit ones, batched over stacks of states.  The
  two-qubit reductions are X states, so all these spectra come in closed
  form from 2x2 blocks.  It holds the matrices as entry rows, states on the
  last axis, so each entry it reads is one contiguous row, and
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


# ---------------------------------------------------------------------------
# closed-form route: everything as a function of the probability triple.
# ``_closed_form`` works on component rows (3, ...); the public functions take
# (..., 3) as an (n, 3) stack, so a lone triple equals its row in any stack bit
# for bit (numpy's scalar power rounds the fourth root differently).
# ---------------------------------------------------------------------------

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


def measures_from_probs(p):
    """(ggm, three_pi, gmc, fill) of probabilities (..., 3), shape (..., 4)."""
    p = np.asarray(p, dtype=np.float64)
    return _closed_form(p.reshape(-1, 3).T)[0].T.reshape(p.shape[:-1] + (4,))


def heron_fill(edges):
    """Concurrence fill from triangle edges: [16/3 Q prod(Q - edge)]^(1/4).

    ``edges`` has shape (..., 3); the result has shape (...), a float for one triangle.

    Evaluated through Kahan's rearrangement of Heron's formula (edges sorted,
    16 A^2 = (a+(b+c)) (c-(a-b)) (c+(a-b)) (a+(b-c)) with a >= b >= c), which
    keeps the relative error small even for needle-like triangles.  The one
    factor that can go negative is clamped at zero, so collinear (degenerate)
    and slightly inequality-violating triangles give 0 instead of a domain
    error.
    """
    edges = np.asarray(edges, dtype=np.float64)
    c, b, a = np.sort(edges.reshape(-1, 3), axis=-1).T
    prod = (
        (a + (b + c))
        * np.maximum(c - (a - b), 0.0)
        * (c + (a - b))
        * (a + (b - c))
    )
    return _snap((np.maximum(prod, 0.0) / 3.0) ** 0.25).reshape(edges.shape[:-1])[()]


# ---------------------------------------------------------------------------
# generic route: density-matrix reductions and their closed-form X-block
# spectra, batched over stacks of states.
# ---------------------------------------------------------------------------

#: States per batch of the generic route; bounds its working memory: 64
#: complex density entries and 48 pair-reduction entries a state, 0.46 MB
#: for 256 states.  It is smaller than ``sweep.SWEEP_CHUNK``: a 4096-row
#: generic table took 7.8 ms in one 4096-state batch and 5.8 ms in batches
#: of 256.  The writer's ``sweep._BLOCK_ROWS`` (512) bounds rows of 11
#: floats, not of 112 complex entries.  512 states measured faster here as
#: well (the generic stage of a 200k-point muon sweep took 0.277 s, against
#: 0.321 s at 256), but a change waits for a benchmark workload that times
#: the generic route.
GENERIC_CHUNK = 256

#: Largest |e_x - C_xy^2 - C_xz^2| the generic route accepts.
CKW_TOL = 1e-12


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


#: Flat indices k * 16 + r * 4 + c, into the entry rows of the pair block
#: (AB, AC, BC; r, c), of the two terms of each single-qubit entry: rho_A =
#: Tr_B rho_AB and rho_B = Tr_A rho_AB from the AB block, rho_C = Tr_A rho_AC
#: from the AC block.  a = rho[0, 0] and d = rho[1, 1] of A, B and C, then
#: b = rho[1, 0].
_SINGLE_AD = (np.array([0, 0, 16, 10, 5, 21]), np.array([5, 10, 26, 15, 15, 31]))
_SINGLE_B = (np.array([8, 4, 20]), np.array([13, 14, 30]))


def _pair_traces(amps):
    """rho_AB, rho_AC and rho_BC of the states ``amps`` (m, 3), as one
    (3, 4, 4, m) block of entry rows."""
    # density has checked the amplitudes, and v v^dagger of them is Hermitian
    # to rounding, so the route makes no Hermiticity check
    # the (m, 8, 8) view that density returns, moved back onto its rows
    rows = tristate.density(amps).transpose(1, 2, 0)
    pairs = np.empty((3, 4, 4, len(amps)), dtype=np.complex128)
    for k, pair in enumerate(("AB", "AC", "BC")):
        linalg._partial_trace(rows, pair, out=pairs[k])
    return pairs


def _generic_chunk(amps, edges, ggm, neg):
    """The spectra of the states ``amps`` (m, 3), written into rows.

    ``edges`` (3, m) takes 4 det of the three single-qubit reductions,
    ``ggm`` (m,) their smallest eigenvalue, and ``neg`` (3, m) the sum of
    the negative eigenvalues of the partial transposes of rho_AB, rho_AC and
    rho_BC.  Raises ``ValueError`` unless the edges satisfy the CKW identity
    to ``CKW_TOL``, and then unless the pair reductions are X-shaped to
    ``linalg.HERMITICITY_TOL``.  These are the route's two checks.
    """
    pairs = _pair_traces(amps)
    # rho_A and rho_B are partial traces of rho_AB, rho_C one of rho_AC: only
    # their entries a, d (real) and b are summed
    flat = pairs.reshape(48, -1)
    re = flat.real
    ad = re.take(_SINGLE_AD[0], axis=0)
    ad += re.take(_SINGLE_AD[1], axis=0)
    b = flat.take(_SINGLE_B[0], axis=0)
    b += flat.take(_SINGLE_B[1], axis=0)
    # the edge 2[1 - Tr(rho_X^2)] as 4 det(rho_X): the same quantity for a
    # unit-trace 2x2 matrix, but free of the cancellation that 1 - Tr(rho^2)
    # suffers near product states; the smallest eigenvalue, the ggm
    # candidate, is likewise det over the largest, not 1 minus it
    det, lo, _ = linalg._eig2(ad[:3], ad[3:], b)
    np.multiply(4.0, det, out=edges)
    np.min(lo, axis=0, out=ggm)
    # the three-tangle of a W-class state is 0, so each edge is also the sum
    # of two squared pair concurrences (Coffman, Kundu and Wootters, PRA 61,
    # 052306 (2000)): e_A = C_AB^2 + C_AC^2 and so on, with C_xy^2 =
    # 4 |rho_xy[01, 10]|^2 at flat rows 6, 22 and 38.  A wrong trace, index
    # or qubit order breaks the identity; it also implies the triangle
    # inequality, e_b + e_c - e_a = 2 C_bc^2 >= 0
    c2 = 4.0 * np.abs(flat[6::16]) ** 2
    residual = float(np.abs(edges - c2[[0, 0, 1]] - c2[[1, 2, 2]]).max())
    if not residual <= CKW_TOL:  # NaN fails too
        raise ValueError(
            f"edges fail the CKW identity e_x = C_xy^2 + C_xz^2: residual "
            f"{residual:.3e} exceeds {CKW_TOL:.1e}"
        )
    # every two-qubit reduction of a W-class state is an X state (Yu and
    # Eberly, QIC 7, 459 (2007)), so the spectrum of its partial transpose
    # comes in closed form from two 2x2 blocks.  The identity above cannot
    # see an off-X entry that the single-qubit reductions do not read, so
    # ``_x_spectra`` tests the pattern.
    wt = linalg._x_spectra(pairs.transpose(1, 2, 0, 3))
    np.minimum(wt, 0.0).sum(axis=0, out=neg)


def _generic_block(amps, block):
    """The generic route on the (n, 3) ``amps``, into the rows of the (7, n)
    ``block``: (ggm, three_pi, gmc, fill), then the triangle edges.

    The spectra, and the CKW and X-structure checks, go ``GENERIC_CHUNK``
    states at a time; the measures are then rows over all n states.
    """
    ggm, three_pi, gmc, fill = block[:4]
    edges = block[4:]
    neg = np.empty((3, len(amps)))
    for i in range(0, len(amps), GENERIC_CHUNK):
        j = i + GENERIC_CHUNK
        _generic_chunk(amps[i:j], edges[:, i:j], ggm[i:j], neg[:, i:j])
    _snap(edges)
    # the negativities -2 (sum of the negative eigenvalues) of AB, AC and
    # BC, squared
    neg *= -2.0
    n_ab, n_ac, n_bc = np.square(_snap(neg), out=neg)
    pi_a = edges[0] - n_ab - n_ac
    pi_b = edges[1] - n_ab - n_bc
    pi_c = edges[2] - n_ac - n_bc
    np.divide(pi_a + pi_b + pi_c, 3.0, out=three_pi)
    np.min(edges, axis=0, out=gmc)
    _snap(block[:3])
    fill[:] = heron_fill(edges.T)


def generic_measures(amps):
    """All four measures and the concurrence triangle along the generic route.

    ``amps`` holds W-class amplitudes (a_e, a_mu, a_tau) on the rows of an
    (n, 3) array.  Returns (ggm, three_pi, gmc, fill) as an (n, 4) array and
    the triangle edges as an (n, 3) array.  Every quantity is a contiguous
    row over the states.  The states are processed in batches of
    ``GENERIC_CHUNK``.  Per batch: the density matrices as entry rows; their
    three two-qubit reductions, each as sums of diagonal slices, from whose
    entries those of the single-qubit reductions are summed; the spectra of
    the 2x2 single-qubit reductions, and of the 2x2 blocks of the partial
    transposes of the two-qubit reductions, all by the one closed form
    ``linalg._eig2``; and two checks.  The edges must satisfy the CKW
    identity e_x = C_xy^2 + C_xz^2, with the pair concurrences read from the
    reductions' coherences, to ``CKW_TOL``; then every entry of the
    reductions outside the X pattern must be within
    ``linalg.HERMITICITY_TOL`` of zero.  Then, over all rows: the
    negativities from the blocks of the partial transposes, and the four
    measures.  No LAPACK solver is called.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != 3:
        raise ValueError(f"expected amplitudes of shape (n, 3), got {amps.shape}")
    block = np.empty((7, len(amps)))
    _generic_block(amps, block)
    return block[:4].T, block[4:].T


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
    from them, the generic route from the amplitudes.  The probabilities are
    validated on either route, and the generic route checks its edges
    against the CKW identity and its reductions for the X pattern
    (``generic_measures``).

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
        # edges 4 p_x (p_y + p_z) need no triangle check: e_b + e_c - e_a =
        # 8 p_b p_c >= 0, and an edge exceeds 1 + 1e-10 only for a row that
        # sums to more than 1 + 5e-11, where |a|^2 of unitary evolution sums
        # to 1 within about 1e-15
        rows[4:8], rows[8:] = _closed_form(probs)
    else:
        _generic_block(amps, rows[4:])
    return rows.T.copy()


def report(params, initial, le, path="closed-form"):
    """Probabilities, all four measures and the triangle edges at one L/E point (km/GeV).

    This is the one row of ``table`` at ``le`` as a dict keyed by
    ``CSV_COLUMNS`` in column order, so it equals the matching row of any
    sweep bit for bit.
    """
    row = table(params, initial, np.array([le], dtype=np.float64), path=path)[0]
    return dict(zip(CSV_COLUMNS, row.tolist()))

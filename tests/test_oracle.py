"""Every printed cell of the preset sweeps against a 50-digit mpmath oracle.

The oracle is written apart from trinu.  It takes trinu's float inputs as
exact: each angle in degrees, converted in mpmath; the splittings; the float
phase constant 1.27; and each float L/E value of the grid.  Its mixing matrix
is the product of three rotations, R23 . U13(delta) . R12, its probabilities
are |sum_k U_ak exp(-i phi_k) U*_bk|^2, and its measures are the W-class
formulas in the probabilities, which 50 digits evaluate without loss.

A cell passes when its printed ``%.12g`` value is within one unit in its
12th significant digit of the oracle.  A printed 0 passes only where the
oracle is below 1e-30 (L/E = 0, where the state is a basis state).
"""

import functools

import mpmath
import numpy as np
import pytest

from trinu import OscillationParams, measures
from trinu.cli import load_preset
from trinu.sweep import format_number

DPS = 50

#: Oracle values below this are zeros that 50 digits cannot resolve.
ORACLE_ZERO = 1e-30

COLUMNS = measures.CSV_COLUMNS[1:]

#: A CP-violating parameter set, so the imaginary parts of the mixing matrix
#: reach the printed digits.
CP_PARAMS = OscillationParams(delta_cp=-90.0)
CP_GRID = np.geomspace(10.0, 1600.0, 401)


def mp_pmns(params):
    """3x3 mixing matrix as R23 @ U13(delta) @ R12, in mpmath."""
    def rot(i, j, degrees, phase=0):
        m = mpmath.eye(3)
        t = mpmath.radians(mpmath.mpf(degrees))
        m[i, i] = m[j, j] = mpmath.cos(t)
        m[i, j] = mpmath.sin(t) * mpmath.expj(-phase)
        m[j, i] = -mpmath.sin(t) * mpmath.expj(phase)
        return m
    delta = mpmath.radians(mpmath.mpf(params.delta_cp))
    return (rot(1, 2, params.theta23) * rot(0, 2, params.theta13, delta)
            * rot(0, 1, params.theta12))


def mp_row(p):
    """The ten printed columns of the state with probabilities ``p``, in mpmath."""
    edges = [4 * p[x] * (p[(x + 1) % 3] + p[(x + 2) % 3]) for x in range(3)]
    # 1 minus the largest eigenvalue (p_x or 1 - p_x) of a one-qubit reduction
    ggm = min(min(p[x], 1 - p[x]) for x in range(3))
    three_pi = mpmath.mpf(4) / 3 * sum(
        -p[x] ** 2 + p[x] * mpmath.sqrt(p[x] ** 2 + 4 * p[(x + 1) % 3] * p[(x + 2) % 3])
        for x in range(3))
    q = sum(edges) / 2
    area = 16 * q * (q - edges[0]) * (q - edges[1]) * (q - edges[2])
    fill = mpmath.root(max(area, 0) / 3, 4)
    return [*p, ggm, three_pi, min(edges), fill, *edges]


def oracle_table(params, initial, le):
    """(n, 10) oracle values, as floats, of the printed columns over ``le``."""
    a = ("e", "mu", "tau").index(initial)
    with mpmath.workdps(DPS):
        u = mp_pmns(params)
        rates = [0, 2 * mpmath.mpf(1.27) * mpmath.mpf(params.dm2_21),
                 2 * mpmath.mpf(1.27) * mpmath.mpf(params.dm2_31)]
        rows = []
        for x in le:
            phases = [mpmath.expj(-r * mpmath.mpf(float(x))) for r in rates]
            amps = [sum(u[a, k] * phases[k] * mpmath.conj(u[b, k]) for k in range(3))
                    for b in range(3)]
            rows.append([float(v) for v in mp_row([abs(z) ** 2 for z in amps])])
    return np.array(rows)


@functools.lru_cache(maxsize=None)
def case(name):
    """Parameters, initial flavor, float grid and oracle table of one checked grid."""
    if name == "delta_cp=-90":
        params, initial, le = CP_PARAMS, "mu", CP_GRID
    else:
        config = load_preset(name)
        params, initial, le = OscillationParams(), config.initial, config.grid()
    return params, initial, le, oracle_table(params, initial, le)


def printed(values):
    return np.array([float(format_number(v)) for v in values])


def unit_of_last_digit(values):
    """One unit in the 12th significant digit of each (printed) value; 0 for 0."""
    exponent = np.floor(np.log10(np.abs(np.where(values == 0.0, 1.0, values))))
    return np.where(values == 0.0, 0.0, 10.0 ** (exponent - 11))


def cells_off(values, oracle, bound=None):
    """L/E indices where a printed column misses the oracle.

    Without ``bound`` a cell may be one unit in its 12th printed digit off;
    with it, ``bound`` absolute.
    """
    shown = printed(values)
    if bound is None:
        allowed = np.where(shown == 0.0, ORACLE_ZERO, unit_of_last_digit(shown))
    else:
        allowed = bound
    return np.nonzero(np.abs(shown - oracle) > allowed)[0]


#: The generic fill still loses digits in Heron's formula on needle-like
#: triangles (ROADMAP item 2); until that is mended it keeps the route
#: agreement bound.
GENERIC_FILL_BOUND = 1e-10


@pytest.mark.parametrize("path", measures.PATHS)
@pytest.mark.parametrize("name", ["electron", "muon", "delta_cp=-90"])
def test_every_printed_cell_matches_the_oracle(name, path):
    params, initial, le, oracle = case(name)
    table = measures.table(params, initial, le, path)
    misses = {}
    for j, column in enumerate(COLUMNS):
        bound = GENERIC_FILL_BOUND if (path, column) == ("generic", "fill") else None
        off = cells_off(table[:, j + 1], oracle[:, j], bound)
        if len(off):
            i = off[np.argmax(np.abs(table[off, j + 1] - oracle[off, j]))]
            misses[column] = (len(off), f"worst at L/E {le[i]:.6g}: "
                              f"{table[i, j + 1]!r} against {oracle[i, j]!r}")
    assert not misses, misses


def test_oracle_zero_only_at_origin():
    # a printed 0 is excused only where the state is a basis state
    for name in ("electron", "muon", "delta_cp=-90"):
        _, _, le, oracle = case(name)
        assert not np.any(np.abs(oracle[le > 0.0]) < ORACLE_ZERO)

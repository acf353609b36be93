"""Independent physics used to check the program's outputs.

Nothing here imports trinu.  The mixing matrix is built as the product of
three rotations (R23 . U13(delta) . R12) rather than trinu's explicit matrix,
amplitudes come from |sum_k U_ak exp(-i phi_k) U*_bk|, and the entanglement
measures come from batched ``numpy.linalg.eigvalsh`` on the 8x8 density
matrices.  The fill is additionally available as a 50-digit mpmath Heron
evaluation for spot checks.
"""

import math

import mpmath
import numpy as np

FLAVORS = ("e", "mu", "tau")

#: Standard normal-ordering fit values (degrees, eV^2).
THETA12, THETA23, THETA13, DELTA_CP = 33.48, 42.3, 8.50, 0.0
DM2_21, DM2_31 = 7.50e-5, 2.457e-3

#: km/GeV/eV^2; the phase of mass state k is 2 * 1.27 * m2_k * L/E.
PHASE_CONST = 1.27

#: Basis indices of |100>, |010>, |001> with qubit A the most significant bit.
OCCUPATION = (4, 2, 1)

CHUNK = 20000


def pmns():
    """3x3 mixing matrix as R23 @ U13(delta) @ R12."""
    def rot(i, j, deg, phase=0.0):
        m = np.eye(3, dtype=np.complex128)
        t = math.radians(deg)
        m[i, i] = m[j, j] = math.cos(t)
        m[i, j] = math.sin(t) * np.exp(-1j * phase)
        m[j, i] = -math.sin(t) * np.exp(1j * phase)
        return m
    d = math.radians(DELTA_CP)
    return rot(1, 2, THETA23) @ rot(0, 2, THETA13, d) @ rot(0, 1, THETA12)


def amplitudes(initial, le):
    """Flavor amplitudes (N, 3) at L/E values ``le`` (km/GeV)."""
    a = FLAVORS.index(initial)
    u = pmns()
    le = np.asarray(le, dtype=np.float64)
    m2 = np.array([0.0, DM2_21, DM2_31])
    phases = np.exp(-2j * PHASE_CONST * np.multiply.outer(le, m2))
    return (phases * u[a]) @ u.conj().T


def probabilities(initial, le):
    return np.abs(amplitudes(initial, le)) ** 2


def _reduce(rho8, keep):
    """Partial trace of 8x8 density matrices (N, 8, 8) onto the qubits ``keep``."""
    ket = "abc"
    bra = "".join(ket[i].upper() if i in keep else ket[i] for i in range(3))
    out = "".join(ket[i] for i in keep) + "".join(ket[i].upper() for i in keep)
    red = np.einsum(f"n{ket}{bra}->n{out}", rho8.reshape(-1, 2, 2, 2, 2, 2, 2))
    d = 2 ** len(keep)
    return red.reshape(-1, d, d)


def _partial_transpose_first(rho):
    return rho.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)


def heron_fill(edges):
    """Kahan-ordered Heron evaluation of [16/3 Q prod(Q - edge)]^(1/4)."""
    s = np.sort(edges, axis=-1)
    c, b, a = s[..., 0], s[..., 1], s[..., 2]
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return (np.maximum(prod, 0.0) / 3.0) ** 0.25


def _measures_chunk(amps):
    psi = np.zeros((len(amps), 8), dtype=np.complex128)
    psi[:, list(OCCUPATION)] = amps
    rho8 = np.einsum("ni,nj->nij", psi, psi.conj())
    edges, lam_max = [], []
    for q in range(3):
        w = np.linalg.eigvalsh(_reduce(rho8, (q,)))
        edges.append(4.0 * w[:, 0] * w[:, 1])
        lam_max.append(w[:, 1])
    edges = np.maximum(np.stack(edges, axis=-1), 0.0)
    neg_sq = {}
    for pair in ((0, 1), (0, 2), (1, 2)):
        w = np.linalg.eigvalsh(_partial_transpose_first(_reduce(rho8, pair)))
        neg_sq[pair] = (-2.0 * np.where(w < 0.0, w, 0.0).sum(axis=-1)) ** 2
    pis = [
        edges[:, 0] - neg_sq[(0, 1)] - neg_sq[(0, 2)],
        edges[:, 1] - neg_sq[(0, 1)] - neg_sq[(1, 2)],
        edges[:, 2] - neg_sq[(0, 2)] - neg_sq[(1, 2)],
    ]
    ggm = 1.0 - np.max(np.stack(lam_max, axis=-1), axis=-1)
    three_pi = sum(pis) / 3.0
    gmc = edges.min(axis=-1)
    fill = heron_fill(edges)
    return np.column_stack([ggm, three_pi, gmc, fill]), edges


def measures(amps):
    """(ggm, three_pi, gmc, fill) (N, 4) and triangle edges (N, 3)."""
    amps = np.atleast_2d(np.asarray(amps, dtype=np.complex128))
    parts = [_measures_chunk(amps[i:i + CHUNK]) for i in range(0, len(amps), CHUNK)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def mp_fill(probs, dps=50):
    """Concurrence fill of a W-class state from its probabilities, in mpmath."""
    with mpmath.workdps(dps):
        p = [mpmath.mpf(float(x)) for x in probs]
        a, b, c = (4 * p[i] * (p[(i + 1) % 3] + p[(i + 2) % 3]) for i in range(3))
        q = (a + b + c) / 2
        prod = 16 * q * (q - a) * (q - b) * (q - c)
        return float(mpmath.root(max(prod, mpmath.mpf(0)) / 3, 4))


def grid(le_min, le_max, points, scale, unit):
    """The configured L/E grid in km/GeV."""
    factor = 1000.0 if unit == "km/MeV" else 1.0
    if scale == "log":
        g = np.exp(np.linspace(math.log(le_min), math.log(le_max), points))
        g[0], g[-1] = le_min, le_max
    else:
        g = le_min + (le_max - le_min) * np.arange(points) / (points - 1)
        g[-1] = le_max
    return g * factor

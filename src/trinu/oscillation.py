"""Three-flavor vacuum oscillations: mixing matrix, amplitudes, probabilities.

Angles are taken in degrees, mass-squared splittings in eV^2, and the
kinematic variable is L/E in km/GeV throughout.  The phase constant 1.27 is
used exactly as conventionally printed, so plots line up with the standard
literature curves.

The amplitude is sum_k U_ak exp(-i phi_k) U*_bk with the PDG mixing matrix
of ``build_pmns`` (U_e3 = s13 exp(-i delta)).  That is the *antineutrino*
amplitude; the neutrino amplitude takes U* in place of U, which amounts to
delta -> -delta.  At delta_cp = 0, the default, the two coincide.
"""

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

FLAVORS = ("e", "mu", "tau")

#: km/GeV/eV^2 oscillation phase constant (1.27 * dm2 * L/E enters the sines).
PHASE_CONST = 1.27

#: Tolerated inconsistency |dm2_31 - (dm2_21 + dm2_32)| before warning, eV^2.
#: The physics reads only dm2_21 and dm2_31; dm2_32 is checked against them.
SPLITTING_TOL = 1e-9

PARAM_FIELDS = (
    "theta12", "theta23", "theta13", "delta_cp", "dm2_21", "dm2_31", "dm2_32",
)


@dataclass(frozen=True)
class OscillationParams:
    """Physics inputs: mixing angles (degrees) and splittings (eV^2).

    Defaults are the standard normal-ordering fit values.  ``dm2_21`` and
    ``dm2_31`` set the physics; ``dm2_32`` is only checked against
    ``dm2_31 - dm2_21``, with a warning beyond ``SPLITTING_TOL``.
    """

    theta12: float = 33.48
    theta23: float = 42.3
    theta13: float = 8.50
    delta_cp: float = 0.0
    dm2_21: float = 7.50e-5
    dm2_31: float = 2.457e-3
    dm2_32: float = 2.382e-3

    def __post_init__(self):
        for name in ("theta12", "theta23", "theta13"):
            angle = getattr(self, name)
            if not math.isfinite(angle) or not 0.0 <= angle < 90.0:
                raise ValueError(f"{name} must lie in [0, 90) degrees, got {angle}")
        if not math.isfinite(self.delta_cp):
            raise ValueError("delta_cp must be finite")
        for name in ("dm2_21", "dm2_31", "dm2_32"):
            # negative splittings are physical (inverted ordering)
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        gap = abs(self.dm2_31 - (self.dm2_21 + self.dm2_32))
        if gap > SPLITTING_TOL:
            warnings.warn(
                f"mass splittings are inconsistent: |dm2_31 - (dm2_21 + dm2_32)|"
                f" = {gap:.3e} eV^2", stacklevel=2,
            )

    @classmethod
    def from_dict(cls, overrides):
        """Merge a (possibly partial) override mapping with the defaults."""
        unknown = set(overrides) - set(PARAM_FIELDS)
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        for name, value in overrides.items():
            # JSON's true and false are ints to Python, but no physics value
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        return replace(cls(), **{k: float(v) for k, v in overrides.items()})

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("parameter file must contain a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class ProbabilityTriple:
    """(P_e, P_mu, P_tau) at one L/E point; clamped to [0, 1]."""

    p_e: float
    p_mu: float
    p_tau: float

    def as_tuple(self):
        return (self.p_e, self.p_mu, self.p_tau)


def checked_probabilities(p):
    """Validate probabilities (..., 3) and clamp them to [0, 1].

    Every entry must lie in [0, 1] within 1e-12 and every row must sum to 1
    within 1e-10; otherwise ``ValueError`` names the first offending value.
    NaN fails both checks.
    """
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
    if np.any(bad):
        raise ValueError(f"probability {float(p[bad][0])!r} outside [0, 1] beyond tolerance")
    p = np.clip(p, 0.0, 1.0)
    total = p.sum(axis=-1)
    bad = ~(np.abs(total - 1.0) <= 1e-10)
    if np.any(bad):
        raise ValueError(f"probabilities sum to {float(total[bad][0])!r}, expected 1")
    return p


def _flavor_index(flavor):
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    return FLAVORS.index(flavor)


def build_pmns(params):
    """3x3 complex mixing matrix; rows are flavors (e, mu, tau), columns mass states."""
    s12, c12 = np.sin(np.radians(params.theta12)), np.cos(np.radians(params.theta12))
    s23, c23 = np.sin(np.radians(params.theta23)), np.cos(np.radians(params.theta23))
    s13, c13 = np.sin(np.radians(params.theta13)), np.cos(np.radians(params.theta13))
    phase = np.exp(1j * np.radians(params.delta_cp))
    return np.array([
        [c12 * c13, s12 * c13, s13 * np.conj(phase)],
        [-s12 * c23 - c12 * s13 * s23 * phase,
         c12 * c23 - s12 * s13 * s23 * phase,
         c13 * s23],
        [s12 * s23 - c12 * s13 * c23 * phase,
         -c12 * s23 - s12 * s13 * c23 * phase,
         c13 * c23],
    ], dtype=np.complex128)


def _checked_le(le):
    le = np.asarray(le, dtype=np.float64)
    bad = ~((le >= 0.0) & (le < np.inf))
    if np.any(bad):
        raise ValueError(f"L/E must be finite and non-negative, got {le[bad][0]} km/GeV")
    return le


def amplitude_array(params, initial, le):
    """Evolved flavor amplitudes a_beta = sum_k U_ak exp(-i phi_k) U*_bk.

    ``le`` is a scalar or an array of L/E values (km/GeV); the result has
    shape ``le.shape + (3,)`` over (e, mu, tau).
    """
    le = _checked_le(le)
    a = _flavor_index(initial)
    u = build_pmns(params)
    # phases relative to mass state 1; only splittings are observable
    rates = 2.0 * PHASE_CONST * np.array([0.0, params.dm2_21, params.dm2_31])
    phases = np.exp(-1j * (le[..., None] * rates))
    # einsum rather than matmul: a batched BLAS product would round rows
    # differently from the same product taken one point at a time
    return np.einsum("...k,kb->...b", u[a] * phases, u.conj().T)


def amplitudes(params, initial, le):
    """(a_e, a_mu, a_tau) at a single L/E point (km/GeV).

    Evaluated as a length-1 grid, so it equals the matching
    ``amplitude_array`` row bit for bit.
    """
    return tuple(amplitude_array(params, initial, np.array([float(le)]))[0].tolist())


_PAIRS = ((1, 0), (2, 0), (2, 1))  # (k, l) with k > l


def probability_array(params, initial, le):
    """Transition probabilities to (e, mu, tau) over an array of L/E values.

    Evaluated through the interference-sum formula (delta term minus the
    real-part sin^2 series plus the imaginary-part sin series), not through
    |amplitudes|^2; the two must agree, which the tests exercise.
    """
    le = _checked_le(le)
    a = _flavor_index(initial)
    u = build_pmns(params)
    # the splittings of amplitude_array's phases, so the two formulas agree
    dm2 = (0.0, params.dm2_21, params.dm2_31)
    sines = []
    for k, l in _PAIRS:
        arg = PHASE_CONST * (dm2[k] - dm2[l]) * le
        sines.append((np.sin(arg) ** 2, np.sin(2.0 * arg)))
    out = np.empty(le.shape + (3,), dtype=np.float64)
    for b in range(3):
        p = np.full(le.shape, 1.0 if a == b else 0.0)
        for (k, l), (sin_sq, sin_2) in zip(_PAIRS, sines):
            quartic = np.conj(u[a, k]) * u[b, k] * u[a, l] * np.conj(u[b, l])
            # the imaginary term's sign is fixed by the e^{-i phi_k} evolution
            # convention of amplitudes(); it vanishes at delta_cp = 0
            p = p - 4.0 * quartic.real * sin_sq
            p = p - 2.0 * quartic.imag * sin_2
        out[..., b] = p
    return out


def probabilities(params, initial, le):
    """ProbabilityTriple at a single L/E point (km/GeV).

    Evaluated as a length-1 grid, so it equals the matching sweep row bit
    for bit.
    """
    p = probability_array(params, initial, np.array([float(le)]))
    return ProbabilityTriple(*checked_probabilities(p)[0].tolist())


def probability_matrix(params, le):
    """3x3 matrix P[a, b] of transition probabilities at one L/E point."""
    le = np.array([float(le)])
    return np.concatenate([probability_array(params, flavor, le) for flavor in FLAVORS])

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

import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass

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
            # level 2 is the __init__ that dataclass generates; 3 is its caller
            warnings.warn(
                f"mass splittings are inconsistent: |dm2_31 - (dm2_21 + dm2_32)|"
                f" = {gap:.3e} eV^2", stacklevel=3,
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
        return cls(**{k: float(v) for k, v in overrides.items()})

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("parameter file must contain a JSON object")
        return cls.from_dict(data)


def _clip_probability_rows(rows):
    """Validate component rows (p_e, p_mu, p_tau), shape (3, ...), and clamp them to [0, 1].

    Every entry must lie in [0, 1] within 1e-12 and every row must sum to 1
    within 1e-10, or ``ValueError`` names the first offending value in the
    (..., 3) layout, looked for only once a whole-array ``min`` or ``max``
    fails.  Rounding is monotone, so the smallest and the largest row sum
    decide for all rows, and NaN, which ``min`` and ``max`` return if any
    value is NaN, fails every comparison.
    """
    if rows.size and not (rows.min() >= -1e-12 and rows.max() <= 1.0 + 1e-12):
        p = np.moveaxis(rows, 0, -1)
        bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))
        raise ValueError(f"probability {float(p[bad][0])!r} outside [0, 1] beyond tolerance")
    # the clamp np.clip makes, without its Python wrapper
    np.maximum(rows, 0.0, out=rows)
    np.minimum(rows, 1.0, out=rows)
    total = rows[0] + rows[1] + rows[2]
    if total.size and not (total.min() - 1.0 >= -1e-10 and total.max() - 1.0 <= 1e-10):
        bad = ~(np.abs(total - 1.0) <= 1e-10)
        raise ValueError(f"probabilities sum to {float(total[bad][0])!r}, expected 1")


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
    # the smallest and the largest value decide; NaN fails both comparisons
    if le.size and not (le.min() >= 0.0 and le.max() < np.inf):
        bad = ~((le >= 0.0) & (le < np.inf))
        raise ValueError(f"L/E must be finite and non-negative, got {le[bad][0]} km/GeV")
    return le


# room for the three flavors of two parameter sets, and two more pairs
@functools.lru_cache(maxsize=8)
def _mixing(params, initial):
    """What ``amplitude_array`` needs that does not depend on L/E.

    Returns the index of ``initial``, the half-phase rates 1.27 (dm2_21,
    dm2_31) per km/GeV of mass states 2 and 3, and their weights -2 U_ak
    U*_bk as a (2, 3) array over (k, b), both read-only.  Mass state 1 has
    the phase 0 relative to itself, so its term is exactly 0 at every L/E
    and is left out.  Cached per (params, initial): the frozen
    ``OscillationParams`` hashes by value, so equal parameter sets share an
    entry.  Equal sets also give equal bytes: -0.0 and 0.0 compare equal,
    and their delta_cp gives the same amplitudes.
    """
    a = _flavor_index(initial)
    u = build_pmns(params)
    # half phases relative to mass state 1; only splittings are observable
    rates = PHASE_CONST * np.array([params.dm2_21, params.dm2_31])
    weights = -2.0 * u[a, 1:, None] * u[:, 1:].conj().T
    rates.flags.writeable = weights.flags.writeable = False
    return a, rates, weights


def amplitude_array(params, initial, le):
    """Evolved flavor amplitudes a_beta = sum_k U_ak exp(-i phi_k) U*_bk.

    ``le`` is a scalar or an array of L/E values (km/GeV); the result has
    shape ``le.shape + (3,)`` over (e, mu, tau).
    """
    le = _checked_le(le)
    a, rates, weights = _mixing(params, initial)
    half = le[..., None] * rates
    sin, cos = np.sin(half), np.cos(half)
    # a_beta = delta_ab + sum_k (exp(-i phi_k) - 1) U_ak U*_bk, with
    # exp(-i phi) - 1 = -2 sin(phi/2) (sin(phi/2) + i cos(phi/2)): exactly the
    # basis state at L/E = 0, where sum_k U_ak U*_bk is not exactly delta_ab
    # in floating point.  The -2 goes into the weights, and k runs over mass
    # states 2 and 3, whose phases are not identically 0.  einsum rather than
    # matmul: a batched BLAS product would round rows differently from the
    # same product taken one point at a time
    factor = np.empty(half.shape, dtype=np.complex128)
    np.multiply(sin, sin, out=factor.real)
    np.multiply(sin, cos, out=factor.imag)
    amps = np.einsum("...k,kb->...b", factor, weights)
    amps[..., a] += 1.0
    return amps


def amplitudes(params, initial, le):
    """(a_e, a_mu, a_tau) at a single L/E point (km/GeV).

    Evaluated as a length-1 grid, so it equals the matching
    ``amplitude_array`` row bit for bit.
    """
    return tuple(amplitude_array(params, initial, np.array([float(le)]))[0].tolist())


def probability_array(params, initial, le):
    """Transition probabilities |a_beta|^2 to (e, mu, tau) over an array of L/E values."""
    amps = amplitude_array(params, initial, le)
    return amps.real ** 2 + amps.imag ** 2


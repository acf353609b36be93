import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from trinu import OscillationParams, TripartiteState, report
from trinu.oscillation import FLAVORS

# Property tests draw the same examples on every run and read or write no
# example database, so the result does not depend on local state.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params():
    return OscillationParams()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def probs_at(params, initial, le):
    """(p_e, p_mu, p_tau) at one L/E point (km/GeV): the checked probability
    columns of the measure-table row that ``report`` returns."""
    rep = report(params, initial, le)
    return rep["p_e"], rep["p_mu"], rep["p_tau"]


def probability_matrix(params, le):
    """3x3 matrix P[a, b] of transition probabilities at one L/E point."""
    return np.array([probs_at(params, flavor, le) for flavor in FLAVORS])


@st.composite
def w_class_states(draw):
    """Normalized single-excitation states with arbitrary complex phases."""
    raw = [
        draw(st.floats(0.0, 1.0, allow_nan=False)) for _ in range(3)
    ]
    total = sum(raw)
    if total < 1e-9:
        raw = [1.0, 1.0, 1.0]
        total = 3.0
    probs = [r / total for r in raw]
    phases = [draw(st.floats(0.0, 2.0 * np.pi)) for _ in range(3)]
    amps = [np.sqrt(p) * np.exp(1j * ph) for p, ph in zip(probs, phases)]
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps))
    return TripartiteState(*(a / norm for a in amps))


@st.composite
def physics_params(draw):
    """Random but internally consistent oscillation parameters."""
    t12 = draw(st.floats(0.1, 89.0))
    t23 = draw(st.floats(0.1, 89.0))
    t13 = draw(st.floats(0.1, 89.0))
    dcp = draw(st.floats(-180.0, 180.0))
    dm21 = draw(st.floats(1e-5, 3e-4))
    dm32 = draw(st.floats(1e-3, 5e-3))
    return OscillationParams(
        theta12=t12, theta23=t23, theta13=t13, delta_cp=dcp,
        dm2_21=dm21, dm2_31=dm21 + dm32, dm2_32=dm32,
    )

import numpy as np
import pytest
from hypothesis import given, settings

from trinu import OscillationParams, amplitudes, density, make_state
from trinu.linalg import partial_trace
from trinu.tristate import OCCUPATION_INDICES, occupation_vectors

from conftest import w_class_states


class TestMakeState:
    @pytest.mark.parametrize("amps,index", [
        ((1.0, 0.0, 0.0), 4),
        ((0.0, 1.0, 0.0), 2),
        ((0.0, 0.0, 1.0), 1),
    ])
    def test_basis_embedding(self, amps, index):
        rho = density(make_state(amps).amplitudes())
        assert rho[index, index] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_w_state(self):
        rho = density(make_state((1 / np.sqrt(3),) * 3).amplitudes())
        assert np.allclose(np.diag(rho)[list(OCCUPATION_INDICES)], 1 / 3)

    def test_from_flavor_amplitudes(self):
        a = amplitudes(OscillationParams(), "mu", 321.0)
        state = make_state(a)
        assert state.amplitudes() == a

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            make_state((1.0, 1.0, 0.0))
        # a NaN norm fails the tolerance test too, and prints as a plain float
        with pytest.raises(ValueError, match=r"norm\^2 is nan, "):
            make_state((np.nan, 0.0, 0.0))


class TestDensity:
    def test_basis_state(self):
        rho = density((1.0, 0.0, 0.0))
        assert rho[4, 4] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_w_state_block(self):
        rho = density((1 / np.sqrt(3),) * 3)
        block = rho[np.ix_(OCCUPATION_INDICES, OCCUPATION_INDICES)]
        assert np.allclose(block, 1 / 3, atol=1e-15)
        assert np.count_nonzero(rho) == 9

    def test_real_amplitude_entries(self):
        pe, pm, pt = 0.77, 0.115, 0.115
        rho = density((np.sqrt(pe), np.sqrt(pm), np.sqrt(pt)))
        assert rho[4, 4].real == pytest.approx(pe, abs=1e-15)
        assert rho[2, 2].real == pytest.approx(pm, abs=1e-15)
        assert rho[1, 1].real == pytest.approx(pt, abs=1e-15)
        assert rho[4, 2].real == pytest.approx(np.sqrt(pe * pm), abs=1e-15)
        assert rho[2, 1].real == pytest.approx(np.sqrt(pm * pt), abs=1e-15)

    def test_support_is_single_excitation_block(self):
        rho = density((0.6, 0.8j, 0.0))
        mask = np.zeros((8, 8), dtype=bool)
        mask[np.ix_(OCCUPATION_INDICES, OCCUPATION_INDICES)] = True
        assert np.all(rho[~mask] == 0)

    def test_amplitude_stack_matches_states(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(2, 5))
        amps = np.sqrt(probs) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, 5, 3)))
        stack = density(amps)
        assert stack.shape == (2, 5, 8, 8)
        for idx in np.ndindex(2, 5):
            state = make_state(tuple(amps[idx]))
            assert np.array_equal(stack[idx], density(state.amplitudes()))

    def test_occupation_vectors_put_the_amplitudes_on_their_basis_states(self):
        amps = np.array([[0.6, 0.8j, 0.0], [0.0, 0.0, -1.0]])
        v = occupation_vectors(amps)
        assert v.shape == (8, 2)
        assert np.array_equal(v[list(OCCUPATION_INDICES)], amps.T)
        assert not np.delete(v, OCCUPATION_INDICES, axis=0).any()
        rho = density(amps)
        assert np.array_equal(rho, np.einsum("is,js->sij", v, v.conj()))

    def test_amplitude_stack_rejects_unnormalized_row(self):
        amps = np.array([[1.0, 0.0, 0.0], [0.6, 0.6, 0.0]])
        for build in (density, occupation_vectors):
            with pytest.raises(ValueError, match="norm"):
                build(amps)
        amps[1] = (np.nan, 0.0, 0.0)
        for build in (density, occupation_vectors):
            with pytest.raises(ValueError, match=r"norm\^2 is nan, "):
                build(amps)

    @settings(max_examples=100, deadline=None)
    @given(w_class_states())
    def test_pure_unit_trace(self, state):
        rho = density(state.amplitudes())
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        # Tr(rho^2) of a Hermitian matrix is the sum of its squared moduli
        assert np.sum(np.abs(rho) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestReductions:
    @settings(max_examples=100, deadline=None)
    @given(w_class_states())
    def test_single_qubit_reduction_is_diagonal(self, state):
        rho = density(state.amplitudes())
        for qubit, p in zip("ABC", state.probabilities()):
            red = partial_trace(rho, qubit)
            assert np.allclose(red, np.diag([1.0 - p, p]), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(w_class_states())
    def test_reduction_purity_closed_form(self, state):
        rho = density(state.amplitudes())
        for qubit, p in zip("ABC", state.probabilities()):
            purity = np.sum(np.abs(partial_trace(rho, qubit)) ** 2)
            assert purity == pytest.approx(1.0 - 2.0 * p * (1.0 - p), abs=1e-12)

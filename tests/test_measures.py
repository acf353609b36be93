import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trinu import (
    OscillationParams,
    concurrence_fill,
    density,
    ggm,
    gmc,
    make_state,
    report,
    three_pi,
    triangle_record,
)
from trinu import linalg, measures, tristate
from trinu.measures import MEASURE_NAMES, heron_fill, measures_from_probs
from trinu.oscillation import _clip_probability_rows, amplitude_array

from conftest import partial_transpose, reference_negativity, snap, w_class_states

W = make_state((1 / np.sqrt(3),) * 3)
BASIS_E = make_state((1.0, 0.0, 0.0))

THREE_PI_W = 4.0 * (math.sqrt(5.0) - 1.0) / 9.0
NEGATIVITY_W = (math.sqrt(5.0) - 1.0) / 3.0


def state_from_probs(p, phases=(0.0, 0.0, 0.0)):
    amps = [math.sqrt(x) * np.exp(1j * ph) for x, ph in zip(p, phases)]
    return make_state(amps)


def bits(x):
    """The bit patterns of the float64 values ``x``, for exact comparison."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def generic_edges(state):
    """Concurrence-triangle edges of one state along the generic route."""
    return tuple(measures.generic_measures([state.amplitudes()])[1][0].tolist())


def closed_form_edges(p):
    """The closed-form triangle edges of probabilities ``p`` (..., 3), shape (..., 3).

    ``_closed_form`` takes and returns component rows, so the last axis goes
    to the front and back; a single triple is its one (3, 1) column.
    """
    rows = np.moveaxis(np.atleast_2d(p), -1, 0)
    return np.moveaxis(measures._closed_form(rows)[1], 0, -1).reshape(np.shape(p))


#: The closed-form column picks by their former names, each as the
#: expression that replaces it.
CLOSED_FORM_PICKS = {
    "triangle_edges_from_probs": closed_form_edges,
    "ggm_from_probs": lambda p: measures_from_probs(p)[..., 0],
    "three_pi_from_probs": lambda p: measures_from_probs(p)[..., 1],
    "gmc_from_probs": lambda p: measures_from_probs(p)[..., 2],
    "fill_from_probs": lambda p: measures_from_probs(p)[..., 3],
}


class TestConcurrenceTriangle:
    def test_w_state_edges(self):
        assert np.allclose(generic_edges(W), 8 / 9, atol=1e-12)

    def test_product_state_edges(self):
        assert generic_edges(BASIS_E) == (0.0, 0.0, 0.0)

    def test_derived_edges(self):
        edges = generic_edges(state_from_probs((0.024, 0.488, 0.488)))
        # 4 P (1 - P) per edge
        assert np.allclose(edges, (0.093696, 0.999424, 0.999424), atol=1e-12)

    def test_half_perimeter(self, params):
        rec = triangle_record(params, "mu", 262.2)
        a, b, c = rec["edges"].values()
        assert rec["half_perimeter"] == (a + b + c) / 2.0

    @settings(max_examples=150, deadline=None)
    @given(w_class_states())
    def test_triangle_inequality_holds(self, state):
        edges = generic_edges(state)
        total = sum(edges)
        for e in edges:
            assert e <= total - e + 1e-10


class TestGgm:
    def test_w_state(self):
        assert ggm(W) == pytest.approx(1 / 3, abs=1e-12)

    def test_basis_state(self):
        assert ggm(BASIS_E) == 0.0

    def test_unbalanced(self):
        assert ggm(state_from_probs((0.77, 0.115, 0.115))) == pytest.approx(
            0.115, abs=1e-12
        )


class TestNegativity:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert reference_negativity(rho) == 0.0

    def test_w_reduction(self):
        rho_ab = linalg.partial_trace(density(W.amplitudes()), "AB")
        assert reference_negativity(rho_ab) == pytest.approx(NEGATIVITY_W, abs=1e-12)

    def test_x_block_closed_form(self):
        pe, pm, pt = 0.77, 0.115, 0.115
        state = state_from_probs((pe, pm, pt))
        rho_ab = linalg.partial_trace(density(state.amplitudes()), "AB")
        expected = math.sqrt(pt ** 2 + 4 * pe * pm) - pt
        assert reference_negativity(rho_ab) == pytest.approx(expected, abs=1e-12)
        assert reference_negativity(rho_ab) == pytest.approx(0.491156, abs=1e-6)

    def test_transpose_side_does_not_matter(self):
        rho_ab = linalg.partial_trace(density(W.amplitudes()), "AB")
        w = np.linalg.eigvalsh(partial_transpose(rho_ab, 1))
        assert reference_negativity(rho_ab) == pytest.approx(-2.0 * w[w < 0.0].sum(), abs=1e-12)

    def test_rejects_non_psd(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="PSD"):
            reference_negativity(m)

    def test_stack_matches_one_by_one(self, rng):
        probs = rng.dirichlet(np.ones(3), size=6)
        rhos = np.stack([
            linalg.partial_trace(
                density(state_from_probs(p, rng.uniform(0, 6, 3)).amplitudes()), pair)
            for p, pair in zip(probs, ("AB", "AC", "BC", "AB", "AC", "BC"))
        ]).reshape(2, 3, 4, 4)
        n = reference_negativity(rhos)
        assert n.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert n[idx] == reference_negativity(rhos[idx])

    def test_stack_rejects_one_non_psd_member(self):
        rhos = np.stack([np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0])])
        with pytest.raises(ValueError, match="PSD"):
            reference_negativity(rhos)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            reference_negativity(np.diag([1.0, np.nan, 0.0, 0.0]))


class TestThreePi:
    def test_w_state(self):
        assert three_pi(W) == pytest.approx(THREE_PI_W, abs=1e-12)

    def test_basis_state(self):
        assert three_pi(BASIS_E) == 0.0

    def test_derived_point(self):
        val = three_pi(state_from_probs((0.024, 0.488, 0.488)))
        assert val == pytest.approx(0.090135, abs=1e-6)


class TestGmc:
    def test_w_state(self):
        assert gmc(W) == pytest.approx(8 / 9, abs=1e-12)

    def test_basis_state(self):
        assert gmc(make_state((0.0, 1.0, 0.0))) == 0.0

    def test_shortest_edge(self):
        assert gmc(state_from_probs((0.024, 0.488, 0.488))) == pytest.approx(
            0.093696, abs=1e-6
        )


class TestConcurrenceFill:
    def test_w_state(self):
        assert concurrence_fill(W) == pytest.approx(8 / 9, abs=1e-12)

    def test_basis_state(self):
        assert concurrence_fill(make_state((0.0, 0.0, 1.0))) == 0.0

    def test_derived_point(self):
        val = concurrence_fill(state_from_probs((0.024, 0.488, 0.488)))
        assert val == pytest.approx(0.328648, abs=1e-6)

    def test_heron_stack_matches_one_by_one(self, rng):
        # a lone (3,) triangle, an (n, 3) stack and a (2, m, 3) stack, bit for bit
        p = rng.dirichlet(np.ones(3), size=200)
        edges = 4.0 * p * (1.0 - p)
        stacked = heron_fill(edges)
        assert stacked.shape == (200,)
        assert np.array_equal(bits(heron_fill(edges.reshape(2, 100, 3))),
                              bits(stacked).reshape(2, 100))
        for row, value in zip(edges, stacked):
            one = heron_fill(row)
            assert isinstance(one, float) and bits(one) == bits(value)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_PICKS))
    def test_closed_form_stack_matches_one_by_one(self, rng, name):
        # a lone (3,) triple, an (n, 3) stack and a (2, m, 3) stack, bit for bit
        closed_form = CLOSED_FORM_PICKS[name]
        p = rng.dirichlet(np.ones(3), size=200)
        stacked = closed_form(p)
        split = closed_form(p.reshape(2, 100, 3))
        assert np.array_equal(bits(split), bits(stacked).reshape(split.shape))
        for row, value in zip(p, stacked):
            assert np.array_equal(bits(closed_form(row)), bits(value))
        one = measures_from_probs(p[0])
        assert isinstance(one, np.ndarray) and one.shape == (4,)

    def test_degenerate_triangle_clamps_to_zero(self):
        assert heron_fill(np.array([0.5, 0.3, 0.8])) == 0.0
        assert heron_fill(np.array([0.5, 0.3, 0.8000001])) == 0.0


#: States with a zero probability: two basis states and a two-flavor state.
DEGENERATE_PROBS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0))


class TestZeroProbabilities:
    """The closed forms divide only where no 0/0 or 0 * inf can arise."""

    @pytest.mark.parametrize("p", DEGENERATE_PROBS)
    def test_degenerate_state_measures_zero_without_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measures_from_probs(np.array(p)).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_degenerate_rows_in_a_stack(self, rng):
        p = rng.dirichlet(np.ones(3), size=9)
        degenerate = [1, 4, 8]
        p[degenerate] = DEGENERATE_PROBS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = measures_from_probs(p)
        assert np.all(values[degenerate] == 0.0)
        generic = np.setdiff1d(np.arange(9), degenerate)
        assert np.all(values[generic] > 0.0)


class TestGenericMeasures:
    def test_rows_equal_scalar_calls(self, rng):
        probs = rng.dirichlet(np.ones(3), size=20)
        amps = np.sqrt(probs) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (20, 3)))
        values, edges = measures.generic_measures(amps)
        assert values.shape == (20, 4) and edges.shape == (20, 3)
        for row, tri, a in zip(values, edges, amps):
            state = make_state(tuple(a))
            assert tuple(row) == (ggm(state), three_pi(state), gmc(state),
                                  concurrence_fill(state))
            assert tuple(tri) == generic_edges(state)

    # stacks of one, around the 256-state chunk boundary and of several chunks
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1001])
    def test_rows_do_not_depend_on_batching(self, rng, params, n):
        """A stack equals its row-by-row evaluation bit for bit, L/E = 0 rows too."""
        le = rng.uniform(0.0, 2000.0, n)
        le[::7] = 0.0
        amps = amplitude_array(params, "mu", le)
        got = np.hstack(measures.generic_measures(amps))
        one_by_one = np.vstack([np.hstack(measures.generic_measures(a[None])) for a in amps])
        assert np.array_equal(got.view(np.uint64), one_by_one.view(np.uint64))

    def test_table_rows_equal_reports(self, params):
        le = np.array([0.0, 262.2, 513.4, 1e4])
        rows = measures.table(params, "mu", le, path="generic")
        for row, x in zip(rows, le):
            assert row.tolist() == list(report(params, "mu", x, path="generic").values())

    # the encodings other than (4, 2, 1) put amplitudes on every basis
    # index, so every entry of the route's index table is read
    @pytest.mark.parametrize("states,encoding", [
        ("random", (4, 2, 1)), ("needles", (4, 2, 1)), ("basis states", (4, 2, 1)),
        ("random", (3, 5, 6)), ("random", (7, 0, 2)),
    ])
    def test_pair_traces_equal_traces_of_the_density(self, monkeypatch, rng, params, states,
                                                     encoding):
        """The route's M M^dagger equals the partial traces of the 8x8
        density matrices bit for bit."""
        monkeypatch.setattr(tristate, "OCCUPATION_INDICES", encoding)
        if states == "random":
            amps = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
        elif states == "needles":
            amps = np.array(NEEDLE_AMPLITUDES, dtype=np.complex128)
        else:
            amps = np.vstack([amplitude_array(params, flavor, np.zeros(2))
                              for flavor in ("e", "mu", "tau")])
            assert np.array_equal(np.abs(amps), np.eye(3).repeat(2, axis=0))
        rho = tristate.density(amps)
        expected = np.stack([np.moveaxis(linalg.partial_trace(rho, pair), (-2, -1), (0, 1))
                             for pair in ("AB", "AC", "BC")])
        got = measures._pair_traces(amps)
        assert got.shape == (3, 4, 4, len(amps))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    # one entry off the X pattern, in each pair reduction, in one state of
    # the second chunk: at the tolerance it passes, at twice it is named
    @pytest.mark.parametrize("entry", [(0, 1), (2, 0), (3, 2)])
    @pytest.mark.parametrize("pair", [0, 1, 2])
    @pytest.mark.parametrize("factor,passes", [(1.0, True), (2.0, False)])
    def test_route_rejects_a_planted_off_x_entry(self, monkeypatch, params, pair, entry,
                                                 factor, passes):
        amps = amplitude_array(params, "mu", np.geomspace(10.0, 1600.0, 300))
        traces = measures._pair_traces

        def planted(chunk):
            pairs = traces(chunk)
            if len(chunk) < measures.GENERIC_CHUNK:
                pairs[(pair, *entry, 5)] = factor * linalg.HERMITICITY_TOL
            return pairs

        monkeypatch.setattr(measures, "_pair_traces", planted)
        if passes:
            measures.generic_measures(amps)
        else:
            with pytest.raises(ValueError, match="not an X state: off-X entry 2.000e-12"):
                measures.generic_measures(amps)

    # each fault fails the CKW check, which runs before the off-X check;
    # every reduction stays an X state under each of them
    @pytest.mark.parametrize("fault", ["swapped pair traces", "unconjugated density",
                                       "wrong single-qubit index"])
    def test_ckw_check_rejects_a_faulty_route(self, monkeypatch, params, fault):
        if fault == "swapped pair traces":
            traces = measures._pair_traces
            monkeypatch.setattr(measures, "_pair_traces", lambda chunk: traces(chunk)[[0, 2, 1]])
        elif fault == "unconjugated density":
            # the route's product M M^T in place of M M^dagger: the partial
            # traces of v v^T, the density matrix without its conjugate
            def unconjugated(amps):
                m = tristate.occupation_vectors(amps)[measures._PAIR_ROWS]
                return m[:, :, None, 0] * m[:, None, :, 0] + m[:, :, None, 1] * m[:, None, :, 1]

            monkeypatch.setattr(measures, "_pair_traces", unconjugated)
        else:
            # rho_C's a from rho_AC[01, 01], where rho_AC[10, 10] belongs
            first, second = measures._SINGLE_AD
            monkeypatch.setattr(measures, "_SINGLE_AD",
                                (first, np.where(second == 26, 21, second)))
        amps = amplitude_array(params, "mu", np.geomspace(10.0, 1600.0, 300))
        with pytest.raises(ValueError, match=r"^edges fail the CKW identity e_x = C_xy\^2 "
                                             r"\+ C_xz\^2: residual \d\.\d{3}e[-+]0\d "
                                             r"exceeds 1\.0e-12$"):
            measures.generic_measures(amps)

    def test_off_x_check_rejects_what_the_ckw_check_passes(self, monkeypatch, params):
        # |nu_tau> on |000>: C factors out, so the three-tangle is 0 and the
        # edges keep the CKW identity, but rho_AB and rho_A are not X-shaped
        monkeypatch.setattr(tristate, "OCCUPATION_INDICES", (4, 2, 0))
        amps = amplitude_array(params, "mu", np.geomspace(10.0, 1600.0, 300))
        with pytest.raises(ValueError, match="not an X state: off-X entry"):
            measures.generic_measures(amps)
        monkeypatch.setattr(linalg, "HERMITICITY_TOL", np.inf)
        assert np.isfinite(np.hstack(measures.generic_measures(amps))).all()

    # the norm check lets these rows through, and their edges (1 + 0.99e-10)^2
    # and (1 - 0.99e-10)^2 are right for them
    @pytest.mark.parametrize("excess", [0.99e-10, -0.99e-10])
    def test_rows_the_norm_check_accepts_give_finite_measures(self, excess):
        x = math.sqrt(0.5 * (1.0 + excess))
        values, edges = measures.generic_measures([[x, x, 0.0]])
        assert np.isfinite(values).all()
        assert edges[0].tolist() == pytest.approx([(1.0 + excess) ** 2] * 2 + [0.0],
                                                  rel=1e-15, abs=0.0)

    def test_rejects_unnormalized_row(self):
        amps = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="norm"):
            measures.generic_measures(amps)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            measures.generic_measures(np.ones(3))


class TestNanAndEmptyInputs:
    def test_nan_row_fills_zero_through_the_gmc_gate(self):
        p = np.array([[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5], [0.5, np.nan, 0.5]])
        values = measures_from_probs(p)
        # ggm, three_pi and gmc stay NaN; gmc > 0 is false, so the fill is 0
        assert np.isnan(values[[0, 2], :3]).all()
        assert values[[0, 2], 3].tolist() == [0.0, 0.0]
        assert values[1].tolist() == measures_from_probs(p[1]).tolist()

    def test_empty_probabilities(self):
        assert measures_from_probs(np.empty((0, 3))).shape == (0, 4)

    def test_empty_amplitudes_on_the_generic_route(self):
        values, edges = measures.generic_measures(np.empty((0, 3)))
        assert values.shape == (0, 4) and edges.shape == (0, 3)

    @pytest.mark.parametrize("path", measures.PATHS)
    def test_empty_grid_on_either_route(self, params, path):
        rows = measures.table(params, "e", np.array([]), path=path)
        assert rows.shape == (0, len(measures.CSV_COLUMNS))


#: Needle-like triangles: the two largest edges nearly equal, the third tiny.
NEEDLE_AMPLITUDES = (
    (0.6594896186777208, 0.751713670792484, 5.898654471275196e-08),
    (0.9428090415820591, 0.33333333333333187, 9.428090415820592e-08),
)


def reference_row(amps):
    """(ggm, three_pi, gmc, fill) and edges of one state, one reduction at a time.

    Every reduction is a ``partial_trace`` of the 8x8 density matrix.  The
    spectra come from ``hermitian_eigenvalues`` and, in
    ``reference_negativity``, from direct ``np.linalg.eigvalsh`` calls, so
    the route's closed-form spectra, of the single-qubit reductions for its
    ggm and of the partial transposes of the pair reductions for its
    negativities, are checked against LAPACK eigensolves they do not share.
    """
    rho = density(amps)
    singles = [linalg.partial_trace(rho, q) for q in "ABC"]
    edges = snap(np.array([4.0 * (s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]).real
                           for s in singles]))
    lam = max(linalg.hermitian_eigenvalues(s)[-1] for s in singles)
    n_sq = {pair: reference_negativity(linalg.partial_trace(rho, pair)) ** 2
            for pair in ("AB", "AC", "BC")}
    pi_a = edges[0] - n_sq["AB"] - n_sq["AC"]
    pi_b = edges[1] - n_sq["AB"] - n_sq["BC"]
    pi_c = edges[2] - n_sq["AC"] - n_sq["BC"]
    values = [snap(1.0 - lam), snap((pi_a + pi_b + pi_c) / 3.0),
              snap(edges.min()), heron_fill(edges)]
    return np.array(values, dtype=np.float64), edges


class TestGenericRoute:
    """The batched generic route against a state-by-state reference."""

    @staticmethod
    def assert_matches_reference(amps):
        values, edges = measures.generic_measures(amps)
        for row, tri, a in zip(values, edges, amps):
            ref_values, ref_edges = reference_row(a)
            # edges, gmc and fill bit for bit; ggm and three_pi to rounding
            assert np.array_equal(tri, ref_edges)
            assert np.array_equal(row[2:], ref_values[2:])
            assert np.max(np.abs(row[:2] - ref_values[:2])) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.lists(w_class_states(), min_size=1, max_size=6))
    def test_random_w_states(self, states):
        self.assert_matches_reference(np.array([s.amplitudes() for s in states]))

    def test_needles(self):
        self.assert_matches_reference(np.array(NEEDLE_AMPLITUDES, dtype=np.complex128))

    def test_near_product_states(self, rng):
        p_min = np.concatenate([[1e-12], 10.0 ** rng.uniform(-12.0, -3.0, 299)])
        probs = rng.dirichlet(np.ones(2), size=300) * (1.0 - p_min)[:, None]
        probs = np.column_stack([probs, p_min])
        # put the smallest probability on each qubit in turn
        probs = np.stack([np.roll(p, i % 3) for i, p in enumerate(probs)])
        amps = np.sqrt(probs) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, probs.shape))
        self.assert_matches_reference(amps)


class TestClosedFormInvariants:
    @settings(max_examples=200, deadline=None)
    @given(w_class_states())
    def test_paths_agree(self, state):
        p = np.array(state.probabilities())
        generic = np.array([
            ggm(state), three_pi(state), gmc(state), concurrence_fill(state),
        ])
        closed = measures_from_probs(p)
        assert np.max(np.abs(generic - closed)) <= 1e-10
        # ggm and gmc agree relatively too; three_pi and fill do not yet near
        # the snap floor (the fill's Heron cancellation, and three_pi's
        # subtraction edge - N^2 - N^2 on the generic route)
        ggm_gmc = [0, 2]
        assert np.all(np.abs(generic - closed)[ggm_gmc]
                      <= 1e-12 * np.abs(closed[ggm_gmc]) + measures.VALUE_SNAP)

    @settings(max_examples=200, deadline=None)
    @given(w_class_states())
    def test_monogamy_per_focus(self, state):
        rho = density(state.amplitudes())
        n_sq = {
            pair: reference_negativity(linalg.partial_trace(rho, pair)) ** 2
            for pair in ("AB", "AC", "BC")
        }
        edge_a, edge_b, edge_c = generic_edges(state)
        assert edge_a - n_sq["AB"] - n_sq["AC"] >= -1e-10
        assert edge_b - n_sq["AB"] - n_sq["BC"] >= -1e-10
        assert edge_c - n_sq["AC"] - n_sq["BC"] >= -1e-10

    @settings(max_examples=150, deadline=None)
    @given(w_class_states(), st.permutations([0, 1, 2]))
    def test_permutation_invariance(self, state, perm):
        amps = state.amplitudes()
        permuted = make_state(tuple(amps[i] for i in perm))
        for f in (ggm, three_pi, gmc, concurrence_fill):
            assert f(state) == pytest.approx(f(permuted), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.permutations([0, 1, 2]))
    def test_closed_form_permutation_invariance(self, perm):
        p = np.array([0.61, 0.28, 0.11])
        q = p[list(perm)]
        assert np.allclose(measures_from_probs(p), measures_from_probs(q), atol=1e-12)

    @pytest.mark.parametrize("p", [
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    ])
    def test_zero_law(self, p):
        assert np.all(measures_from_probs(np.array(p)) == 0.0)

    def test_equilateral_law(self):
        p = np.full(3, 1 / 3)
        assert measures_from_probs(p)[2] == pytest.approx(8 / 9, abs=1e-12)
        assert measures_from_probs(p)[3] == pytest.approx(8 / 9, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=16),
           st.floats(-4e-11, 4e-11))
    @example([(1.0, 1.0, 0.0)], 4e-11)
    @example([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1e-300, 0.0)], 0.0)
    def test_closed_form_edges_pass_the_triangle_check(self, weights, excess):
        # why ``table`` does not check the closed-form triangles: for rows the
        # probability check accepts, summing to within 4e-11 of 1, the edges
        # 4 p_x (p_y + p_z) lie in [0, 1] and keep the triangle inequality,
        # both within 1e-10 (e_b + e_c - e_a = 8 p_b p_c, and no edge exceeds
        # the squared row sum); |a|^2 of unitary evolution sums to 1 within
        # about 1e-15
        w = np.array(weights).T
        w[0, w.sum(axis=0) == 0.0] = 1.0   # an all-zero draw stands for a basis state
        p = np.minimum(w / w.sum(axis=0) * (1.0 + excess), 1.0)
        _clip_probability_rows(p)
        edges = measures._closed_form(p)[1]
        assert edges.min() >= -1e-10 and edges.max() <= 1.0 + 1e-10
        assert np.all(edges <= edges.sum(axis=0) - edges + 1e-10)

    def test_gmc_value_stable_under_edge_ties(self):
        p = np.array([0.25, 0.25, 0.5])
        edges = closed_form_edges(p)
        assert edges[0] == edges[1]
        assert measures_from_probs(p)[2] == edges.min()


class TestReport:
    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    @pytest.mark.parametrize("params", [OscillationParams(), OscillationParams(delta_cp=-90.0)],
                             ids=["default", "cp"])
    @pytest.mark.parametrize("flavor", ["e", "mu", "tau"])
    def test_all_zero_at_origin(self, params, flavor, path):
        rep = report(params, flavor, 0.0, path=path)
        basis = tuple(1.0 if f == flavor else 0.0 for f in ("e", "mu", "tau"))
        assert (rep["p_e"], rep["p_mu"], rep["p_tau"]) == basis
        assert tuple(rep[m] for m in MEASURE_NAMES) == (0.0, 0.0, 0.0, 0.0)

    def test_electron_fill_near_equipartition(self, params):
        rep = report(params, "e", 10830.0, path="closed-form")
        assert rep["fill"] == pytest.approx(0.89, abs=0.01)

    def test_paths_agree_at_quoted_points(self, params):
        for flavor, le in (("e", 10830.0), ("mu", 513.4), ("mu", 262.2)):
            closed = report(params, flavor, le, path="closed-form")
            generic = report(params, flavor, le, path="generic")
            for names in (MEASURE_NAMES, ("edge_a", "edge_b", "edge_c")):
                assert np.allclose([closed[n] for n in names], [generic[n] for n in names],
                                   atol=1e-10)

    def test_rejects_unknown_path(self, params):
        with pytest.raises(ValueError, match="path"):
            report(params, "e", 1.0, path="magic")

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    def test_keys_are_the_csv_columns_in_order(self, params, path):
        assert tuple(report(params, "mu", 513.4, path=path)) == measures.CSV_COLUMNS

    def test_boundedness_on_electron_sweep(self, params):
        from trinu.oscillation import probability_array

        le = np.linspace(0.0, 40000.0, 4001)
        p = probability_array(params, "e", le)
        vals = measures_from_probs(p)
        assert np.all(vals[:, 0] <= 1 / 3 + 1e-10)
        assert np.all(vals[:, 3] <= 8 / 9 + 1e-10)
        assert np.all(vals[:, 1] <= 1.0 + 1e-10)

    def test_measure_ranges(self, params):
        rep = report(params, "mu", 777.0, path="closed-form")
        assert 0.0 <= rep["ggm"] <= 0.5
        assert 0.0 <= rep["three_pi"] <= 1.0
        assert 0.0 <= rep["gmc"] <= 1.0
        assert 0.0 <= rep["fill"] <= 1.0

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinu import OscillationParams, amplitudes, build_pmns
from trinu import oscillation
from trinu.cli import main
from trinu.oscillation import FLAVORS, amplitude_array, probability_array

from conftest import physics_params, probability_matrix, probs_at

#: A CP-violating parameter set, so the mixing matrix has imaginary parts.
CP_PARAMS = OscillationParams(delta_cp=-90.0)


def interference_sum(params, initial, le):
    """Probabilities to (e, mu, tau) from the interference-sum formula.

    delta_ab - 4 sum_{k>l} Re(X_kl) sin^2(x_kl) - 2 sum_{k>l} Im(X_kl) sin(2 x_kl),
    with X_kl = U*_ak U_bk U_al U*_bl and x_kl = 1.27 dm2_kl L/E.  The sign of
    the imaginary term is fixed by the exp(-i phi_k) evolution convention of
    the amplitudes.  trinu evaluates |amplitude|^2; this is the independent
    check.
    """
    le = np.asarray(le, dtype=np.float64)
    a = FLAVORS.index(initial)
    u = build_pmns(params)
    # the splittings of the amplitudes' phases
    dm2 = (0.0, params.dm2_21, params.dm2_31)
    out = np.empty(le.shape + (3,))
    for b in range(3):
        p = np.full(le.shape, 1.0 if a == b else 0.0)
        for k, l in ((1, 0), (2, 0), (2, 1)):
            arg = 1.27 * (dm2[k] - dm2[l]) * le
            quartic = np.conj(u[a, k]) * u[b, k] * u[a, l] * np.conj(u[b, l])
            p = p - 4.0 * quartic.real * np.sin(arg) ** 2 - 2.0 * quartic.imag * np.sin(2.0 * arg)
        out[..., b] = p
    return out


def checked_probabilities(p):
    """The probability check, ``_clip_probability_rows``, on a copy of
    probabilities (..., 3); returns the clamped copy in that layout."""
    p = np.array(p, dtype=np.float64)
    oscillation._clip_probability_rows(np.moveaxis(p, -1, 0))
    return p


class TestParams:
    def test_defaults_are_consistent(self):
        p = OscillationParams()
        assert p.dm2_31 == pytest.approx(p.dm2_21 + p.dm2_32, abs=1e-9)

    @pytest.mark.parametrize("field,value", [
        ("theta12", -1.0), ("theta23", 90.0), ("theta13", float("nan")),
    ])
    def test_rejects_bad_angles(self, field, value):
        with pytest.raises(ValueError):
            OscillationParams(**{field: value})

    @pytest.mark.parametrize("field", ["dm2_21", "dm2_31", "dm2_32"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_splittings(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OscillationParams(**{field: value})

    def test_accepts_inverted_ordering(self):
        p = OscillationParams(dm2_21=7.5e-5, dm2_31=-2.382e-3, dm2_32=-2.457e-3)
        assert p.dm2_31 < 0.0
        assert sum(probs_at(p, "mu", 500.0)) == pytest.approx(1.0)

    def test_inconsistent_splittings_warn(self):
        with pytest.warns(UserWarning, match="inconsistent"):
            OscillationParams(dm2_32=1e-3)

    def test_splitting_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="inconsistent") as record:
            OscillationParams(dm2_32=1e-3)
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="inconsistent") as record:
            OscillationParams.from_dict({"dm2_31": 2.5e-3})
        assert record[0].filename == oscillation.__file__

    def test_from_dict_merges_defaults(self):
        p = OscillationParams.from_dict({"theta23": 45.0})
        assert p.theta23 == 45.0
        assert p.theta12 == 33.48

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            OscillationParams.from_dict({"theta99": 1.0})

    @pytest.mark.parametrize("value", [None, "33.0", True, [33.0]])
    def test_from_dict_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="theta12 must be a real number"):
            OscillationParams.from_dict({"theta12": value})

    def test_from_json(self, tmp_path):
        f = tmp_path / "params.json"
        f.write_text(json.dumps({"delta_cp": 30.0}))
        assert OscillationParams.from_json(f).delta_cp == 30.0


class TestMixingMatrix:
    def test_default_electron_row(self, params):
        u = build_pmns(params)
        c12, s12 = math.cos(math.radians(33.48)), math.sin(math.radians(33.48))
        c13, s13 = math.cos(math.radians(8.50)), math.sin(math.radians(8.50))
        assert u[0, 0].real == pytest.approx(c12 * c13, abs=1e-14)
        assert u[0, 1].real == pytest.approx(s12 * c13, abs=1e-14)
        assert u[0, 2].real == pytest.approx(s13, abs=1e-14)

    def test_zero_mixing_is_identity(self):
        p = OscillationParams(theta12=0.0, theta23=0.0, theta13=0.0)
        assert np.allclose(build_pmns(p), np.eye(3), atol=1e-15)

    def test_real_when_cp_phase_zero(self, params):
        assert np.max(np.abs(build_pmns(params).imag)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(physics_params())
    def test_unitarity(self, p):
        u = build_pmns(p)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12


class TestAmplitudes:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_no_evolution_at_zero(self, params, flavor):
        a_e, a_mu, a_tau = amplitudes(params, flavor, 0.0)
        expected = {f: 1.0 if f == flavor else 0.0 for f in FLAVORS}
        assert abs(a_e - expected["e"]) <= 1e-12
        assert abs(a_mu - expected["mu"]) <= 1e-12
        assert abs(a_tau - expected["tau"]) <= 1e-12

    def test_near_equipartition_point(self, params):
        a = amplitudes(params, "e", 10830.0)
        for amp in a:
            assert abs(amp) ** 2 == pytest.approx(1 / 3, abs=0.02)

    def test_rejects_negative_le(self, params):
        with pytest.raises(ValueError):
            amplitudes(params, "e", -1.0)

    @pytest.mark.parametrize("le", [float("nan"), float("inf")])
    def test_rejects_non_finite_le(self, params, le):
        with pytest.raises(ValueError, match="L/E must be finite and non-negative"):
            amplitudes(params, "e", le)

    def test_array_matches_scalar_calls(self, params):
        le = np.geomspace(10.0, 1600.0, 51)
        stack = amplitude_array(params, "mu", le)
        assert stack.shape == (51, 3)
        for row, x in zip(stack, le):
            assert tuple(row) == amplitudes(params, "mu", x)

    @settings(max_examples=200, deadline=None)
    @given(physics_params(), st.floats(0.0, 2e4))
    def test_normalization(self, p, le):
        norm_sq = sum(abs(a) ** 2 for a in amplitudes(p, "mu", le))
        assert norm_sq == pytest.approx(1.0, abs=1e-12)


class TestProbabilities:
    @pytest.mark.parametrize("p", [OscillationParams(), CP_PARAMS], ids=["default", "cp"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_delta_term_only_at_zero(self, p, flavor):
        basis = tuple(1.0 if f == flavor else 0.0 for f in FLAVORS)
        assert probs_at(p, flavor, 0.0) == basis
        assert amplitudes(p, flavor, 0.0) == basis

    def test_muon_points(self, params):
        p = probs_at(params, "mu", 262.2)
        assert np.allclose(p, (0.024, 0.488, 0.488), atol=0.005)
        p = probs_at(params, "mu", 479.9)
        assert np.allclose(p, (0.041, 0.022, 0.937), atol=0.005)

    @settings(max_examples=200, deadline=None)
    @given(physics_params(), st.sampled_from(FLAVORS), st.floats(0.0, 2e4))
    def test_matches_squared_amplitudes(self, p, flavor, le):
        probs = probs_at(p, flavor, le)
        assert np.allclose(probs, interference_sum(p, flavor, le), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("le", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_le(self, params, le):
        with pytest.raises(ValueError, match="L/E must be finite and non-negative"):
            probs_at(params, "e", le)
        with pytest.raises(ValueError, match="L/E"):
            probability_array(params, "e", np.array([1.0, le]))

    def test_checked_probabilities_rejects_nan_and_bad_sums(self):
        with pytest.raises(ValueError, match="outside"):
            checked_probabilities(np.array([[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]]))
        with pytest.raises(ValueError, match="sum"):
            checked_probabilities(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.5]]))
        with pytest.raises(ValueError, match="outside"):
            checked_probabilities(np.array([np.nan, 0.5, 0.5]))

    def test_checked_probabilities_tolerance_boundary(self):
        # entries 1e-12 outside [0, 1] are clamped onto it, 2e-12 are refused
        clamped = checked_probabilities(np.array([[-1e-12, 0.5, 0.5 + 1e-12],
                                                  [1.0 + 1e-12, 0.0, 0.0]]))
        assert np.array_equal(clamped, [[0.0, 0.5, 0.5 + 1e-12], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="outside"):
            checked_probabilities(np.array([-2e-12, 0.5, 0.5 + 2e-12]))

    def test_checked_probabilities_messages_print_plain_floats(self):
        with pytest.raises(ValueError) as err:
            checked_probabilities(np.array([[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]]))
        assert str(err.value) == "probability nan outside [0, 1] beyond tolerance"
        with pytest.raises(ValueError) as err:
            checked_probabilities(np.array([0.5, 0.5, 0.5]))
        assert str(err.value) == "probabilities sum to 1.5, expected 1"

    @pytest.mark.parametrize("inside,outside,message", [
        (0.5000000000999998, 0.5000000000999999, "probabilities sum to 1.0000000001, expected 1"),
        (0.4999999999000001, 0.49999999990000005, "probabilities sum to 0.9999999999, expected 1"),
    ])
    def test_checked_probabilities_sum_boundary(self, inside, outside, message):
        # the last row's sum is within 1e-10 of 1 up to `inside`, one ulp on it is not
        checked_probabilities(np.array([[0.25, 0.25, 0.5], [0.25, 0.25, inside]]))
        with pytest.raises(ValueError) as err:
            checked_probabilities(np.array([[0.25, 0.25, 0.5], [0.25, 0.25, outside]]))
        assert str(err.value) == message

    @pytest.mark.parametrize("bound,outward", [(-1e-12, -1.0), (1.0 + 1e-12, 2.0)])
    def test_checked_probabilities_entry_boundary_ulps(self, bound, outward):
        # the row is (x, 0, 1) near 0 and (x, 0, 0) near 1, so it sums to 1 once clamped
        rest = 1.0 if bound < 0.5 else 0.0
        for value in (bound, np.nextafter(bound, 0.5)):
            clamped = checked_probabilities(np.array([[0.5, 0.5, 0.0], [value, 0.0, rest]]))
            assert clamped[1].tolist() == [round(value), 0.0, rest]
        beyond = float(np.nextafter(bound, outward))
        with pytest.raises(ValueError) as err:
            checked_probabilities(np.array([[0.5, 0.5, 0.0], [beyond, 0.0, rest]]))
        assert str(err.value) == f"probability {beyond!r} outside [0, 1] beyond tolerance"

    @pytest.mark.parametrize("row", [0, -1])
    def test_checked_probabilities_nan_in_first_or_last_row(self, row):
        p = np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        p[row, 1] = np.nan
        with pytest.raises(ValueError) as err:
            checked_probabilities(p)
        assert str(err.value) == "probability nan outside [0, 1] beyond tolerance"

    def test_checked_le_keeps_negative_zero(self):
        le = oscillation._checked_le(np.array([-0.0, 1.0, 0.0]))
        assert np.signbit(le[0]) and le.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("bad,shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
        (-1e-300, "-1e-300"),
    ])
    @pytest.mark.parametrize("at", [0, -1])
    def test_checked_le_names_the_first_bad_value(self, bad, shown, at):
        le = np.array([0.0, -0.0, 5.0, 7.0])
        le[at] = bad
        with pytest.raises(ValueError) as err:
            oscillation._checked_le(le)
        assert str(err.value) == f"L/E must be finite and non-negative, got {shown} km/GeV"

    def test_checked_le_accepts_empty_and_scalar_input(self):
        assert oscillation._checked_le([]).shape == (0,)
        assert oscillation._checked_le(-0.0).shape == ()
        with pytest.raises(ValueError, match="got nan km/GeV"):
            oscillation._checked_le(float("nan"))

    def test_row_and_column_sums(self, params):
        for le in (0.0, 123.4, 5678.0, 40000.0):
            m = probability_matrix(params, le)
            assert np.allclose(m.sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-10)

    def test_detailed_balance_at_zero_cp_phase(self, params):
        for le in (77.7, 1234.5, 9999.0):
            m = probability_matrix(params, le)
            assert np.max(np.abs(m - m.T)) <= 1e-12

    def test_bounded_on_dense_grid(self, params):
        le = np.linspace(0.0, 40000.0, 20001)
        p = probability_array(params, "e", le)
        assert np.all(p >= -1e-12)
        assert np.all(p <= 1.0 + 1e-12)


def pdg_probability(params, a, b, le, antineutrino):
    """P(a -> b) from the PDG vacuum formula, written out apart from trinu.

    PDG's mixing matrix has U_e3 = s13 e^{-i delta}.  The neutrino
    probability is delta_ab - 4 sum_{i>j} Re(X_ij) sin^2(x_ij)
    + 2 sum_{i>j} Im(X_ij) sin(2 x_ij), with X_ij = U*_ai U_bi U_aj U*_bj and
    x_ij = 1.27 dm2_ij L/E; the antineutrino flips the sign of the Im term.
    """
    s12, c12 = math.sin(math.radians(params.theta12)), math.cos(math.radians(params.theta12))
    s23, c23 = math.sin(math.radians(params.theta23)), math.cos(math.radians(params.theta23))
    s13, c13 = math.sin(math.radians(params.theta13)), math.cos(math.radians(params.theta13))
    e = complex(math.cos(math.radians(params.delta_cp)), math.sin(math.radians(params.delta_cp)))
    u = [
        [c12 * c13, s12 * c13, s13 / e],
        [-s12 * c23 - c12 * s23 * s13 * e, c12 * c23 - s12 * s23 * s13 * e, s23 * c13],
        [s12 * s23 - c12 * c23 * s13 * e, -c12 * s23 - s12 * c23 * s13 * e, c23 * c13],
    ]
    splittings = {(1, 0): params.dm2_21, (2, 0): params.dm2_31, (2, 1): params.dm2_32}
    sign = -1.0 if antineutrino else 1.0
    p = 1.0 if a == b else 0.0
    for (i, j), dm2 in splittings.items():
        x = u[a][i].conjugate() * u[b][i] * u[a][j] * u[b][j].conjugate()
        arg = 1.27 * dm2 * le
        p += -4.0 * x.real * math.sin(arg) ** 2 + sign * 2.0 * x.imag * math.sin(2.0 * arg)
    return p


class TestParticle:
    """trinu's amplitude with the PDG matrix is the antineutrino amplitude."""

    def test_mu_to_e_is_the_antineutrino_probability(self):
        params = OscillationParams(delta_cp=-90.0)
        p_mu_e = probs_at(params, "mu", 500.0)[0]
        expected = pdg_probability(params, 1, 0, 500.0, antineutrino=True)
        assert expected == pytest.approx(0.0270942, abs=5e-8)
        assert p_mu_e == pytest.approx(expected, abs=1e-12)
        # the neutrino value differs by a factor of about two
        neutrino = pdg_probability(params, 1, 0, 500.0, antineutrino=False)
        assert neutrino == pytest.approx(0.0522735, abs=5e-8)

    def test_opposite_phase_gives_the_neutrino_value(self):
        p_mu_e = probs_at(OscillationParams(delta_cp=90.0), "mu", 500.0)[0]
        assert p_mu_e == pytest.approx(0.0522735, abs=5e-8)
        neutrino = pdg_probability(OscillationParams(delta_cp=-90.0), 1, 0, 500.0,
                                   antineutrino=False)
        assert p_mu_e == pytest.approx(neutrino, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 37.0, -90.0, 123.0, 180.0])
    def test_cpt_identity(self, delta):
        # CPT: P_antinu(a -> b) = P_nu(b -> a), and the neutrino is trinu at -delta
        le = np.linspace(0.0, 40000.0, 4001)
        antineutrino = OscillationParams(delta_cp=delta)
        neutrino = OscillationParams(delta_cp=-delta)
        for a, b in itertools.product(range(3), repeat=2):
            forward = probability_array(antineutrino, FLAVORS[a], le)[:, b]
            backward = probability_array(neutrino, FLAVORS[b], le)[:, a]
            assert np.max(np.abs(forward - backward)) <= 1e-12


class TestMixingCache:
    """``amplitude_array`` takes the flavor index, the phase rates and the
    weights from ``oscillation._mixing``, cached per (params, initial)."""

    #: The defaults, a CP-violating phase and the inverted ordering.
    PARAM_SETS = (
        OscillationParams(),
        OscillationParams(delta_cp=195.0),
        OscillationParams(dm2_31=-2.382e-3, dm2_32=-2.457e-3),
    )
    LE = np.linspace(0.0, 40000.0, 257)

    def test_interleaved_calls_match_fresh_ones_bit_for_bit(self):
        keys = list(itertools.product(self.PARAM_SETS, FLAVORS))
        fresh = {}
        for key in keys:
            oscillation._mixing.cache_clear()
            fresh[key] = amplitude_array(*key, self.LE).tobytes()
        oscillation._mixing.cache_clear()
        # nine keys through an eight-entry cache, forwards, backwards and
        # alternating, so calls hit, miss and evict
        order = keys + keys[::-1] + keys[::2] + keys[1::2]
        for key in order:
            assert amplitude_array(*key, self.LE).tobytes() == fresh[key], key
        info = oscillation._mixing.cache_info()
        assert info.hits and info.misses > len(keys)

    def test_equal_params_share_one_entry(self):
        oscillation._mixing.cache_clear()
        first = amplitude_array(OscillationParams(delta_cp=195.0), "mu", self.LE)
        second = amplitude_array(OscillationParams(delta_cp=195.0), "mu", self.LE)
        info = oscillation._mixing.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert second.tobytes() == first.tobytes()

    def test_cached_constants_are_read_only(self):
        _, rates, weights = oscillation._mixing(OscillationParams(), "e")
        assert not rates.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("first", ["-0.0", "0.0"])
    def test_signed_zero_phase_writes_the_same_csv_in_either_order(self, tmp_path, first):
        # -0.0 == 0.0, so the two parameter sets share a cache entry: the
        # one made first must serve the other with the same bytes
        second = "0.0" if first == "-0.0" else "-0.0"
        oscillation._mixing.cache_clear()
        written = {}
        for delta in (first, second):
            pfile = tmp_path / f"params{delta}.json"
            pfile.write_text(f'{{"delta_cp": {delta}}}')
            out, slopes = tmp_path / f"{delta}.csv", tmp_path / f"{delta}-slopes.csv"
            assert main(["sweep", "--preset", "muon", "--path", "both", "--points", "201",
                         "--params", str(pfile), "--output", str(out),
                         "--slopes", str(slopes)]) == 0
            written[delta] = out.read_bytes() + slopes.read_bytes()
        assert oscillation._mixing.cache_info().hits > 0
        assert written["-0.0"] == written["0.0"]

import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinu import _backend, cli, density, linalg, measures, oscillation, tristate

from conftest import (
    PSD_TOL,
    partial_transpose,
    random_hermitian,
    reference_negativity,
    w_class_states,
)

W = (1 / np.sqrt(3),) * 3


class TestHermitianEigenvalues:
    def test_identity(self):
        w = linalg.hermitian_eigenvalues(np.eye(4))
        assert np.allclose(w, np.ones(4), atol=1e-13)

    def test_diagonal_is_sorted(self):
        w = linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-13)

    def test_bit_flip_spectrum(self):
        w = linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-13)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            linalg.hermitian_eigenvalues(m)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_trace_identities_random(self, rng, dim):
        for _ in range(1000):
            m = random_hermitian(rng, dim)
            w = linalg.hermitian_eigenvalues(m)
            assert len(w) == dim
            assert np.all(np.diff(w) >= 0)
            assert abs(w.sum() - np.trace(m).real) <= 1e-10 * max(1, dim)
            assert abs((w ** 2).sum() - np.sum(np.abs(m) ** 2)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_against_lapack(self, rng, dim):
        for _ in range(200):
            m = random_hermitian(rng, dim)
            assert np.allclose(
                linalg.hermitian_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-10
            )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_stack_matches_one_by_one(self, rng, dim):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(12)])
        stack = stack.reshape(3, 4, dim, dim)
        w = linalg.hermitian_eigenvalues(stack)
        assert w.shape == (3, 4, dim)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(w[idx], linalg.hermitian_eigenvalues(stack[idx]))

    def test_stack_rejects_one_non_hermitian_member(self, rng):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            linalg.hermitian_eigenvalues(stack)


class TestPartialTrace:
    def test_product_state(self):
        rho = density((1.0, 0.0, 0.0))
        assert np.allclose(linalg.partial_trace(rho, "A"), np.diag([0.0, 1.0]))

    def test_w_state(self):
        rho = density(W)
        assert np.allclose(
            linalg.partial_trace(rho, "A"), np.diag([2 / 3, 1 / 3]), atol=1e-12
        )

    def test_unbalanced_state(self):
        amps = np.sqrt([0.77, 0.115, 0.115])
        rho = density(amps)
        assert np.allclose(
            linalg.partial_trace(rho, "A"), np.diag([0.23, 0.77]), atol=1e-12
        )

    def test_two_qubit_reduction_shape_and_trace(self):
        rho = density(W)
        for keep in ("AB", "AC", "BC"):
            red = linalg.partial_trace(rho, keep)
            assert red.shape == (4, 4)
            assert abs(np.trace(red).real - 1.0) <= 1e-12

    def test_rejects_non_hermitian(self):
        m = np.eye(8, dtype=np.complex128) / 8
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            linalg.partial_trace(m, "A")

    @pytest.mark.parametrize("keep", ["", "ABC", "X"])
    def test_rejects_bad_keep(self, keep):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(8) / 8, keep)

    def test_linear_and_trace_preserving(self, rng):
        for _ in range(50):
            m1 = random_hermitian(rng, 8)
            m2 = random_hermitian(rng, 8)
            a, b = rng.normal(), rng.normal()
            lhs = linalg.partial_trace(a * m1 + b * m2, "AB")
            rhs = a * linalg.partial_trace(m1, "AB") + b * linalg.partial_trace(m2, "AB")
            assert np.allclose(lhs, rhs, atol=1e-12)
            assert abs(
                np.trace(linalg.partial_trace(m1, "B")).real - np.trace(m1).real
            ) <= 1e-10


    @pytest.mark.parametrize("keep", ["A", "B", "C", "AB", "AC", "BC"])
    def test_stack_matches_one_by_one(self, rng, keep):
        stack = np.stack([random_hermitian(rng, 8) for _ in range(6)]).reshape(2, 3, 8, 8)
        red = linalg.partial_trace(stack, keep)
        d = 2 ** len(keep)
        assert red.shape == (2, 3, d, d)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(red[idx], linalg.partial_trace(stack[idx], keep))

    def test_matches_sequential_traces(self, rng):
        m = random_hermitian(rng, 8)
        t = m.reshape((2,) * 6)
        # trace C, then B: what is left is qubit A
        expected = np.trace(np.trace(t, axis1=2, axis2=5), axis1=1, axis2=3)
        assert np.allclose(linalg.partial_trace(m, "A"), expected, atol=1e-13)


def einsum_partial_trace(rows, keep):
    """Reference partial trace of entry rows (8, 8, ...) by ``einsum``."""
    kept = ["ABC".index(q) for q in keep]
    ket = "abc"
    bra = "".join(q.upper() if i in kept else q for i, q in enumerate(ket))
    out = "".join(ket[i] for i in kept) + "".join(bra[i] for i in kept)
    t = np.einsum(f"{ket}{bra}...->{out}...", rows.reshape((2,) * 6 + rows.shape[2:]))
    d = 2 ** len(kept)
    return t.reshape((d, d) + rows.shape[2:])


class TestPartialTraceRows:
    """``partial_trace`` of stacks, in entry rows (states on the last axis)
    against an ``einsum`` trace of the same rows."""

    @staticmethod
    def hermitian_rows(rng, n):
        return np.ascontiguousarray(entry_rows(np.stack([random_hermitian(rng, 8)
                                                         for _ in range(n)])))

    @staticmethod
    def reduced_rows(rows, keep):
        """``partial_trace`` of the matrices of ``rows``, as entry rows."""
        return entry_rows(linalg.partial_trace(np.moveaxis(rows, (0, 1), (-2, -1)), keep))

    @pytest.mark.parametrize("keep", ["AB", "AC", "BC"])
    def test_pairs_equal_einsum_bit_for_bit(self, rng, keep):
        rows = self.hermitian_rows(rng, 40)
        red = self.reduced_rows(rows, keep)
        assert red.shape == (4, 4, 40)
        assert np.array_equal(red, einsum_partial_trace(rows, keep))

    @pytest.mark.parametrize("keep", ["A", "B", "C"])
    def test_single_qubits_match_einsum(self, rng, keep):
        rows = self.hermitian_rows(rng, 40)
        red = self.reduced_rows(rows, keep)
        assert red.shape == (2, 2, 40)
        assert np.allclose(red, einsum_partial_trace(rows, keep), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("keep", ["A", "BC"])
    def test_public_function_moves_the_axes(self, rng, keep):
        # the matrices of contiguous entry rows are a strided view; the
        # result is the same as for the contiguous stack
        stack = np.stack([random_hermitian(rng, 8) for _ in range(5)])
        view = np.moveaxis(np.ascontiguousarray(entry_rows(stack)), (0, 1), (-2, -1))
        assert not view.flags.c_contiguous
        assert np.array_equal(linalg.partial_trace(view, keep), linalg.partial_trace(stack, keep))

    def test_density_rows_come_back_without_a_copy(self):
        amps = np.array([[1.0, 0.0, 0.0], [0.6, 0.8j, 0.0], [1 / np.sqrt(3)] * 3])
        rows = entry_rows(density(amps))
        assert rows.shape == (8, 8, 3) and rows.flags.c_contiguous


class TestPartialTranspose:
    """The tests' ``partial_transpose``, on which ``reference_negativity``
    and the ``TestXSpectra`` checks rest."""

    def test_diagonal_invariant(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(partial_transpose(d), d)

    def test_involution_bit_exact(self, rng):
        m = random_hermitian(rng, 4)
        for on in (0, 1):
            twice = partial_transpose(partial_transpose(m, on), on)
            assert np.array_equal(twice, m)

    def test_hermitian_and_trace_preserving(self, rng):
        m = random_hermitian(rng, 4)
        pt = partial_transpose(m)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-14

    def test_w_reduction_min_eigenvalue(self):
        rho_ab = linalg.partial_trace(density(W), "AB")
        w = linalg.hermitian_eigenvalues(partial_transpose(rho_ab))
        # closed form for the negative eigenvalue of the X-shaped block
        expected = (1 / 3 - np.sqrt(5) / 3) / 2
        assert abs(w[0] - expected) <= 1e-12

    def test_product_state_stays_psd(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        w = linalg.hermitian_eigenvalues(partial_transpose(rho))
        assert w[0] >= -1e-12

    @pytest.mark.parametrize("on", [0, 1])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "sliced"])
    def test_result_shares_no_memory(self, rng, layout, on):
        m = random_hermitian(rng, 8)
        m = {"contiguous": m[:4, :4].copy(), "transposed": m[:4, :4].T,
             "sliced": m[::2, 1::2]}[layout]
        pt = partial_transpose(m, on)
        assert not np.shares_memory(pt, m)
        assert np.array_equal(partial_transpose(pt, on), m)

    @pytest.mark.parametrize("on", [0, 1])
    def test_stack_matches_one_by_one(self, rng, on):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(6)]).reshape(3, 2, 4, 4)
        pt = partial_transpose(stack, on)
        assert pt.shape == stack.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(pt[idx], partial_transpose(stack[idx], on))


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(a)[0]


def hermitian_with_spectrum(rng, spectrum):
    u = random_unitary(rng, len(spectrum))
    m = (u * np.asarray(spectrum)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


class TestCheckPsd:
    """``reference_negativity``'s PSD verdict."""

    # smallest eigenvalue a relative 1e-3 inside or outside the floor: far
    # beyond the ~1e-15 rounding of building and solving a unit-norm matrix
    @pytest.mark.parametrize("factor,passes", [(1.0 - 1e-3, True), (1.0 + 1e-3, False)])
    def test_boundary(self, rng, factor, passes):
        for _ in range(20):
            lam_min = -PSD_TOL * factor
            m = hermitian_with_spectrum(rng, [lam_min, *rng.dirichlet(np.ones(3))])
            assert np.linalg.eigvalsh(m)[0] == pytest.approx(lam_min, rel=1e-5)
            if passes:
                reference_negativity(m)
            else:
                with pytest.raises(ValueError, match="PSD"):
                    reference_negativity(m)

    @pytest.mark.parametrize("factor,passes", [(1.0 - 1e-3, True), (1.0 + 1e-3, False)])
    def test_boundary_inside_a_stack(self, rng, factor, passes):
        spectra = rng.dirichlet(np.ones(4), size=(2, 3))
        spectra[1, 2, 0] = -PSD_TOL * factor
        stack = np.stack([hermitian_with_spectrum(rng, s) for s in spectra.reshape(-1, 4)])
        stack = stack.reshape(2, 3, 4, 4)
        if passes:
            reference_negativity(stack)
        else:
            with pytest.raises(ValueError, match="PSD"):
                reference_negativity(stack)

    def test_reports_the_smallest_eigenvalue(self):
        stack = np.stack([np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0]),
                          np.diag([1.2, -0.2, 0.0, 0.0])])
        with pytest.raises(ValueError, match=r"not PSD: min eigenvalue -5\.000e-01"):
            reference_negativity(stack)

    def test_accepts_singular_density_matrices(self):
        reference_negativity(linalg.partial_trace(density(W), "AB"))
        reference_negativity(np.zeros((4, 4)))


def w_reductions(states):
    """The (n, 3, 4, 4) stack of AB, AC and BC reductions of W-class states."""
    rho = density(np.array([s.amplitudes() for s in states]))
    return np.stack([linalg.partial_trace(rho, pair) for pair in ("AB", "AC", "BC")], axis=-3)


def x_with_spectrum(rng, spectrum):
    """A Hermitian X matrix whose {|00>,|11>} block has eigenvalues spectrum[:2]
    and whose {|01>,|10>} block has spectrum[2:], each in a random basis."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[np.ix_([0, 3], [0, 3])] = hermitian_with_spectrum(rng, spectrum[:2])
    m[np.ix_([1, 2], [1, 2])] = hermitian_with_spectrum(rng, spectrum[2:])
    return m


def x_from_blocks(a, b):
    """The X matrix with diagonal ``a`` and the entries ``b`` at [3, 0] and
    [2, 1], mirrored to [0, 3] and [1, 2]."""
    m = np.diag(a).astype(np.complex128)
    m[[3, 2], [0, 1]] = b
    m[[0, 1], [3, 2]] = np.conj(b)
    return m


def entry_rows(m):
    """The entry rows (d, d, ...) of one (d, d) matrix or a (..., d, d) stack.

    The row-layout helpers take and return entry rows, so the matrix axes go
    to the front, as a view.
    """
    return np.moveaxis(np.asarray(m), (-2, -1), (0, 1))


def x_spectra(m):
    """``linalg._x_spectra`` of one (4, 4) matrix or a (..., 4, 4) stack, with
    the spectra axis moved back to the end: the X-block spectra of the
    partial transpose, shape (..., 4)."""
    return np.moveaxis(linalg._x_spectra(entry_rows(m)), 0, -1)


def x_spectra_mpmath(m):
    """Ascending eigenvalues of each X matrix in the (n, 4, 4) stack ``m``: those
    of its {|00>,|11>} and {|01>,|10>} blocks, from 50-digit mpmath on the
    stored entries, rounded to the nearest double."""
    spectra = []
    with mpmath.workdps(50):
        for x in m:
            w = []
            for i, j in ((0, 3), (1, 2)):
                a, d = mpmath.mpf(x[i, i].real), mpmath.mpf(x[j, j].real)
                b = mpmath.mpc(x[j, i].real, x[j, i].imag)
                mid = (a + d) / 2
                radius = mpmath.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
                w += [float(mid - radius), float(mid + radius)]
            spectra.append(sorted(w))
    return np.array(spectra)


class TestXSpectra:
    @staticmethod
    def assert_matches(m, eigenvalues=np.linalg.eigvalsh):
        """``_x_spectra`` of ``m`` and of both partial transposes within 1e-15
        of the ``eigenvalues`` reference.  ``_x_spectra`` gives the spectra
        of a partial transpose, so those of ``m`` are read from it applied
        to a partial transpose of ``m``."""
        wt = x_spectra(m)
        for on in (0, 1):
            pt = partial_transpose(m, on)
            assert np.max(np.abs(np.sort(wt, axis=-1) - eigenvalues(pt))) <= 1e-15
            assert np.max(np.abs(np.sort(x_spectra(pt), axis=-1) - eigenvalues(m))) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.lists(w_class_states(), min_size=1, max_size=8))
    def test_matches_lapack_on_w_reductions(self, states):
        self.assert_matches(w_reductions(states))

    def test_matches_mpmath_on_random_x_matrices(self, rng):
        spectra = rng.uniform(-1.0, 1.0, size=(500, 4))
        b = 0.5 * rng.uniform(size=(500, 2)) * np.exp(2j * np.pi * rng.uniform(size=(500, 2)))
        # blocks in random bases; diagonal blocks (b = 0); and blocks with
        # a + d = 0 exactly, where the smaller eigenvalue is not det over the
        # larger, with and without b.  Every eigenvalue lies in (-1, 1).
        stack = ([x_with_spectrum(rng, s) for s in spectra]
                 + [x_from_blocks(s, 0.0) for s in spectra]
                 + [x_from_blocks([x, y, -y, -x], c) for (x, y), c in zip(0.5 * spectra[:, :2], b)]
                 + [x_from_blocks(np.zeros(4), c) for c in b])
        # LAPACK's own error reaches 2e-15 on some draws, so the reference is
        # exact: with it the bound holds for every seed of ``rng``
        self.assert_matches(np.stack(stack), x_spectra_mpmath)

    def test_zero_blocks_give_exact_zeros(self):
        # basis-state reductions have a zero block: 0/0 would be NaN
        wt = x_spectra(np.stack([np.zeros((4, 4)), np.diag([1.0, 0.0, 0.0, 0.0])]))
        assert np.array_equal(wt, [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    # every entry off the diagonal (i = j) and the anti-diagonal (i + j = 3)
    @pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(4)
                                     if i != j and i + j != 3])
    @pytest.mark.parametrize("factor,passes", [(1.0, True), (2.0, False)])
    def test_rejects_an_off_x_entry(self, i, j, factor, passes):
        m = np.stack([linalg.partial_trace(density(W), "AB")] * 3)
        # one entry without its mirror, so each position is seen on its own
        m[1, i, j] = factor * linalg.HERMITICITY_TOL
        if passes:
            x_spectra(m)
        else:
            with pytest.raises(ValueError, match="not an X state: off-X entry 2.000e-12"):
                x_spectra(m)

    def test_block_whose_larger_eigenvalue_rounds_to_zero(self, rng):
        # eigenvalues (-1, 0): (a + d)/2 + hypot(...) cancels to a residue of
        # either sign, and det over it would be any number, even a positive
        # one; the smaller eigenvalue is read off the transpose's transpose
        for _ in range(200):
            m = x_with_spectrum(rng, [-1.0, 0.0, 0.5, 0.5])
            w = x_spectra(partial_transpose(m))
            assert w[0] == pytest.approx(-1.0, abs=1e-15)


def test_generic_route_calls_no_lapack_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generic route called a LAPACK solver")

    amps = np.array([[1.0, 0.0, 0.0], [0.6, 0.8j, 0.0], [1 / np.sqrt(3)] * 3])
    expected = measures.generic_measures(amps)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for got, want in zip(measures.generic_measures(amps), expected):
        assert np.array_equal(got, want)



#: Commands that together take every route: a both-route sweep with slopes,
#: a generic extremum and a triangle record.
COMMANDS = (
    ["sweep", "--preset", "muon", "--path", "both", "--points", "1001"],
    ["extremum", "--initial", "e", "--unit", "km/MeV", "--le-min", "0", "--le-max", "40",
     "--measure", "fill", "--kind", "max", "--window", "8", "13", "--path", "generic"],
    ["triangle", "--initial", "e", "--le", "4.61", "--unit", "km/MeV", "--json"],
)


def run_commands(directory):
    """The files each of ``COMMANDS`` writes into ``directory``, by name."""
    for k, argv in enumerate(COMMANDS):
        argv = argv + ["--output", str(directory / f"{k}.out")]
        if argv[0] == "sweep":
            argv += ["--slopes", str(directory / f"{k}-slopes.out")]
        assert cli.main(argv) == 0
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_commands_reach_no_reference_layer(monkeypatch, tmp_path):
    """No command calls the general matrix code, the density matrix or the
    per-point probability and amplitude functions: the tests and the
    benchmark are their only callers."""
    def refuse(*args, **kwargs):
        raise AssertionError("a command reached the reference layer")

    (tmp_path / "free").mkdir()
    (tmp_path / "refused").mkdir()
    expected = run_commands(tmp_path / "free")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    targets = [linalg.hermitian_eigenvalues, linalg.check_hermitian, linalg.partial_trace,
               tristate.density, _backend.eigvalsh_small, oscillation.amplitudes,
               oscillation.probability_array]
    # every binding of each function, as the benchmark's tracer finds them
    modules = [m for k, m in sys.modules.items() if k == "trinu" or k.startswith("trinu.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in targets):
                monkeypatch.setattr(module, key, refuse)
    assert run_commands(tmp_path / "refused") == expected

def test_check_hermitian_rejects_nan():
    with pytest.raises(ValueError, match="asymmetry"):
        linalg.check_hermitian(np.full((2, 2), np.nan))


@pytest.mark.parametrize("factor,passes", [(1.0, True), (2.0, False)])
def test_check_hermitian_boundary(factor, passes):
    # one off-diagonal entry without its mirror: the defect is the entry itself
    stack = np.stack([np.eye(2, dtype=np.complex128)] * 3)
    stack[1, 0, 1] = factor * linalg.HERMITICITY_TOL
    if passes:
        linalg.check_hermitian(stack)
    else:
        with pytest.raises(ValueError, match="asymmetry 2.000e-12 exceeds 1.0e-12"):
            linalg.check_hermitian(stack)

import itertools
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eblp import (
    EigenSpectrum,
    RankError,
    ShapeError,
    SpectrumDomainError,
    estimate_spike,
    mp_bulk_edge,
    spectral_estimates,
)
from eblp import spectral
from eblp.spectral import gram_eigh, guard_epsilon
from conftest import components, mp_stieltjes_quadrature, mp_white_stieltjes, spectrum_of


def spec(values, n=None, p=None):
    values = np.asarray(values, dtype=float)
    n = n if n is not None else values.size
    p = p if p is not None else values.size
    return EigenSpectrum(values=np.sort(values)[::-1], n=n, p=p)


@dataclass
class Reference:
    m: float
    m_prime: float
    m_comp: float
    m_comp_prime: float
    d: float
    d_prime: float


def reference_m(s: EigenSpectrum, r: int, x: float) -> tuple[float, float]:
    """m(x) = (p - r)^-1 sum_{k>r} 1 / (lambda_k - x) and its derivative,
    the p - n implicit zeros included, with no domain checks."""
    resid = s.values[r:]
    n_zeros = max(s.p - s.n, 0)
    m = float(np.sum(1.0 / (resid - x)))
    if n_zeros:
        m += n_zeros * (1.0 / (0.0 - x))
    m_prime = float(np.sum(1.0 / (resid - x) ** 2))
    if n_zeros:
        m_prime += n_zeros / (x * x)
    return m / (s.p - r), m_prime / (s.p - r)


def reference(s: EigenSpectrum, r: int, x: float) -> Reference:
    """The plug-in functionals written out one formula at a time, in the
    order spectral_estimates evaluates them: m_comp = gamma m - (1 - gamma)
    / x is the transform of the companion law gamma F + (1 - gamma)
    delta_0, and D = x m m_comp."""
    m, m_prime = reference_m(s, r, x)
    gamma = s.p / s.n
    m_comp = gamma * m - (1.0 - gamma) / x
    m_comp_prime = gamma * m_prime + (1.0 - gamma) / (x * x)
    d = x * m * m_comp
    d_prime = m * m_comp + x * m_prime * m_comp + x * m * m_comp_prime
    return Reference(m, m_prime, m_comp, m_comp_prime, d, d_prime)


class TestEigenSpectrum:
    def test_rejects_increasing_values(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.array([1.0, 2.0]), n=2, p=2)

    def test_rejects_negative_values(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.array([1.0, -0.1]), n=2, p=2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        # Once accepted, inf gave NaN estimates flagged supercritical.
        with pytest.raises(ShapeError, match="finite"):
            EigenSpectrum(values=np.array([bad, 2.0, 1.0]), n=10, p=3)

    def test_length_must_be_min_np(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.ones(3), n=2, p=3)

    def test_from_matrix_matches_eigenvalues(self, rng):
        m = rng.standard_normal((8, 5))
        s = spectrum_of(m)
        direct = np.sort(np.linalg.eigvalsh(m.T @ m / 8))[::-1]
        assert np.allclose(s.values, direct)
        assert s.gamma == pytest.approx(5 / 8)


class TestGramEigh:
    TRIDIAGONAL = {name: getattr(spectral, name)
                   for name in ("_DSYTRD", "_DSTERF", "_DSTEBZ", "_DSTEIN", "_DORMTR")}

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    def test_matches_squared_singular_values(self, n, p, rank, seed, square):
        # Square inputs (gamma = 1) put the smallest values near 0, and a
        # rank below min(n, p) makes some of them zero.
        p = n if square else p
        rank = min(rank, n, p)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        s = np.linalg.svd(matrix, compute_uv=False)
        values, left, right = gram_eigh(matrix)
        top = max(s[0] ** 2, np.finfo(float).tiny)
        assert np.max(np.abs(values - s * s)) <= 1e-13 * top
        assert np.all(values >= 0) and np.all(np.diff(values) <= 0)
        assert left.shape == (n, min(n, p)) and right.shape == (p, min(n, p))
        self.assert_triplets(matrix, values, left, right, values, 1e-13 * top)

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
        st.integers(0, 2**32 - 1), st.booleans(),
        st.sampled_from(["at", "between", "below", "above"]),
        st.integers(0, 11), st.integers(0, 12),
    )
    @example(1, 1, 1, 0, True, "at", 0, 1)  # 1 x 1
    @example(1, 1, 1, 0, True, "between", 0, 0)
    @example(4, 3, 0, 0, False, "at", 0, 2)  # the zero matrix
    @example(4, 3, 0, 0, False, "below", 0, 3)
    def test_partial_selections_match_dense(self, n, p, rank, seed, square, where, i, top):
        # ``above`` at, between, below and above the dense eigenvalues and
        # every ``top`` from 0 to min(n, p), with and without the whole
        # spectrum, through the tridiagonal reduction and through the
        # dense fallback alike.
        p = n if square else p
        rank, m = min(rank, n, p), min(n, p)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        dense, _, _ = gram_eigh(matrix)
        tiny = np.finfo(float).tiny
        scale = max(dense[0], tiny)
        # Rounding relative to the largest value; bisection also resolves
        # no value finer than its pivot floor, the smallest normal.
        tol = 1e-13 * scale + 2 * tiny
        i, top = i % m, min(top, m)
        above = {
            "at": dense[i],
            "between": (dense[i] + dense[min(i + 1, m - 1)]) / 2,
            "below": -scale,
            "above": 2 * scale,
        }[where]
        for bindings in (self.TRIDIAGONAL, dict.fromkeys(self.TRIDIAGONAL)):
            with mock.patch.multiple(spectral, **bindings):
                for spectrum, selection in itertools.product(
                        (False, True), ({"above": above}, {"top": top})):
                    values, left, right = gram_eigh(matrix, spectrum=spectrum, **selection)
                    assert np.all(values >= 0) and np.all(np.diff(values) <= 0)
                    k = right.shape[1]
                    assert values.shape == ((m,) if spectrum else (k,))
                    if spectrum:
                        assert np.max(np.abs(values - dense)) <= tol
                    self.assert_triplets(matrix, values[:k], left, right, dense, tol)
                    if "top" in selection:
                        assert k == top
                    else:
                        # Only values within rounding of the threshold may differ.
                        assert np.all(values[:k] > above)
                        assert np.count_nonzero(dense > above + tol) <= k
                        assert k <= np.count_nonzero(dense > above - tol)

    @staticmethod
    def assert_triplets(matrix, values, left, right, dense, tol):
        """Kept triplets of ``matrix``: values within ``tol`` of the dense
        ones, orthonormal short-side vectors that are Gram eigenvectors,
        and ``B right = left s``.  When p > n, ``right`` is ``B' left / s``,
        so the Gram residual, about ``tol``, returns divided by s."""
        (n, p), k = matrix.shape, values.size
        assert left.shape == (n, k) and right.shape == (p, k)
        assert np.all(values >= 0)
        assert np.max(np.abs(values - dense[:k]), initial=0.0) <= tol
        short, gram = (right, matrix.T @ matrix) if n >= p else (left, matrix @ matrix.T)
        assert np.allclose(short.T @ short, np.eye(k), atol=1e-12)
        assert np.max(np.abs(gram @ short - short * values), initial=0.0) <= 1e3 * tol
        s = np.sqrt(values)
        residual = np.abs(matrix @ right - left * s)
        assert np.all(residual <= 1e3 * tol / np.maximum(s, np.finfo(float).tiny))

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    @example(1, 1, 1, 0, True)  # 1 x 1
    @example(4, 3, 0, 0, False)  # the zero matrix
    @example(3, 7, 0, 0, False)
    def test_spectrum_with_top_vectors_matches_dense(self, n, p, rank, seed, square):
        # Square, tall, wide and rank-deficient inputs, every top from 0 to
        # min(n, p), through the one tridiagonal reduction and through the
        # dense fallback alike: all values, the top triplets, and plug-in
        # estimates within 1e-12 of those on the dense spectrum wherever
        # it resolves them (assert_same_estimate).
        p = n if square else p
        rank, m = min(rank, n, p), min(n, p)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        dense, _, _ = gram_eigh(matrix)
        tiny = np.finfo(float).tiny
        tol = 1e-13 * max(dense[0], tiny) + 2 * tiny
        reference = EigenSpectrum(values=dense, n=n, p=p)
        for bindings in (self.TRIDIAGONAL, dict.fromkeys(self.TRIDIAGONAL)):
            with mock.patch.multiple(spectral, **bindings):
                for top in range(m + 1):
                    values, left, right = gram_eigh(matrix, top=top, spectrum=True)
                    assert values.shape == (m,) and right.shape == (p, top)
                    assert np.all(np.diff(values) <= 0)
                    assert np.max(np.abs(values - dense)) <= tol
                    self.assert_triplets(matrix, values[:top], left, right, dense, tol)
                    if 0 < top < m:
                        got = components(estimate_spike(EigenSpectrum(values=values, n=n, p=p), top))
                        want = components(estimate_spike(reference, top))
                        for k in range(top):
                            self.assert_same_estimate(
                                got[k], want[k], dense[k], dense[k] - dense[top], tol,
                            )

    @staticmethod
    def assert_same_estimate(got, want, value, gap, tol):
        """Plug-in estimates on two spectra within ``tol`` of each other
        agree to 1e-12 relative, less where the component sits within
        ``gap`` of the residual bulk (they move by about eps * top / gap).
        A value within rounding of zero carries nothing: it is
        subcritical on either spectrum.  ``clamped`` is rounding that
        pushes a cosine past 0 or 1, so it must agree only where no
        cosine lies within 1e-9 of either."""
        if value <= tol:
            assert not got.supercritical and not want.supercritical
            return
        assert got.supercritical == want.supercritical
        if all(1e-9 < c < 1 - 1e-9 for c in (want.c2_hat, want.ct2_hat)):
            assert got.clamped == want.clamped
        rel = 1e-12 + 0.1 * tol / max(gap, tol)
        for field in ("ell_hat", "c2_hat", "ct2_hat", "lambda_star", "sigma_obs"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel, abs=0)

    @pytest.mark.parametrize("shape", [(9, 6), (6, 9), (5, 5), (1, 1), (0, 3)])
    def test_selections_never_run_dense(self, rng, shape):
        # Every selection runs the tridiagonal reduction: dense eigh
        # serves only as the unselected reference and the fallback.
        if None in self.TRIDIAGONAL.values():
            pytest.skip("numpy's LAPACK lacks the tridiagonal routines")
        matrix = rng.standard_normal(shape)
        m = min(shape)
        dense, dense_left, dense_right = gram_eigh(matrix)
        selections = [{"top": top} for top in range(m + 1)]
        selections += [{"above": above} for above in (-1.0, 0.0, *dense, np.inf)]
        failing = mock.Mock(side_effect=AssertionError("dense eigh ran"))
        with mock.patch.object(np.linalg, "eigh", failing):
            for selection in selections:
                for spectrum in (False, True):
                    values, left, right = gram_eigh(matrix, spectrum=spectrum, **selection)
                    assert np.allclose(values, dense[: values.size], rtol=1e-12, atol=1e-12)
                    k = right.shape[1]
                    assert np.allclose(np.abs(left), np.abs(dense_left[:, :k]), atol=1e-10)
                    assert np.allclose(np.abs(right), np.abs(dense_right[:, :k]), atol=1e-10)

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
    def test_extreme_scales_match_dense(self, rng, scale):
        # Bisection squares the tridiagonal's off-diagonal, which underflows
        # below about 1e-146 unless the Gram matrix is scaled first.
        matrix = scale * (rng.standard_normal((9, 2)) @ rng.standard_normal((2, 6)))
        dense, _, _ = gram_eigh(matrix)
        tol = 1e-13 * dense[0]
        for kwargs in ({"top": 3}, {"above": dense[2] / 2}, {"top": 2, "spectrum": True}):
            values, left, right = gram_eigh(matrix, **kwargs)
            self.assert_triplets(matrix, values[: right.shape[1]], left, right, dense, tol)
            assert np.max(np.abs(values - dense[: values.size])) <= tol

    def test_binding_resolves_on_numpy_openblas(self):
        # numpy's own ILP64 OpenBLAS (PyPI wheels) exports the symbols, so
        # the tridiagonal path is the one that runs there, and the thread
        # count can be set.
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        if lapack["name"] == "scipy-openblas" and "USE64BITINT" in lapack["openblas configuration"]:
            assert None not in self.TRIDIAGONAL.values()
            assert None not in (spectral._SET_THREADS, spectral._GET_THREADS)

    @pytest.mark.parametrize("name", list(TRIDIAGONAL))
    def test_failed_tridiagonal_routine_falls_back_to_dense(self, rng, name):
        matrix = rng.standard_normal((9, 6))
        dense, dense_left, dense_right = gram_eigh(matrix)
        calls = []
        failing = lambda *args: calls.append(args) or 1  # info > 0
        # A whole spectrum with the top vectors calls every routine; a
        # threshold skips dsterf, and the whole spectrum alone (the prox at
        # threshold 0) dstebz, dstein and dormtr.
        selections = [({"top": 2, "spectrum": True}, dense, 2),
                      ({"above": dense[3]}, dense[:3], 3),
                      ({"top": 0, "spectrum": True}, dense, 0)]
        for kwargs, want, k in selections:
            called = len(calls)
            with mock.patch.object(spectral, name, failing):
                values, left, right = gram_eigh(matrix, **kwargs)
            if len(calls) > called:
                assert np.array_equal(values, want)
            if len(calls) > called and k:
                assert np.array_equal(right, dense_right[:, :k])
                assert np.allclose(left, dense_left[:, :k], rtol=0, atol=1e-14)
        assert len(calls) == {"_DSYTRD": 3}.get(name, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kwargs", [
        {}, {"above": 1.0}, {"top": 1}, {"top": 1, "spectrum": True}, {"above": 1.0, "spectrum": True},
        {"top": 0, "spectrum": True},
    ])
    def test_non_finite_gram_raises(self, bad, kwargs):
        # Unchecked, an inf reaches the tridiagonal reduction, and the
        # dense path returns NaN.
        matrix = np.ones((4, 3))
        matrix[2, 1] = bad
        for bindings in (self.TRIDIAGONAL, dict.fromkeys(self.TRIDIAGONAL)):
            with mock.patch.multiple(spectral, **bindings):
                with pytest.raises(np.linalg.LinAlgError):
                    gram_eigh(matrix, **kwargs)

    @pytest.mark.parametrize("spectrum", [False, True])
    def test_nan_threshold_raises(self, spectrum):
        # LAPACKE's dstebz rejects a NaN bound, and on the dense fallback
        # no value compares greater than NaN: either would keep nothing.
        for bindings in (self.TRIDIAGONAL, dict.fromkeys(self.TRIDIAGONAL)):
            with mock.patch.multiple(spectral, **bindings):
                with pytest.raises(ValueError, match="NaN"):
                    gram_eigh(np.eye(3), above=np.nan, spectrum=spectrum)

    def test_rejects_bad_selections(self):
        with pytest.raises(ValueError):
            gram_eigh(np.ones((3, 2)), above=1.0, top=1)
        for top in (-1, 3):
            with pytest.raises(ValueError):
                gram_eigh(np.ones((3, 2)), top=top)

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            gram_eigh(np.ones(3))


class TestSpectralReference:
    @given(
        st.integers(1, 12), st.integers(0, 12), st.booleans(), st.data(),
        st.floats(0.0, 1e6),
    )
    def test_matches_reference_bit_for_bit(self, short, extra, wide, data, offset):
        # n < p (implicit zeros), n > p, or square; any valid rank; any
        # point at or above the guard band over the residual bulk.
        n, p = (short, short + extra) if wide else (short + extra, short)
        values = data.draw(st.lists(st.floats(0.0, 1e6), min_size=short, max_size=short))
        s = spec(values, n=n, p=p)
        r = data.draw(st.integers(0, short - 1))
        top = s.values[r]
        x = (top + guard_epsilon(top)) + offset
        got = spectral_estimates(s, r, x)
        ref = reference(s, r, x)
        want = (ref.m, ref.m_comp, ref.d, ref.d_prime)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]

    @given(
        st.one_of(st.integers(1, 12), st.integers(120, 300)), st.integers(0, 12),
        st.booleans(), st.data(), st.lists(st.floats(0.0, 1e6), max_size=8),
    )
    def test_points_at_once_match_one_at_a_time(self, short, extra, wide, data, offsets):
        # An array of points, none included, gives at each point the
        # scalar call's values bit for bit, with and without implicit
        # zeros, and past the 8- and 128-term blocks of numpy's pairwise sum.
        n, p = (short, short + extra) if wide else (short + extra, short)
        values = data.draw(st.lists(st.floats(0.0, 1e6), min_size=short, max_size=short))
        s = spec(values, n=n, p=p)
        r = data.draw(st.integers(0, short - 1))
        top = s.values[r]
        x = (top + guard_epsilon(top)) + np.array(offsets)
        est = spectral_estimates(s, r, x)
        assert len(est) == 4 and all(values.shape == x.shape for values in est)
        for k, point in enumerate(x.tolist()):
            got = [values[k] for values in est]
            want = spectral_estimates(s, r, point)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


class TestEmpiricalStieltjes:
    def test_single_eigenvalue_below_support(self):
        assert reference_m(spec([1.0]), 0, 0.0)[0] == pytest.approx(1.0)

    def test_direct_sum(self):
        # brute-force oracle: (1/(2-6) + 1/(4-6)) / 2
        values = [2.0, 4.0]
        x = 6.0
        expected = sum(1.0 / (v - x) for v in values) / 2
        assert expected == pytest.approx(-0.375)
        assert reference(spec(values), 0, x).m == pytest.approx(expected)

    def test_top_eigenvalue_excluded(self):
        assert reference(spec([10.0, 4.0, 2.0]), 1, 6.0).m == pytest.approx(-0.375)

    def test_exclusion_invariance(self):
        base = spectral_estimates(spec([10.0, 4.0, 2.0]), 1, 6.0)
        for top in (11.0, 99.0, 1e6):
            assert spectral_estimates(spec([top, 4.0, 2.0]), 1, 6.0) == base

    def test_zero_padding_when_p_exceeds_n(self):
        # p = 4, n = 2: two stored eigenvalues plus two implicit zeros.
        s = EigenSpectrum(values=np.array([4.0, 2.0]), n=2, p=4)
        x = 6.0
        expected = (1.0 / (4 - x) + 1.0 / (2 - x) + 2 * (1.0 / (0 - x))) / 4
        assert reference(s, 0, x).m == pytest.approx(expected)

    def test_inside_bulk_rejected(self):
        with pytest.raises(SpectrumDomainError):
            spectral_estimates(spec([4.0, 2.0]), 0, 3.0)
        # Below the bulk too: spike estimates are only taken above it.
        with pytest.raises(SpectrumDomainError, match="below the residual bulk edge 4"):
            spectral_estimates(spec([4.0, 2.0]), 0, 1.0)

    def test_guard_band_rejected(self):
        s = spec([10.0, 4.0, 2.0])
        with pytest.raises(SpectrumDomainError):
            spectral_estimates(s, 1, 4.0 + 1e-12)

    def test_invalid_rank(self):
        with pytest.raises(RankError):
            spectral_estimates(spec([4.0, 2.0]), 2, 6.0)

    def test_monotone_increasing_above_bulk(self, rng):
        s = spectrum_of(rng.standard_normal((60, 40)))
        top = s.values[0]
        xs = np.linspace(top + 0.1, top + 30, 50)
        vals = [spectral_estimates(s, 0, x)[0] for x in xs]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 0
        assert spectral_estimates(s, 0, 1e9)[0] == pytest.approx(0.0, abs=1e-8)


class TestDerivative:
    def test_single_eigenvalue(self):
        assert reference_m(spec([1.0]), 0, 0.0)[1] == pytest.approx(1.0)

    def test_direct_sum(self):
        # (1/16 + 1/4) / 2
        assert reference(spec([4.0, 2.0]), 0, 6.0).m_prime == pytest.approx(0.15625)

    def test_top_excluded(self):
        assert reference(spec([10.0, 4.0, 2.0]), 1, 6.0).m_prime == pytest.approx(0.15625)

    def test_matches_finite_differences(self, rng):
        s = spectrum_of(rng.standard_normal((50, 40)))
        m_at = lambda t: spectral_estimates(s, 0, t)[0]
        for x in (s.values[0] + 0.5, s.values[0] + 2.0, s.values[0] + 10.0):
            h = 1e-4 * x
            fd = (m_at(x + h) - m_at(x - h)) / (2 * h)
            d = reference(s, 0, x).m_prime
            assert abs(d - fd) / abs(fd) < 1e-6

    def test_positive(self, rng):
        s = spectrum_of(rng.standard_normal((30, 45)))
        assert reference(s, 0, s.values[0] + 1.0).m_prime > 0


class TestCompanion:
    def test_gamma_one_is_identity(self):
        ref = reference(spec([4.0, 2.0]), 0, 6.0)
        assert ref.m_comp == ref.m == pytest.approx(-0.375)
        assert ref.m_comp_prime == ref.m_prime

    def test_direct_formula(self):
        # gamma = 1/2: m = -0.375 as above.
        s = EigenSpectrum(values=np.array([4.0, 2.0]), n=4, p=2)
        assert spectral_estimates(s, 0, 6.0)[1] == pytest.approx(
            0.5 * -0.375 - 0.5 / 6.0
        )

    def test_gamma_above_one(self):
        # gamma = 2, one stored zero and one implicit: m(1) = -1.
        spectrum = EigenSpectrum(values=np.array([0.0]), n=1, p=2)
        m, m_comp, _, _ = spectral_estimates(spectrum, 0, 1.0)
        assert m == pytest.approx(-1.0)
        assert m_comp == pytest.approx(2.0 * -1.0 + 1.0)

    def test_x_zero_rejected(self):
        # x = 0 lies below the bulk; only points above its guard band are
        # evaluated, and m_comp is not defined at 0.
        with pytest.raises(SpectrumDomainError, match="below the residual bulk edge"):
            spectral_estimates(spec([1.0]), 0, 0.0)

    def test_derivative_relation(self):
        # d/dx [gamma m - (1-gamma)/x] = gamma m' + (1-gamma)/x^2
        s = EigenSpectrum(values=np.array([4.0, 2.0]), n=4, p=2)
        assert reference(s, 0, 6.0).m_comp_prime == pytest.approx(
            0.5 * 0.15625 + 0.5 / 36.0
        )


class TestDTransform:
    def test_values(self):
        # D = x m m_comp at x = 6: gamma = 1, then gamma = 1/2.
        assert spectral_estimates(spec([4.0, 2.0]), 0, 6.0)[2] == pytest.approx(0.84375)
        half = EigenSpectrum(values=np.array([4.0, 2.0]), n=4, p=2)
        assert spectral_estimates(half, 0, 6.0)[2] == pytest.approx(0.609375)

    def test_derivative_terms(self):
        # gamma = 1: D' = m^2 + 2 x m m' = 0.140625 - 12 * 0.375 * 0.15625.
        assert spectral_estimates(spec([4.0, 2.0]), 0, 6.0)[3] == pytest.approx(
            -0.5625
        )

    def test_derivative_symmetric_in_pairs(self, rng):
        # Exchanging n and p (the transposed data) exchanges m and m_comp,
        # so D and D' are unchanged.
        for shape in ((30, 20), (20, 30)):
            s = spectrum_of(rng.standard_normal(shape))
            t = EigenSpectrum(values=s.values, n=s.p, p=s.n)
            x = s.values[0] + 1.0
            (m, m_comp, d, d_prime), (tm, tm_comp, td, td_prime) = (
                spectral_estimates(s, 0, x), spectral_estimates(t, 0, x))
            assert m == pytest.approx(tm_comp, rel=1e-12)
            assert m_comp == pytest.approx(tm, rel=1e-12)
            assert d == pytest.approx(td, rel=1e-12)
            assert d_prime == pytest.approx(td_prime, rel=1e-12)

    def test_derivative_matches_finite_differences(self, rng):
        s = spectrum_of(rng.standard_normal((80, 50)))
        x = s.values[0] + 1.0
        h = 1e-5 * x
        d_at = lambda t: spectral_estimates(s, 0, t)[2]
        fd = (d_at(x + h) - d_at(x - h)) / (2 * h)
        assert spectral_estimates(s, 0, x)[3] == pytest.approx(fd, rel=1e-5)

    def test_d_strictly_decreasing_above_bulk(self, rng):
        for shape in ((200, 160), (160, 200)):
            s = spectrum_of(rng.standard_normal(shape))
            xs = np.linspace(s.values[0] + 0.05, s.values[0] + 20, 60)
            d_vals = [spectral_estimates(s, 0, x)[2] for x in xs]
            assert np.all(np.diff(d_vals) < 0)
            assert all(v > 0 for v in d_vals)

    def test_bundle_consistency(self, rng):
        s = spectrum_of(rng.standard_normal((40, 30)))
        x = s.values[0] + 2.0
        m, m_comp, d, _ = spectral_estimates(s, 0, x)
        assert m < 0 and m_comp < 0
        assert d == pytest.approx(x * m * m_comp)


class TestWhiteOracle:
    @pytest.mark.parametrize(
        "gamma,x",
        [(1.0, 4.0), (1.0, 6.5), (0.8, 4.589), (0.8, 10.0), (0.5, 3.1), (2.0, 7.0)],
    )
    def test_matches_quadrature(self, gamma, x):
        assert mp_white_stieltjes(x, gamma) == pytest.approx(
            mp_stieltjes_quadrature(x, gamma), abs=1e-8
        )

    def test_edge_limit_gamma_one(self):
        # At the edge x = 4 the quadrature oracle gives exactly -1/2.
        assert mp_stieltjes_quadrature(4.0, 1.0) == pytest.approx(-0.5, abs=1e-10)
        assert mp_white_stieltjes(4.0, 1.0) == pytest.approx(-0.5)

    def test_negative_above_bulk(self):
        for gamma in (0.3, 0.8, 1.0, 1.7):
            for dx in (0.0, 0.5, 3.0, 50.0):
                assert mp_white_stieltjes(mp_bulk_edge(gamma) + dx, gamma) < 0

    def test_inside_bulk_rejected(self):
        with pytest.raises(SpectrumDomainError):
            mp_white_stieltjes(2.0, 1.0)

    def test_agrees_with_plugin_on_simulated_noise(self):
        # gamma = 0.8 pure-noise covariance spectrum at moderate size.
        rng = np.random.default_rng(7)
        p, n = 1000, 1250
        s = spectrum_of(rng.standard_normal((n, p)))
        x = mp_bulk_edge(0.8) + 1.0
        assert abs(spectral_estimates(s, 0, x)[0] - mp_white_stieltjes(x, 0.8)) < 0.02

    def test_agrees_with_plugin_p_larger_than_n(self):
        rng = np.random.default_rng(8)
        p, n = 900, 600
        s = spectrum_of(rng.standard_normal((n, p)))
        gamma = p / n
        x = mp_bulk_edge(gamma) + 1.0
        assert abs(spectral_estimates(s, 0, x)[0] - mp_white_stieltjes(x, gamma)) < 0.02

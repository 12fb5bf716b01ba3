import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eblp import (
    EigenSpectrum,
    RankError,
    ShapeError,
    SpectrumDomainError,
    companion_stieltjes,
    companion_stieltjes_derivative,
    d_transform,
    d_transform_derivative,
    empirical_stieltjes,
    empirical_stieltjes_derivative,
    mp_bulk_edge,
    mp_white_stieltjes,
    spectral_estimates,
)
from eblp.spectral import gram_eigh
from conftest import mp_stieltjes_quadrature


def spec(values, n=None, p=None):
    values = np.asarray(values, dtype=float)
    n = n if n is not None else values.size
    p = p if p is not None else values.size
    return EigenSpectrum(values=np.sort(values)[::-1], n=n, p=p)


class TestEigenSpectrum:
    def test_rejects_increasing_values(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.array([1.0, 2.0]), n=2, p=2)

    def test_rejects_negative_values(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.array([1.0, -0.1]), n=2, p=2)

    def test_length_must_be_min_np(self):
        with pytest.raises(ShapeError):
            EigenSpectrum(values=np.ones(3), n=2, p=3)

    def test_from_matrix_matches_eigenvalues(self, rng):
        m = rng.standard_normal((8, 5))
        s = EigenSpectrum.from_matrix(m)
        direct = np.sort(np.linalg.eigvalsh(m.T @ m / 8))[::-1]
        assert np.allclose(s.values, direct)
        assert s.gamma == pytest.approx(5 / 8)


class TestGramEigh:
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
        values, vectors, side = gram_eigh(matrix)
        top = max(s[0] ** 2, np.finfo(float).tiny)
        assert np.max(np.abs(values - s * s)) <= 1e-13 * top
        assert np.all(values >= 0) and np.all(np.diff(values) <= 0)
        assert side == ("right" if n >= p else "left")
        assert vectors.shape == (p if side == "right" else n, min(n, p))
        assert np.allclose(vectors.T @ vectors, np.eye(min(n, p)), atol=1e-12)
        only_values, none, same_side = gram_eigh(matrix, vectors=False)
        assert none is None and same_side == side
        assert np.max(np.abs(only_values - values)) <= 1e-13 * top

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            gram_eigh(np.ones(3))


class TestEmpiricalStieltjes:
    def test_single_eigenvalue_below_support(self):
        assert empirical_stieltjes(spec([1.0]), 0, 0.0) == pytest.approx(1.0)

    def test_direct_sum(self):
        # brute-force oracle: (1/(2-6) + 1/(4-6)) / 2
        values = [2.0, 4.0]
        x = 6.0
        expected = sum(1.0 / (v - x) for v in values) / 2
        assert expected == pytest.approx(-0.375)
        assert empirical_stieltjes(spec(values), 0, x) == pytest.approx(expected)

    def test_top_eigenvalue_excluded(self):
        assert empirical_stieltjes(spec([10.0, 4.0, 2.0]), 1, 6.0) == pytest.approx(-0.375)

    def test_exclusion_invariance(self):
        base = empirical_stieltjes(spec([10.0, 4.0, 2.0]), 1, 6.0)
        for top in (11.0, 99.0, 1e6):
            assert empirical_stieltjes(spec([top, 4.0, 2.0]), 1, 6.0) == base

    def test_zero_padding_when_p_exceeds_n(self):
        # p = 4, n = 2: two stored eigenvalues plus two implicit zeros.
        s = EigenSpectrum(values=np.array([4.0, 2.0]), n=2, p=4)
        x = 6.0
        expected = (1.0 / (4 - x) + 1.0 / (2 - x) + 2 * (1.0 / (0 - x))) / 4
        assert empirical_stieltjes(s, 0, x) == pytest.approx(expected)

    def test_inside_bulk_rejected(self):
        with pytest.raises(SpectrumDomainError):
            empirical_stieltjes(spec([4.0, 2.0]), 0, 3.0)

    def test_guard_band_rejected(self):
        s = spec([10.0, 4.0, 2.0])
        with pytest.raises(SpectrumDomainError):
            empirical_stieltjes(s, 1, 4.0 + 1e-12)

    def test_invalid_rank(self):
        with pytest.raises(RankError):
            empirical_stieltjes(spec([4.0, 2.0]), 2, 6.0)

    def test_monotone_increasing_above_bulk(self, rng):
        s = EigenSpectrum.from_matrix(rng.standard_normal((60, 40)))
        top = s.values[0]
        xs = np.linspace(top + 0.1, top + 30, 50)
        vals = [empirical_stieltjes(s, 0, x) for x in xs]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 0
        assert empirical_stieltjes(s, 0, 1e9) == pytest.approx(0.0, abs=1e-8)


class TestDerivative:
    def test_single_eigenvalue(self):
        assert empirical_stieltjes_derivative(spec([1.0]), 0, 0.0) == pytest.approx(1.0)

    def test_direct_sum(self):
        # (1/16 + 1/4) / 2
        assert empirical_stieltjes_derivative(spec([4.0, 2.0]), 0, 6.0) == pytest.approx(0.15625)

    def test_top_excluded(self):
        assert empirical_stieltjes_derivative(spec([10.0, 4.0, 2.0]), 1, 6.0) == pytest.approx(0.15625)

    def test_matches_finite_differences(self, rng):
        s = EigenSpectrum.from_matrix(rng.standard_normal((50, 40)))
        for x in (s.values[0] + 0.5, s.values[0] + 2.0, s.values[0] + 10.0):
            h = 1e-4 * x
            fd = (
                empirical_stieltjes(s, 0, x + h) - empirical_stieltjes(s, 0, x - h)
            ) / (2 * h)
            d = empirical_stieltjes_derivative(s, 0, x)
            assert abs(d - fd) / abs(fd) < 1e-6

    def test_positive(self, rng):
        s = EigenSpectrum.from_matrix(rng.standard_normal((30, 45)))
        assert empirical_stieltjes_derivative(s, 0, s.values[0] + 1.0) > 0


class TestCompanion:
    def test_gamma_one_is_identity(self):
        assert companion_stieltjes(-0.375, 6.0, 1.0) == pytest.approx(-0.375)

    def test_direct_formula(self):
        assert companion_stieltjes(-0.375, 6.0, 0.5) == pytest.approx(
            0.5 * -0.375 - 0.5 / 6.0
        )

    def test_gamma_above_one(self):
        assert companion_stieltjes(-1.0, 1.0, 2.0) == pytest.approx(-1.0)

    def test_x_zero_rejected(self):
        with pytest.raises(SpectrumDomainError):
            companion_stieltjes(-1.0, 0.0, 1.0)

    def test_derivative_relation(self):
        # d/dx [gamma m - (1-gamma)/x] = gamma m' + (1-gamma)/x^2
        assert companion_stieltjes_derivative(0.25, 2.0, 0.5) == pytest.approx(
            0.5 * 0.25 + 0.5 / 4.0
        )


class TestDTransform:
    def test_values(self):
        assert d_transform(4.0, -0.5, -0.5) == pytest.approx(1.0)
        assert d_transform(1.0, 0.0, -1.0) == 0.0
        assert d_transform(6.0, -0.375, -0.270833333) == pytest.approx(0.609375, abs=1e-5)

    def test_derivative_terms(self):
        assert d_transform_derivative(0.0, -1.0, -1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert d_transform_derivative(4.0, -0.5, -0.5, 0.25, 0.25) == pytest.approx(-0.75)

    def test_derivative_symmetric_in_pairs(self):
        a = d_transform_derivative(3.0, -0.4, -0.7, 0.2, 0.9)
        b = d_transform_derivative(3.0, -0.7, -0.4, 0.9, 0.2)
        assert a == pytest.approx(b)

    def test_derivative_matches_finite_differences(self, rng):
        s = EigenSpectrum.from_matrix(rng.standard_normal((80, 50)))
        x = s.values[0] + 1.0
        h = 1e-5 * x
        d_at = lambda t: spectral_estimates(s, 0, t).d_hat
        fd = (d_at(x + h) - d_at(x - h)) / (2 * h)
        assert spectral_estimates(s, 0, x).d_prime_hat == pytest.approx(fd, rel=1e-5)

    def test_d_strictly_decreasing_above_bulk(self, rng):
        for shape in ((200, 160), (160, 200)):
            s = EigenSpectrum.from_matrix(rng.standard_normal(shape))
            xs = np.linspace(s.values[0] + 0.05, s.values[0] + 20, 60)
            d_vals = [spectral_estimates(s, 0, x).d_hat for x in xs]
            assert np.all(np.diff(d_vals) < 0)
            assert all(v > 0 for v in d_vals)

    def test_bundle_consistency(self, rng):
        s = EigenSpectrum.from_matrix(rng.standard_normal((40, 30)))
        x = s.values[0] + 2.0
        est = spectral_estimates(s, 0, x)
        assert est.m_hat < 0 and est.m_comp_hat < 0
        assert est.d_hat == pytest.approx(x * est.m_hat * est.m_comp_hat)
        assert est.eval_point == x


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
        s = EigenSpectrum.from_matrix(rng.standard_normal((n, p)))
        x = mp_bulk_edge(0.8) + 1.0
        assert abs(empirical_stieltjes(s, 0, x) - mp_white_stieltjes(x, 0.8)) < 0.02

    def test_agrees_with_plugin_p_larger_than_n(self):
        rng = np.random.default_rng(8)
        p, n = 900, 600
        s = EigenSpectrum.from_matrix(rng.standard_normal((n, p)))
        gamma = p / n
        x = mp_bulk_edge(gamma) + 1.0
        assert abs(empirical_stieltjes(s, 0, x) - mp_white_stieltjes(x, gamma)) < 0.02

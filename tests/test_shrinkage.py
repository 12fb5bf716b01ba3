from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eblp import (
    EigenSpectrum,
    RankError,
    SpikeEstimate,
    amse,
    dataset_from_arrays,
    estimate_spike,
    fit_in_sample,
    mp_bulk_edge,
    spectral_estimates,
    white_spike_forward,
    white_spike_inverse,
)
from eblp import spectral
from eblp.shrinkage import shrink_triplets
from conftest import shrink_plain, spectrum_of, spiked_white_data


def svd_plugin(matrix, r):
    """Reference plug-in calibration on a full SVD.

    Same power-of-two normalization as the library (largest entry of
    ``matrix / sqrt(n)`` brought into [0.5, 1)), so the guard band acts in
    the same units; returns the top-r left and right vectors, the
    estimates in normalized units and the exponent.
    """
    n, p = matrix.shape
    scaled = matrix / np.sqrt(n)
    shift = int(np.frexp(np.max(np.abs(scaled)))[1])
    u, s, vt = np.linalg.svd(np.ldexp(scaled, -shift), full_matrices=False)
    spectrum = EigenSpectrum(values=s * s, n=n, p=p)
    return u[:, :r], vt[:r].T, [estimate_spike(spectrum, r, k) for k in range(r)], shift


def svd_white(matrix, r):
    """Reference white-mode calibration for unit noise on a full SVD of
    the matrix prescaled as in ``svd_plugin``; returns the top-r left and
    right vectors and the estimates in the units of ``matrix``."""
    n, p = matrix.shape
    scaled = matrix / np.sqrt(n)
    shift = int(np.frexp(np.max(np.abs(scaled)))[1])
    u, s, vt = np.linalg.svd(np.ldexp(scaled, -shift), full_matrices=False)
    estimates = []
    for sk in np.ldexp(s[:r], shift):
        ell = white_spike_inverse(sk * sk, p / n)
        if ell <= 0:
            estimates.append(SpikeEstimate.subcritical(sigma_obs=sk))
            continue
        _, c2, ct2 = white_spike_forward(ell, p / n)
        estimates.append(SpikeEstimate(ell, c2, ct2, np.sqrt(ell * c2 * ct2), sk, True))
    return u[:, :r], vt[:r].T, estimates


@st.composite
def plugin_inputs(draw, scales=(1e-100, 1e-3, 1.0, 1e3, 1e100), full_rank=False):
    """A matrix of any shape from 2 x 2 to 12 x 12 (square ones often), any
    rank down to zero, one of ``scales``, and a plug-in rank r < min(n, p)
    (r <= min(n, p) with ``full_rank``, as white mode allows)."""
    n = draw(st.integers(2, 12))
    p = draw(st.one_of(st.just(n), st.integers(2, 12)))
    rank = draw(st.integers(0, min(n, p)))
    scale = draw(st.sampled_from(scales))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = scale * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p)))
    return matrix, draw(st.integers(1, min(n, p) - (0 if full_rank else 1)))


@st.composite
def white_inputs(draw):
    """``plugin_inputs`` with r up to min(n, p), rescaled so that the
    unit-noise bulk edge lies between two squared singular values at least
    21% apart, with every supercritical one at least 5% of the top.  Each
    component then sits clearly above or below the edge, where the closed
    forms are well conditioned."""
    matrix, r = draw(plugin_inputs(full_rank=True))
    n, p = matrix.shape
    s2 = np.linalg.svd(matrix / np.sqrt(n), compute_uv=False) ** 2
    below = np.append(s2, 0.0)
    if s2[0] == 0:
        return matrix, r
    cuts = [0] + [
        c for c in range(1, r + 1)
        if s2[c - 1] >= 0.05 * s2[0] and s2[c - 1] >= 1.21 * below[c]
    ]
    c = draw(st.sampled_from(cuts))
    if c == 0:
        edge_at = 2.0 * s2[0]
    elif below[c] == 0:
        edge_at = s2[c - 1] / 2.0
    else:
        edge_at = s2[c - 1] / min(np.sqrt(s2[c - 1] / below[c]), 2.0)
    return matrix / np.sqrt(edge_at / mp_bulk_edge(p / n)), r


class TestWhiteForward:
    def test_threshold_case(self):
        for gamma in (0.5, 1.0, 2.0):
            lam, c2, ct2 = white_spike_forward(np.sqrt(gamma), gamma)
            assert lam == pytest.approx(mp_bulk_edge(gamma))
            assert c2 == 0.0 and ct2 == 0.0

    def test_gamma_one_ell_two(self):
        lam, c2, ct2 = white_spike_forward(2.0, 1.0)
        assert lam == pytest.approx(4.5)
        assert c2 == pytest.approx(0.5)
        assert ct2 == pytest.approx(0.5)

    def test_gamma_half_ell_one(self):
        lam, c2, ct2 = white_spike_forward(1.0, 0.5)
        assert lam == pytest.approx(3.0)
        assert c2 == pytest.approx(1.0 / 3.0)
        assert ct2 == pytest.approx(0.25)

    def test_cosines_in_unit_interval(self):
        for gamma in (0.2, 0.8, 1.0, 3.0):
            for ell in np.linspace(np.sqrt(gamma) + 1e-3, 50, 40):
                _, c2, ct2 = white_spike_forward(ell, gamma)
                assert 0 < c2 <= 1
                assert 0 < ct2 <= 1


class TestWhiteInverse:
    def test_known_value(self):
        assert white_spike_inverse(4.5, 1.0) == pytest.approx(2.0)

    def test_edge_gives_zero(self):
        for gamma in (0.5, 0.8, 1.0, 2.0):
            assert white_spike_inverse(mp_bulk_edge(gamma), gamma) == 0.0
            assert white_spike_inverse(0.5 * mp_bulk_edge(gamma), gamma) == 0.0

    def test_round_trip(self):
        for gamma in (0.3, 0.8, 1.0, 2.5):
            for ell in np.linspace(np.sqrt(gamma) * 1.01, 30, 30):
                lam, _, _ = white_spike_forward(ell, gamma)
                assert white_spike_inverse(lam, gamma) == pytest.approx(ell, rel=1e-10)

    def test_noise_units(self):
        # A spike and eigenvalue in the units of noise_var scale with it,
        # and the cosines do not move, even where lambda / noise_var or its
        # square would leave the double range.
        for gamma in (0.3, 1.0, 2.5):
            for ell in (np.sqrt(gamma) * 1.01, 2.0, 30.0, 1e200):
                unit = white_spike_forward(ell, gamma)
                for noise_var in (1e-300, 1e-160, 1e100):
                    lam, c2, ct2 = white_spike_forward(ell * noise_var, gamma, noise_var)
                    assert lam == pytest.approx(unit[0] * noise_var, rel=1e-12)
                    assert (c2, ct2) == pytest.approx(unit[1:], rel=1e-12)
                    back = white_spike_inverse(lam, gamma, noise_var)
                    assert back == pytest.approx(ell * noise_var, rel=1e-9)

    def test_whitened_cosine_identity(self):
        # 1/ct2 = 1 + 1/(ell c2), exact for the closed forms.
        for gamma in np.linspace(0.05, 3.0, 25):
            for ell in np.linspace(np.sqrt(gamma) * 1.001, 40, 25):
                _, c2, ct2 = white_spike_forward(ell, gamma)
                assert abs(1.0 / ct2 - (1.0 + 1.0 / (ell * c2))) < 1e-12


class TestEstimateSpike:
    def test_guard_boundary_subcritical(self):
        values = np.array([4.0, 4.0, 2.0, 1.0])
        spectrum = EigenSpectrum(values=values, n=4, p=4)
        est = estimate_spike(spectrum, 1, 0)
        assert not est.supercritical
        assert est.lambda_star == 0.0
        assert est.ell_hat == 0.0
        assert est.c2_hat == 0.0 and est.ct2_hat == 0.0

    @pytest.mark.parametrize("values, n, p, clamped", [
        # A zero residual makes c^2 = ct^2 = 1 exactly; rounding lands
        # just above 1, and the estimate is clipped.
        ([2.25, 0.0, 0.0], 9, 3, True),
        ([1.5, 0.0], 2, 8, True),
        ([10.0, 1.0, 1.0, 1.0], 4, 8, False),
    ])
    def test_clamped_when_a_cosine_leaves_the_unit_interval(self, values, n, p, clamped):
        spectrum = EigenSpectrum(values=np.array(values), n=n, p=p)
        raw = spectral_estimates(spectrum, 1, values[0])
        ell = 1.0 / raw.d_hat
        cosines = [raw.m_hat / (raw.d_prime_hat * ell), raw.m_comp_hat / (raw.d_prime_hat * ell)]
        assert clamped == any(not 0.0 <= c <= 1.0 for c in cosines)
        est = estimate_spike(spectrum, 1, 0)
        assert est.supercritical and est.clamped == clamped
        assert [est.c2_hat, est.ct2_hat] == [min(max(c, 0.0), 1.0) for c in cosines]

    def test_index_errors(self):
        spectrum = EigenSpectrum(values=np.array([4.0, 2.0, 1.0]), n=3, p=3)
        with pytest.raises(RankError):
            estimate_spike(spectrum, 1, 1)
        with pytest.raises(RankError):
            estimate_spike(spectrum, 3, 0)

    def test_matches_white_closed_forms_on_simulated_bulk(self):
        # Plug-in estimates on a white-noise residual bulk must agree with
        # the closed-form map applied to the same observed eigenvalue.
        rng = np.random.default_rng(11)
        p = n = 2000
        y, _, _ = spiked_white_data(rng, n, p, np.array([2.0]))
        spectrum = spectrum_of(y)
        est = estimate_spike(spectrum, 1, 0)
        assert est.supercritical
        lam_obs = spectrum.values[0]
        ell_ref = white_spike_inverse(lam_obs, 1.0)
        _, c2_ref, ct2_ref = white_spike_forward(ell_ref, 1.0)
        assert est.ell_hat == pytest.approx(ell_ref, rel=0.05)
        assert est.c2_hat == pytest.approx(c2_ref, rel=0.05)
        assert est.ct2_hat == pytest.approx(ct2_ref, rel=0.05)
        # and the population values are in range too
        assert est.ell_hat == pytest.approx(2.0, rel=0.15)

    def test_estimates_land_in_unit_interval(self, rng):
        for gamma, shape in [(0.8, (250, 200)), (1.25, (200, 250))]:
            y, _, _ = spiked_white_data(rng, shape[0], shape[1], np.array([6.0, 3.0]))
            spectrum = spectrum_of(y)
            for k in range(2):
                est = estimate_spike(spectrum, 2, k)
                assert est.supercritical
                assert 0.0 <= est.c2_hat <= 1.0
                assert 0.0 <= est.ct2_hat <= 1.0
                assert est.ell_hat > 0


class TestLambdaAndAmse:
    def test_optimal_lambda(self, rng):
        # lambda_star is the optimal shrunken singular value sqrt(ell c^2 ct^2).
        y, _, _ = spiked_white_data(rng, 375, 300, np.array([9.0, 4.0]))
        for mode in ("plugin", "white"):
            _, ests = shrink_plain(y, 2, mode=mode)
            for est in ests:
                assert est.supercritical
                assert est.lambda_star == pytest.approx(
                    np.sqrt(est.ell_hat * est.c2_hat * est.ct2_hat), rel=1e-14
                )

    def test_optimal_lambda_degenerate(self, rng):
        # Every component of the zero matrix, and of pure white noise in
        # white mode, is subcritical.
        cases = [(np.zeros((40, 30)), "plugin"), (np.zeros((40, 30)), "white"),
                 (rng.standard_normal((375, 300)), "white")]
        for y, mode in cases:
            _, ests = shrink_plain(y, 3, mode=mode)
            for est in ests:
                assert not est.supercritical
                assert est.lambda_star == 0.0
                assert est.ell_hat * est.c2_hat * est.ct2_hat == 0.0

    def test_amse_values(self):
        assert amse([SpikeEstimate(2.0, 0.5, 0.5, 0.7071, 2.1, True)]) == pytest.approx(1.5)
        assert amse([SpikeEstimate(3.0, 1.0, 1.0, np.sqrt(3), 2.0, True)]) == 0.0
        assert amse([SpikeEstimate.subcritical(1.0)]) == 0.0
        assert amse([]) == 0.0


class TestShrinkMatrix:
    def test_zero_matrix(self):
        x_hat, ests = shrink_plain(np.zeros((10, 6)), 2, mode="plugin")
        assert np.all(x_hat == 0)
        assert all(not e.supercritical for e in ests)
        x_hat, ests = shrink_plain(np.zeros((10, 6)), 2, mode="white")
        assert np.all(x_hat == 0)
        assert all(not e.supercritical for e in ests)

    def test_subcritical_spike_shrinks_to_zero(self):
        # Rank-1 signal weak enough that the top eigenvalue stays below the
        # bulk edge (premise asserted before the conclusion).
        rng = np.random.default_rng(0)
        n, p = 400, 320
        u = np.zeros(p)
        u[0] = 1.0
        weak = 0.3 * np.outer(rng.standard_normal(n), u)
        y = weak + rng.standard_normal((n, p))
        assert spectrum_of(y).values[0] < mp_bulk_edge(p / n)
        x_hat, ests = shrink_plain(y, 1, mode="white")
        assert np.all(x_hat == 0)
        assert not ests[0].supercritical

    def test_rank_errors(self, rng):
        y = rng.standard_normal((10, 6))
        with pytest.raises(RankError):
            shrink_plain(y, 7)
        with pytest.raises(RankError):
            shrink_plain(y, 6, mode="plugin")  # plugin needs a residual

    def test_rank_zero(self, rng):
        x_hat, ests = shrink_plain(rng.standard_normal((5, 4)), 0)
        assert np.all(x_hat == 0) and ests == []

    def test_shrinkage_is_downward(self, rng):
        y, _, _ = spiked_white_data(rng, 375, 300, np.array([10.0, 5.0, 2.0]))
        for mode in ("plugin", "white"):
            _, ests = shrink_plain(y, 3, mode=mode)
            for est in ests:
                assert est.lambda_star <= est.sigma_obs + 1e-12

    def test_orthogonal_invariance_white_mode(self, rng):
        n, p = 60, 45
        y, _, _ = spiked_white_data(rng, n, p, np.array([8.0]))
        q_left, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q_right, _ = np.linalg.qr(rng.standard_normal((p, p)))
        _, ests = shrink_plain(y, 1, mode="white")
        _, ests_rot = shrink_plain(q_left @ y @ q_right, 1, mode="white")
        assert ests_rot[0].lambda_star == pytest.approx(
            ests[0].lambda_star, rel=1e-10
        )

    def test_white_mode_identity_on_estimates(self, rng):
        y, _, _ = spiked_white_data(rng, 375, 300, np.array([9.0, 4.0]))
        _, ests = shrink_plain(y, 2, mode="white")
        for est in ests:
            assert est.supercritical
            assert abs(1.0 / est.ct2_hat - (1.0 + 1.0 / (est.ell_hat * est.c2_hat))) < 1e-12

    def test_white_mode_noise_var_rescaling(self, rng):
        # Noise variances sigma^2 whiten sigma y back to y, up to rounding:
        # the estimates, in whitened units, stay, and X-hat scales by sigma.
        y, _, _ = spiked_white_data(rng, 375, 300, np.array([9.0]))
        sigma = 1.7
        base_x, base = shrink_plain(y, 1, mode="white")
        model, scaled_x = fit_in_sample(
            dataset_from_arrays(sigma * y, np.ones(y.shape)), 1, mode="white",
            center=False, noise_var_diag=np.full(y.shape[1], sigma**2),
        )
        scaled = model.estimates
        assert scaled[0].ell_hat == pytest.approx(base[0].ell_hat, rel=1e-10)
        assert scaled[0].c2_hat == pytest.approx(base[0].c2_hat, rel=1e-10)
        assert scaled[0].lambda_star == pytest.approx(base[0].lambda_star, rel=1e-10)
        assert np.max(np.abs(scaled_x - sigma * base_x)) <= 1e-10 * np.max(np.abs(sigma * base_x))

    def test_modes_agree_on_white_data(self, rng):
        y, _, _ = spiked_white_data(rng, 500, 400, np.array([6.0]))
        _, plugin = shrink_plain(y, 1, mode="plugin")
        _, white = shrink_plain(y, 1, mode="white")
        assert plugin[0].lambda_star == pytest.approx(white[0].lambda_star, rel=0.05)
        assert plugin[0].ell_hat == pytest.approx(white[0].ell_hat, rel=0.05)

    def test_against_grid_oracle(self):
        # Brute-force oracle: best fixed singular value on the fitted
        # direction, found by scanning a grid of resolution 1e-3 * sigma_1.
        rng = np.random.default_rng(3)
        n, p = 375, 300
        for _ in range(3):
            y, u_true, z_true = spiked_white_data(rng, n, p, np.array([5.0]))
            x_true = np.sqrt(5.0) * np.outer(z_true[:, 0], u_true[:, 0])
            x_hat, _ = shrink_plain(y, 1, mode="plugin")

            u, s, vt = np.linalg.svd(y / np.sqrt(n), full_matrices=False)
            grid = np.arange(0.0, s[0] + 1e-9, 1e-3 * s[0])
            best = np.inf
            for lam in grid:
                cand = np.sqrt(n) * lam * np.outer(u[:, 0], vt[0])
                best = min(best, np.linalg.norm(cand - x_true))
            achieved = np.linalg.norm(x_hat - x_true)
            assert achieved <= 1.03 * best

    def test_amse_matches_realized_error(self):
        rng = np.random.default_rng(5)
        n, p = 375, 300
        ell = np.array([8.0, 4.0])
        realized, estimated = [], []
        for _ in range(20):
            y, u_true, z_true = spiked_white_data(rng, n, p, ell)
            x_true = (z_true * np.sqrt(ell)) @ u_true.T
            x_hat, ests = shrink_plain(y, 2, mode="plugin")
            realized.append(np.linalg.norm(x_hat - x_true) ** 2 / n)
            estimated.append(amse(ests))
        assert np.mean(estimated) == pytest.approx(np.mean(realized), rel=0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPluginGram:
    """Plug-in mode runs on a Gram eigendecomposition; it must give what a
    full SVD gives, in the layout callers rely on, at any scale."""

    @given(plugin_inputs())
    @example((np.zeros((5, 5)), 2))
    @example((np.zeros((3, 7)), 1))
    @example((np.outer(np.arange(1.0, 9.0), np.ones(6)), 3))
    def test_matches_full_svd(self, case):
        matrix, r = case
        n, p = matrix.shape
        left, right, ests = shrink_triplets(matrix, r)
        ref_left, ref_right, ref, shift = svd_plugin(matrix, r)
        assert left.shape == (n, r) and right.shape == (p, r)
        assert np.isfinite(left).all() and np.isfinite(right).all()
        assert right.flags.f_contiguous
        for est, want in zip(ests, ref):
            assert est.supercritical == want.supercritical
            assert est.ell_hat == pytest.approx(np.ldexp(want.ell_hat, 2 * shift), rel=1e-8)
            assert est.c2_hat == pytest.approx(want.c2_hat, rel=1e-8, abs=1e-12)
            assert est.ct2_hat == pytest.approx(want.ct2_hat, rel=1e-8, abs=1e-12)
            assert est.lambda_star == pytest.approx(np.ldexp(want.lambda_star, shift), rel=1e-8)
            assert est.sigma_obs == pytest.approx(
                np.ldexp(want.sigma_obs, shift), rel=1e-8, abs=1e-7 * np.ldexp(1.0, shift)
            )
        sup = [e.supercritical for e in ests]
        for vecs in (left[:, sup], right[:, sup]):
            assert np.allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-8)

        denoised, _ = shrink_plain(matrix, r)
        lam = np.ldexp([e.lambda_star for e in ref], shift)
        expected = np.sqrt(n) * (ref_left * lam) @ ref_right.T
        norm = np.linalg.norm(matrix, ord=2)
        assert np.isfinite(denoised).all()
        assert np.max(np.abs(denoised - expected)) <= 1e-10 * norm
        if not matrix.any():
            assert not denoised.any() and not any(sup)

    @pytest.mark.parametrize("shape", [(375, 300), (300, 375), (300, 300)])
    def test_desk_shapes(self, rng, shape):
        y, _, _ = spiked_white_data(rng, shape[0], shape[1], np.array([10.0, 5.0, 2.0, 0.5]))
        left, right, ests = shrink_triplets(y, 4)
        ref_left, ref_right, ref, shift = svd_plugin(y, 4)
        assert right.flags.f_contiguous
        for est, want in zip(ests, ref):
            assert est.supercritical == want.supercritical
            assert est.lambda_star == pytest.approx(np.ldexp(want.lambda_star, shift), rel=1e-12)
            assert est.ell_hat == pytest.approx(np.ldexp(want.ell_hat, 2 * shift), rel=1e-12)
        lam = np.array([e.lambda_star for e in ests])
        diff = (left * lam) @ right.T - (ref_left * lam) @ ref_right.T
        assert np.max(np.abs(diff)) <= 1e-12 * np.linalg.norm(y, ord=2)

    @given(plugin_inputs(scales=(1.0,)), st.integers(-450, 450))
    def test_power_of_two_scale_equivariance(self, case, k):
        matrix, r = case
        scale = np.ldexp(1.0, k)
        base, base_ests = shrink_plain(matrix, r)
        scaled, ests = shrink_plain(matrix * scale, r)
        assert np.array_equal(scaled, base * scale)
        for est, want in zip(ests, base_ests):
            assert est.supercritical == want.supercritical
            assert est.c2_hat == want.c2_hat and est.ct2_hat == want.ct2_hat
            assert est.ell_hat == np.ldexp(want.ell_hat, 2 * k)
            assert est.lambda_star == np.ldexp(want.lambda_star, k)
            assert est.sigma_obs == np.ldexp(want.sigma_obs, k)

    def test_entries_beyond_two_to_the_1023(self, rng):
        # sqrt(n) 2**shift would overflow here (sqrt(65) is just above 8),
        # so the prescaled entries land in [1, 2) instead of [0.5, 1).
        y, _, _ = spiked_white_data(rng, 65, 40, np.array([20.0]))
        y = np.ldexp(y / np.max(np.abs(y)), 1023) * 1.5
        shift = int(np.frexp(np.max(np.abs(y)) / np.sqrt(65))[1])
        assert float(np.sqrt(65)) * 2.0**shift == float("inf")
        left, right, ests = shrink_triplets(y, 2)
        base_left, base_right, base_ests = shrink_triplets(np.ldexp(y, -1000), 2)
        assert np.isfinite(left).all() and np.isfinite(right).all()
        assert np.allclose(np.abs(left[:, 0] @ base_left[:, 0]), 1.0, atol=1e-12)
        assert np.allclose(np.abs(right[:, 0] @ base_right[:, 0]), 1.0, atol=1e-12)
        for est, want in zip(ests, base_ests):
            assert est.supercritical == want.supercritical
            assert (est.c2_hat, est.ct2_hat) == pytest.approx((want.c2_hat, want.ct2_hat), rel=1e-12)
            assert est.sigma_obs == pytest.approx(np.ldexp(want.sigma_obs, 1000), rel=1e-12)

    def test_fits_without_the_dense_fallback(self, rng):
        # Every fit takes the tridiagonal path.  LAPACKE screens workspace
        # that LAPACK has not filled for NaN, which once sent fits to the
        # dense eigh at random; np.empty returns NaN here to make it certain.
        routines = ("_DSYTRD", "_DSTERF", "_DSTEBZ", "_DSTEIN", "_DORMTR")
        if any(getattr(spectral, name) is None for name in routines):
            pytest.skip("numpy's LAPACK lacks the tridiagonal routines")
        y, _, _ = spiked_white_data(rng, 600, 400, np.array([10.0, 5.0]))
        mask = (rng.random(y.shape) < 0.9).astype(float)
        dataset = dataset_from_arrays(y * mask, mask)
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("dense eigh ran")), \
                mock.patch.object(np, "empty", nan_filled):
            for _ in range(20):
                fit_in_sample(dataset, 10)

    @pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
    def test_extreme_magnitudes(self, rng, scale):
        y, _, _ = spiked_white_data(rng, 60, 40, np.array([20.0]))
        base, base_ests = shrink_plain(y, 1)
        out, ests = shrink_plain(y * scale, 1)
        assert ests[0].supercritical and base_ests[0].supercritical
        assert np.isfinite(out).all()
        assert np.max(np.abs(out / scale - base)) <= 1e-12 * np.max(np.abs(base))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWhiteGram:
    """White mode takes its top-r triplets from the same prescaled Gram
    eigendecomposition as plug-in mode; it must give what a full SVD
    gives, and scale exactly with the data and its noise variances."""

    @given(white_inputs())
    @example((np.zeros((5, 5)), 5))
    @example((np.zeros((3, 7)), 3))
    @example((np.outer(np.arange(1.0, 9.0), np.ones(6)), 6))
    def test_matches_full_svd(self, case):
        matrix, r = case
        n, p = matrix.shape
        left, right, ests = shrink_triplets(matrix, r, mode="white")
        ref_left, ref_right, ref = svd_white(matrix, r)
        assert left.shape == (n, r) and right.shape == (p, r)
        assert np.isfinite(left).all() and np.isfinite(right).all()
        assert right.flags.f_contiguous
        top = ref[0].sigma_obs
        for est, want in zip(ests, ref):
            assert est.supercritical == want.supercritical
            assert est.ell_hat == pytest.approx(want.ell_hat, rel=1e-12)
            assert est.c2_hat == pytest.approx(want.c2_hat, rel=1e-12)
            assert est.ct2_hat == pytest.approx(want.ct2_hat, rel=1e-12)
            assert est.lambda_star == pytest.approx(want.lambda_star, rel=1e-12)
            # Null directions come out near sqrt(eps) * top from the Gram matrix.
            assert est.sigma_obs == pytest.approx(want.sigma_obs, rel=1e-12, abs=1e-7 * top)
        sup = [e.supercritical for e in ests]
        for vecs in (left[:, sup], right[:, sup]):
            assert np.allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-8)

        denoised, _ = shrink_plain(matrix, r, mode="white")
        lam = np.array([e.lambda_star for e in ref])
        expected = np.sqrt(n) * (ref_left * lam) @ ref_right.T
        assert np.isfinite(denoised).all()
        assert np.max(np.abs(denoised - expected)) <= 1e-10 * np.linalg.norm(matrix, ord=2)
        if not matrix.any():
            assert not denoised.any() and not any(sup)

    @given(plugin_inputs(scales=(1.0,), full_rank=True), st.integers(-250, 250))
    @example((np.outer(np.arange(1.0, 9.0), np.ones(6)), 3), -3)
    def test_power_of_two_joint_scale_equivariance(self, case, k):
        # matrix * 2^k with noise variances 4^k: the whitening divides the
        # factor out exactly, so the estimates (in whitened units) do not
        # move and X-hat scales by 2^k.
        matrix, r = case
        ones = np.ones(matrix.shape)
        base_model, base = fit_in_sample(dataset_from_arrays(matrix, ones), r,
                                         mode="white", center=False)
        model, scaled = fit_in_sample(
            dataset_from_arrays(np.ldexp(matrix, k), ones), r, mode="white", center=False,
            noise_var_diag=np.full(matrix.shape[1], np.ldexp(1.0, 2 * k)),
        )
        assert np.array_equal(scaled, np.ldexp(base, k))
        assert model.estimates == base_model.estimates

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e160, 1e200])
    def test_extreme_magnitudes(self, rng, scale):
        # With unit noise, sigma^2 / noise_var squared overflows from
        # about 1e77 and the ratio itself from about 1e154; the prescaled
        # closed forms form neither, so the fit is the rank-1 truncation.
        y, _, _ = spiked_white_data(rng, 60, 40, np.array([20.0]))
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        truncation = scale * (s[0] * np.outer(u[:, 0], vt[0]))
        out, ests = shrink_plain(scale * y, 1, mode="white")
        assert ests[0].supercritical
        assert np.isfinite(out).all()
        assert np.max(np.abs(out - truncation)) <= 1e-12 * np.max(np.abs(truncation))

        _, x_hat = fit_in_sample(dataset_from_arrays(scale * y, np.ones(y.shape)), 1, mode="white")
        assert np.isfinite(x_hat).all()


def suggest_rank(spectrum: EigenSpectrum, eps_rank: float = 0.05) -> int:
    """Count eigenvalues above (1 + sqrt(gamma))^2 * (1 + eps_rank): a rough
    rank heuristic for whitened, unit-noise spectra."""
    threshold = mp_bulk_edge(spectrum.gamma) * (1.0 + eps_rank)
    return int(np.sum(spectrum.values > threshold))


class TestSuggestRank:
    def test_counts_spikes_on_simulated_data(self, rng):
        y, _, _ = spiked_white_data(rng, 500, 400, np.array([10.0, 6.0, 3.0]))
        spectrum = spectrum_of(y)
        assert suggest_rank(spectrum) == 3

    def test_pure_noise_gives_zero(self, rng):
        spectrum = spectrum_of(rng.standard_normal((500, 400)))
        assert suggest_rank(spectrum) == 0

import numpy as np
import pytest

from conftest import spectrum_of
from eblp import ShapeError, white_spike_forward
from eblp.simulate import (
    ExperimentConfig,
    NoiseSpec,
    SamplingSpec,
    generate_masks,
    generate_noise,
    generate_signals,
    rmse,
    simulate_dataset,
)


def config(**kw):
    base = dict(p=300, gamma=0.8, ell=(4.0,), seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_n_from_gamma(self):
        assert config(p=300, gamma=0.8).n == 375
        assert config(p=500, gamma=1.25).n == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            config(ell=(1.0, 2.0))           # not decreasing
        with pytest.raises(ValueError):
            config(ell=(2.0, -1.0))
        with pytest.raises(ValueError):
            config(sampling=SamplingSpec("uniform", 0.0))
        with pytest.raises(ValueError):
            config(sampling=SamplingSpec("linear", 1.0))
        with pytest.raises(ValueError):
            config(noise=NoiseSpec("colored", 1.0, 0.5))
        with pytest.raises(ValueError):
            config(noise=NoiseSpec("white", -1.0))

    def test_linear_probabilities_ramp(self):
        probs = SamplingSpec("linear", 0.1).column_probabilities(10)
        assert probs[0] == pytest.approx(0.1)
        assert probs[-1] == pytest.approx(0.9)
        assert np.allclose(np.diff(probs), probs[1] - probs[0])


class TestSignals:
    def test_second_moment(self):
        cfg = config(ell=(4.0,), p=200)
        x = generate_signals(cfg, 10_000, np.random.default_rng(0))
        assert np.mean(np.sum(x * x, axis=1)) == pytest.approx(4.0, rel=0.05)

    def test_sparse_support(self):
        # Every row lies on the one shared support of the PCs.
        cfg = config(ell=tuple(range(10, 0, -1)), pc_sparsity=10)
        x = generate_signals(cfg, 50, np.random.default_rng(1))
        assert np.count_nonzero(np.any(x != 0, axis=0)) <= 10

    def test_sparse_infeasible(self):
        # Fewer support coordinates than spikes fail at construction.
        with pytest.raises(ValueError, match="^pc_sparsity 2 is infeasible for rank 3$"):
            config(ell=(3.0, 2.0, 1.0), pc_sparsity=2)

    def test_orthonormal_directions(self):
        # With orthonormal directions the signal covariance U diag(ell) U'
        # has eigenvalues ell and rank r.
        for sparsity in (None, 25):
            cfg = config(ell=(5.0, 3.0, 1.0), p=40, pc_sparsity=sparsity)
            x = generate_signals(cfg, 40_000, np.random.default_rng(2))
            values = np.linalg.eigvalsh(x.T @ x / x.shape[0])[::-1]
            assert values[:3] == pytest.approx([5.0, 3.0, 1.0], rel=0.05)
            assert np.all(np.abs(values[3:]) <= 1e-10)

    def test_random_mean_row(self):
        # The column means of the signals are the mean row, a standard
        # normal draw, and zero without it.
        for random_mean in (True, False):
            cfg = config(random_mean=random_mean)
            x = generate_signals(cfg, 2000, np.random.default_rng(3))
            spread = np.std(x.mean(axis=0))
            assert spread == (pytest.approx(1.0, rel=0.2) if random_mean else pytest.approx(0.0, abs=0.1))


class TestMasks:
    def test_degenerate_linear_ramp(self):
        cfg = config(sampling=SamplingSpec("linear", 0.5))
        probs = cfg.sampling.column_probabilities(cfg.p)
        assert np.allclose(probs, 0.5)

    def test_uniform_full_observation(self):
        cfg = config(sampling=SamplingSpec("uniform", 1.0))
        masks = generate_masks(cfg, 50, np.random.default_rng(0))
        assert np.all(masks == 1.0)

    def test_binary_entries(self):
        cfg = config(sampling=SamplingSpec("uniform", 0.3))
        masks = generate_masks(cfg, 100, np.random.default_rng(0))
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_linear_frequencies_within_binomial_bands(self):
        # ~99.7% of columns should sit inside their 3-sigma band; demand 98%
        # coverage and a hard 5-sigma cap so the check is seed-stable.
        n = 10_000
        cfg = config(sampling=SamplingSpec("linear", 0.1))
        masks = generate_masks(cfg, n, np.random.default_rng(4))
        probs = cfg.sampling.column_probabilities(cfg.p)
        freq = masks.mean(axis=0)
        sigma = np.sqrt(probs * (1 - probs) / n)
        inside = np.abs(freq - probs) <= 3 * sigma
        assert inside.mean() >= 0.98
        assert np.all(np.abs(freq - probs) <= 5 * sigma)


class TestNoise:
    def test_kappa_one_is_white(self):
        cfg = config(noise=NoiseSpec("colored", 2.0, 1.0))
        assert np.allclose(cfg.noise.variance_profile(cfg.p), 1.0)

    def test_condition_number_exact(self):
        cfg = config(noise=NoiseSpec("colored", 1.0, 10.0))
        profile = cfg.noise.variance_profile(cfg.p)
        assert profile.max() / profile.min() == pytest.approx(10.0)

    def test_trace_normalization(self):
        for kappa in (1.0, 4.0, 10.0):
            profile = NoiseSpec("colored", 1.0, kappa).variance_profile(300)
            assert profile.sum() == pytest.approx(300.0)

    def test_sample_variance_trace(self):
        cfg = config(noise=NoiseSpec("colored", 1.5, 5.0))
        noise = generate_noise(cfg, 10_000, np.random.default_rng(5))
        trace = np.mean(np.sum(noise * noise, axis=1)) / cfg.p
        assert trace == pytest.approx(1.5**2, rel=0.02)


class TestRmse:
    def test_exact_recovery(self, rng):
        x = rng.standard_normal((4, 5))
        assert rmse(x, x) == 0.0

    def test_zero_prediction(self, rng):
        x = rng.standard_normal((4, 5))
        assert rmse(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_double_prediction(self, rng):
        x = rng.standard_normal((4, 5))
        assert rmse(2 * x, x) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rmse(np.ones((2, 2)), np.ones((2, 3)))


class TestDatasetAssembly:
    def test_reproducible_bit_identical(self):
        cfg = config(sampling=SamplingSpec("uniform", 0.6), random_mean=True)
        a = simulate_dataset(cfg, np.random.default_rng(cfg.seed))
        b = simulate_dataset(cfg, np.random.default_rng(cfg.seed))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.x, b.x)
        # No fallback seeding: the caller always supplies the generator.
        with pytest.raises(TypeError):
            simulate_dataset(cfg)

    def test_replicate_seeds_differ(self):
        # The one seeding scheme: the benchmark (and `eblp simulate`, which
        # reproduces replicate 0) keys each draw by
        # SeedSequence([seed, sigma_index, replicate]).
        cfg = config(replicates=4)
        data = [
            simulate_dataset(
                cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, rep]))
            )
            for rep in range(cfg.replicates)
        ]
        assert len(data) == 4
        for i in range(3):
            assert not np.array_equal(data[i].y, data[i + 1].y)

    def test_observed_coordinates_carry_signal_plus_noise(self):
        cfg = config(sampling=SamplingSpec("uniform", 0.5))
        data = simulate_dataset(cfg, np.random.default_rng(6))
        assert np.all(data.y[data.masks == 0] == 0)
        assert set(np.unique(data.masks)) <= {0.0, 1.0}

    def test_spike_observability(self):
        # Top sample eigenvalue at full observation matches the forward map;
        # averaged over replicates since one draw fluctuates at the few-
        # percent level.
        cfg = config(ell=(10.0, 5.0), sampling=SamplingSpec("uniform", 1.0))
        rng = np.random.default_rng(7)
        tops = [
            spectrum_of(simulate_dataset(cfg, rng).y).values[0]
            for _ in range(10)
        ]
        lam_theory, _, _ = white_spike_forward(10.0, cfg.gamma)
        assert np.mean(tops) == pytest.approx(lam_theory, rel=0.05)

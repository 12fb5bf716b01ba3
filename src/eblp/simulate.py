"""Synthetic data generators for the benchmark protocols.

Signals are drawn from a low-rank factor model, transforms are random
coordinate-selection masks (uniform or with linearly ramped column
probabilities), and the additive noise is white or colored with a
linearly ramped variance profile of fixed trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = [
    "SamplingSpec",
    "NoiseSpec",
    "ExperimentConfig",
    "SimulatedData",
    "generate_signals",
    "generate_masks",
    "generate_noise",
    "simulate_dataset",
    "rmse",
]


@dataclass(frozen=True)
class SamplingSpec:
    """Coordinate-selection law: every entry of column j is observed
    independently with probability delta (uniform) or with probabilities
    ramping linearly from delta to 1 - delta across columns (linear)."""

    kind: str = "uniform"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "linear"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.kind == "linear" and self.delta >= 1.0:
            raise ValueError("linear ramp needs delta < 1")

    def column_probabilities(self, p: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(p, self.delta)
        t = np.arange(p) / (p - 1) if p > 1 else np.zeros(1)
        return self.delta + t * (1.0 - 2.0 * self.delta)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise; colored mode ramps the coordinate variances
    linearly with condition number kappa while keeping total variance
    sigma^2 * p."""

    kind: str = "white"
    sigma: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in ("white", "colored"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")

    def variance_profile(self, p: int) -> np.ndarray:
        """Per-coordinate variances at sigma = 1 (trace = p)."""
        if self.kind == "white":
            return np.ones(p)
        t = np.arange(p) / (p - 1) if p > 1 else np.zeros(1)
        scale = 2.0 / (1.0 + self.kappa)
        return scale * (1.0 + (self.kappa - 1.0) * t)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated experiment."""

    p: int
    gamma: float
    ell: tuple[float, ...]
    pc_sparsity: int | None = None           # None = dense PCs
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    replicates: int = 1
    seed: int = 0
    random_mean: bool = False

    def __post_init__(self):
        if self.p < 1 or self.gamma <= 0:
            raise ValueError("need p >= 1 and gamma > 0")
        if not (np.isfinite(self.p / self.gamma) and self.n * self.p <= np.iinfo(np.intp).max):
            raise ValueError(f"gamma = {self.gamma} makes n = p / gamma too large for an n x p matrix")
        ell = tuple(float(v) for v in self.ell)
        object.__setattr__(self, "ell", ell)
        if not ell or any(v <= 0 for v in ell):
            raise ValueError("ell: spike strengths must be positive")
        if any(later >= earlier for earlier, later in zip(ell, ell[1:])):
            raise ValueError("ell: spike strengths must be strictly decreasing")
        if self.pc_sparsity is not None and self.pc_sparsity > self.p:
            raise ValueError("pc_sparsity cannot exceed p")
        if self.pc_sparsity is not None and self.pc_sparsity < self.rank:
            raise ValueError(f"pc_sparsity {self.pc_sparsity} is infeasible for rank {self.rank}")
        if self.replicates < 0:
            raise ValueError("replicates must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n(self) -> int:
        return max(int(round(self.p / self.gamma)), 1)

    @property
    def rank(self) -> int:
        return len(self.ell)


def generate_signals(config: ExperimentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n signal rows sum_k sqrt(ell_k) z_ik u_k (plus the optional
    random mean row), with orthonormal directions u_k.

    Dense PCs span a uniformly random r-dimensional subspace; m-sparse PCs
    share one random size-m coordinate support (m >= r required) and are
    orthonormalized within it, so every u_k has at most m nonzeros.
    """
    p, r = config.p, config.rank
    if config.pc_sparsity is not None:
        m = config.pc_sparsity
        support = rng.choice(p, size=m, replace=False)
        q, _ = np.linalg.qr(rng.standard_normal((m, r)))
        u = np.zeros((p, r))
        u[support, :] = q
    else:
        u, _ = np.linalg.qr(rng.standard_normal((p, r)))
    mean = rng.standard_normal(p) if config.random_mean else None
    z = rng.standard_normal((n, r))
    x = (z * np.sqrt(np.asarray(config.ell))) @ u.T
    if mean is not None:
        x = x + mean[None, :]
    return x


def generate_masks(config: ExperimentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent 0/1 coordinate-selection masks, one row per sample."""
    probs = config.sampling.column_probabilities(config.p)
    return (rng.random((n, config.p)) < probs[None, :]).astype(float)


def generate_noise(config: ExperimentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample-space Gaussian noise with the configured variance profile."""
    profile = config.noise.variance_profile(config.p)
    return rng.standard_normal((n, config.p)) * (config.noise.sigma * np.sqrt(profile))


@dataclass(frozen=True)
class SimulatedData:
    """One replicate: ground truth, masks, observations."""

    x: np.ndarray                 # (n, p) true signals
    masks: np.ndarray             # (n, p) 0/1
    y: np.ndarray                 # (n, p) masked noisy observations


def simulate_dataset(config: ExperimentConfig, rng: np.random.Generator) -> SimulatedData:
    """Generate one replicate: y = mask * (x + noise) on the p-grid."""
    n = config.n
    x = generate_signals(config, n, rng)
    masks = generate_masks(config, n, rng)
    noise = generate_noise(config, n, rng)
    return SimulatedData(x=x, masks=masks, y=masks * (x + noise))


def rmse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Relative Frobenius error ||x_hat - x||_F / ||x||_F."""
    x_hat = np.asarray(x_hat, dtype=float)
    x = np.asarray(x, dtype=float)
    if x_hat.shape != x.shape:
        raise ShapeError(f"shape mismatch {x_hat.shape} vs {x.shape}")
    denom = np.linalg.norm(x)
    if denom == 0:
        raise ValueError("reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(x_hat - x) / denom)

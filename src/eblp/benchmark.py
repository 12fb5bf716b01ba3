"""Benchmark campaigns over (method x noise level x replicate) grids.

Experiments are described in an INI-style config file, one section per
experiment; ``_KEYS`` declares its keys.

Grid points run concurrently on threads, up to a jobs bound, all at one
BLAS thread; output rows are ordered deterministically, and every row
derives its data from a seed sequence keyed by (experiment seed, sigma
index, replicate), so methods see identical draws.
"""

from __future__ import annotations

import configparser
import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .baselines import NnrlsConfig, nnrls, nnrls_weight_colored, nnrls_weight_white
from .errors import ParseError
from .pipeline import TransformedObservation, fit_in_sample
from .simulate import (
    ExperimentConfig,
    NoiseSpec,
    SamplingSpec,
    SimulatedData,
    generate_masks,
    generate_noise,
    rmse,
    simulate_dataset,
)
from .spectral import blas_threads, usable_cpus

__all__ = ["BenchmarkExperiment", "parse_benchmark_config", "run_benchmark", "simulate_replicate"]

KNOWN_METHODS = ("eblp", "unwhitened", "nnrls")

# Entropy tag mixed into the seed sequence used for weight calibration so
# it never collides with a (sigma index, replicate) pair.
_WEIGHT_SEED_TAG = 0x57454947


@dataclass(frozen=True)
class BenchmarkExperiment:
    name: str
    config: ExperimentConfig          # each grid point replaces its noise sigma
    sigma_grid: tuple[float, ...]
    methods: tuple[str, ...]
    rank: int
    nnrls_max_iters: int = NnrlsConfig.max_iters
    nnrls_tol: float = NnrlsConfig.tol
    weight_replicates: int = 20

    def __post_init__(self):
        unknown = next((m for m in self.methods if m not in KNOWN_METHODS), None)
        if unknown is not None:
            raise ValueError(f"unknown method {unknown!r} (expected one of {KNOWN_METHODS})")
        if not self.methods:
            raise ValueError("empty methods")
        # The shrinkage fits need a residual eigenvalue; NNRLS takes no rank.
        top = min(self.config.n, self.config.p) - 1
        if {"eblp", "unwhitened"} & set(self.methods) and not 0 <= self.rank <= top:
            raise ValueError(f"rank {self.rank} must lie in [0, {top}] for n = "
                             f"{self.config.n} samples in dimension p = {self.config.p}")
        if not self.sigma_grid:
            raise ValueError("empty sigma_grid")
        if min(self.sigma_grid) < 0:
            raise ValueError("sigma_grid values must be nonnegative")
        if self.nnrls_max_iters < 1:
            raise ValueError("nnrls_max_iters must be at least 1")
        if not (np.isfinite(self.nnrls_tol) and self.nnrls_tol > 0):
            raise ValueError("nnrls_tol must be finite and positive")
        if self.weight_replicates < 1:
            raise ValueError("weight_replicates must be at least 1")


def _whole(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{key}: bad whole number {text.strip()!r}") from None


def _finite(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{key}: bad number {text.strip()!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{key}: {text.strip()!r} is not a finite number")
    return value


def _floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_finite(key, tok) for tok in value.split(",") if tok.strip())


def _names(known: tuple[str, ...], key: str, text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = next((name for name in names if name not in known), None)
    if unknown is not None:
        raise ParseError(f"{key}: unknown name {unknown!r} (expected one of {known})")
    return names


def _flag(key: str, text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ParseError(f"{key}: {text!r} is not a flag (expected one of {tuple(states)})")
    return states[text.lower()]


def _spec(kinds: dict, key: str, text: str) -> tuple[str, float | None]:
    """'kind' or 'kind:number', where ``kinds`` maps each kind to the reader
    of its number, or to None for a kind that takes none."""
    kind, sep, arg = text.partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise ParseError(f"{key}: unknown kind {kind!r} (expected one of {sorted(kinds)})")
    read = kinds[kind]
    if read is None:
        if sep:
            raise ParseError(f"{key}: {kind!r} takes no value")
        return kind, None
    if not sep:
        raise ParseError(f"{key}: {kind!r} needs a value, as in {kind}:<number>")
    return kind, read(key, arg)


# Every config key, in the order of the docs, with the reader of its text,
# which raises a ParseError naming the key, and the text it takes when left
# out; a required key has none.
_KEYS = {
    "p": (_whole, None),
    "gamma": (_finite, None),
    "ell": (_floats, None),
    "rank": (_whole, None),
    "sparsity": (functools.partial(_spec, {"dense": None, "sparse": _whole}), "dense"),
    "sampling": (functools.partial(_spec, {"uniform": _finite, "linear": _finite}), "uniform:1"),
    "noise": (functools.partial(_spec, {"white": None, "colored": _finite}), "white"),
    "sigma_grid": (_floats, None),
    "replicates": (_whole, None),
    "seed": (_whole, None),
    "methods": (functools.partial(_names, KNOWN_METHODS), None),
    "random_mean": (_flag, "false"),
    "nnrls_max_iters": (_whole, repr(BenchmarkExperiment.nnrls_max_iters)),
    "nnrls_tol": (_finite, repr(BenchmarkExperiment.nnrls_tol)),
    "weight_replicates": (_whole, repr(BenchmarkExperiment.weight_replicates)),
}


def parse_benchmark_config(path, seed_override: int | None = None) -> list[BenchmarkExperiment]:
    # Each section holds the default text of every key it leaves out, and
    # values are read as written: a "%" is no interpolation.
    defaults = {key: text for key, (_, text) in _KEYS.items() if text is not None}
    parser = configparser.ConfigParser(defaults, interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ParseError(f"cannot parse config {path}: {exc}") from exc
    if not parser.sections():
        raise ParseError(f"{path}: no experiment sections")

    experiments = []
    for section in parser.sections():
        items = dict(parser.items(section))
        unknown = sorted(set(items) - set(_KEYS))
        if unknown:
            raise ParseError(f"{path}: [{section}] has unknown keys: {', '.join(unknown)}")
        missing = sorted(set(_KEYS) - set(items))
        if missing:
            raise ParseError(f"{path}: [{section}] is missing keys: {', '.join(missing)}")

        try:
            values = {key: read(key, items[key]) for key, (read, _) in _KEYS.items()}
            noise_kind, kappa = values["noise"]
            config = ExperimentConfig(
                p=values["p"], gamma=values["gamma"], ell=values["ell"],
                pc_sparsity=values["sparsity"][1],  # None when dense
                sampling=SamplingSpec(*values["sampling"]),
                noise=NoiseSpec(noise_kind, 1.0, 1.0 if kappa is None else kappa),
                replicates=values["replicates"], random_mean=values["random_mean"],
                seed=values["seed"] if seed_override is None else seed_override,
            )
            experiment = BenchmarkExperiment(
                name=section, config=config, sigma_grid=values["sigma_grid"],
                methods=values["methods"], rank=values["rank"],
                nnrls_max_iters=values["nnrls_max_iters"], nnrls_tol=values["nnrls_tol"],
                weight_replicates=values["weight_replicates"],
            )
        except ValueError as exc:
            raise ParseError(f"{path}: [{section}]: {exc}") from exc
        experiments.append(experiment)
    return experiments


def _column_weights(cfg: ExperimentConfig) -> np.ndarray | None:
    """NNRLS column weights C = sqrt of the linear ramp's sampling rates;
    None (no weighting) for uniform sampling."""
    if cfg.sampling.kind != "linear":
        return None
    return np.sqrt(cfg.sampling.column_probabilities(cfg.p))


def _nnrls_base_weight(exp: BenchmarkExperiment) -> float | None:
    """NNRLS regularization weight at sigma = 1, calibrated by Monte Carlo
    on masked pure noise with C^-1 applied when sampling is uneven.

    None where every replicate takes the closed form instead (uniform
    sampling with white noise) or the experiment runs no NNRLS.
    """
    cfg = exp.config
    column_weights = _column_weights(cfg)
    if "nnrls" not in exp.methods or (cfg.noise.kind == "white" and column_weights is None):
        return None
    base_cfg = replace(cfg, noise=replace(cfg.noise, sigma=1.0))
    n = base_cfg.n
    rng = np.random.default_rng(
        np.random.SeedSequence([base_cfg.seed, _WEIGHT_SEED_TAG])
    )
    return nnrls_weight_colored(
        lambda g: generate_noise(base_cfg, n, g),
        lambda g: generate_masks(base_cfg, n, g),
        replicates=exp.weight_replicates,
        rng=rng,
        column_weights=column_weights,
    )


def simulate_replicate(
    exp: BenchmarkExperiment, sigma_index: int, replicate: int
) -> tuple[ExperimentConfig, SimulatedData]:
    """The config at the ``sigma_index``-th grid noise level and its data,
    drawn from the seed sequence (experiment seed, sigma index, replicate)."""
    noise = replace(exp.config.noise, sigma=exp.sigma_grid[sigma_index])
    cfg = replace(exp.config, noise=noise)
    seed = np.random.SeedSequence([exp.config.seed, sigma_index, replicate])
    return cfg, simulate_dataset(cfg, np.random.default_rng(seed))


def _run_task(point: tuple[BenchmarkExperiment, int, int, float | None]) -> list[dict]:
    exp, sigma_index, replicate, w_base = point
    cfg, data = simulate_replicate(exp, sigma_index, replicate)
    sigma = cfg.noise.sigma
    dataset = TransformedObservation(y=data.y, d=data.masks)

    rows = []
    for method in exp.methods:
        t0 = time.perf_counter()
        amse_est = float("nan")
        if method in ("eblp", "unwhitened"):
            whiten = method == "eblp"
            model, x_hat = fit_in_sample(
                dataset, exp.rank, whiten=whiten, mode="plugin",
                noise_var_diag=cfg.noise.variance_profile(cfg.p) if whiten else None,
            )
            amse_est = model.estimates.amse
        else:
            if w_base is None:
                w = nnrls_weight_white(sigma, cfg.p, cfg.n, int(data.masks.sum()))
            else:
                w = sigma * w_base
            solver = NnrlsConfig(w=w, max_iters=exp.nnrls_max_iters, tol=exp.nnrls_tol,
                                 column_weights=_column_weights(cfg))
            x_hat = nnrls(data.y, data.masks, solver).x_hat
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "experiment": exp.name,
                "method": method,
                "sigma": sigma,
                "delta": cfg.sampling.delta,
                "kappa": cfg.noise.kappa,
                "sparsity": "dense" if cfg.pc_sparsity is None else str(cfg.pc_sparsity),
                "replicate": replicate,
                "rmse": rmse(x_hat, data.x),
                "seconds": seconds,
                "amse_est": amse_est,
            }
        )
    return rows


def run_benchmark(
    experiments: list[BenchmarkExperiment],
    jobs: int | None = None,
    timings: bool = True,
) -> list[dict]:
    """Run every (experiment, sigma, replicate) point and return the rows
    in deterministic order; without ``timings`` every ``seconds`` is 0.

    The NNRLS weight calibrations, then the grid points, run on ``jobs``
    threads (by default one per CPU this process may run on), never more
    than there are grid points.  The whole run is at one OpenBLAS thread,
    set by ``spectral.blas_threads`` and given back to the caller on
    return, so the table is the same, byte for byte, for every ``jobs``
    and core count.  ``jobs`` below 1 is a ValueError.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    points = sum(len(exp.sigma_grid) * exp.config.replicates for exp in experiments)
    workers = max(1, min(usable_cpus() if jobs is None else jobs, points))
    previous = blas_threads(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            grid = [
                (exp, sigma_index, replicate, w_base)
                for exp, w_base in zip(experiments, pool.map(_nnrls_base_weight, experiments))
                for sigma_index in range(len(exp.sigma_grid))
                for replicate in range(exp.config.replicates)
            ]
            rows = [row for rows in pool.map(_run_task, grid) for row in rows]
    finally:
        blas_threads(previous)
    if not timings:
        for row in rows:
            row["seconds"] = 0.0
    return rows

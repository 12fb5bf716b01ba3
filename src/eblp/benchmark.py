"""Benchmark campaigns over (method x noise level x replicate) grids.

Experiments are described in an INI-style config file, one section per
experiment::

    [uneven]
    p = 300
    gamma = 0.8
    ell = 10,9,8,7,6,5,4,3,2,1
    rank = 10
    sparsity = dense            ; or sparse:<m>
    sampling = linear:0.1       ; or uniform:<delta>
    noise = white               ; or colored:<kappa>
    sigma_grid = 1,2,4
    replicates = 40
    seed = 42
    methods = eblp,unwhitened,nnrls
    random_mean = true

Grid points run concurrently up to a jobs bound; output rows are ordered
deterministically regardless of scheduling, and every row derives its
data from a seed sequence keyed by (experiment seed, sigma index,
replicate), so methods see identical draws.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import NnrlsConfig, nnrls, nnrls_weight_colored, nnrls_weight_white
from .errors import ParseError
from .pipeline import fit_in_sample
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

__all__ = ["BenchmarkExperiment", "parse_benchmark_config", "run_benchmark", "simulate_replicate"]

KNOWN_METHODS = ("eblp", "unwhitened", "nnrls")

_KEYS = {
    "p": True,
    "gamma": True,
    "ell": True,
    "rank": True,
    "sigma_grid": True,
    "replicates": True,
    "seed": True,
    "methods": True,
    "sparsity": False,
    "sampling": False,
    "noise": False,
    "random_mean": False,
    "nnrls_max_iters": False,
    "nnrls_tol": False,
    "weight_replicates": False,
}
_SOLVER_KEYS = (("nnrls_max_iters", int), ("nnrls_tol", float), ("weight_replicates", int))

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


def _parse_spec(key: str, value: str, kinds: dict[str, bool]) -> tuple[str, float | None]:
    """Parse setting ``key``, 'kind' or 'kind:number', where kinds maps kind -> needs value."""
    kind, sep, arg = value.partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise ParseError(f"{key}: unknown kind {kind!r} (expected one of {sorted(kinds)})")
    if kinds[kind]:
        if not sep:
            raise ParseError(f"{key}: {kind!r} needs a value, e.g. {kind}:0.5")
        return kind, _finite(key, arg)
    if sep:
        raise ParseError(f"{key}: {kind!r} takes no value")
    return kind, None


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


def parse_benchmark_config(path, seed_override: int | None = None) -> list[BenchmarkExperiment]:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
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
        missing = sorted(k for k, req in _KEYS.items() if req and k not in items)
        if missing:
            raise ParseError(f"{path}: [{section}] is missing keys: {', '.join(missing)}")

        try:
            sampling_kind, sampling_val = _parse_spec(
                "sampling", items.get("sampling", "uniform:1"), {"uniform": True, "linear": True}
            )
            noise_kind, noise_val = _parse_spec(
                "noise", items.get("noise", "white"), {"white": False, "colored": True}
            )
            sparsity_kind, sparsity_val = _parse_spec(
                "sparsity", items.get("sparsity", "dense"), {"dense": False, "sparse": True}
            )
            if sparsity_kind == "sparse" and not sparsity_val.is_integer():
                raise ParseError(f"sparsity: sparse:<m> needs a whole number m, not {sparsity_val}")
            config = ExperimentConfig(
                p=int(items["p"]),
                gamma=_finite("gamma", items["gamma"]),
                ell=_floats("ell", items["ell"]),
                pc_sparsity=None if sparsity_kind == "dense" else int(sparsity_val),
                sampling=SamplingSpec(sampling_kind, sampling_val),
                noise=NoiseSpec(noise_kind, 1.0, 1.0 if noise_val is None else noise_val),
                replicates=int(items["replicates"]),
                seed=int(items["seed"]) if seed_override is None else seed_override,
                random_mean=items.get("random_mean", "false").strip().lower()
                in ("1", "true", "yes", "on"),
            )
            methods = tuple(m.strip() for m in items["methods"].split(",") if m.strip())
            # Solver keys left out keep the BenchmarkExperiment defaults.
            solver = {key: kind(items[key]) for key, kind in _SOLVER_KEYS if key in items}
            experiment = BenchmarkExperiment(
                name=section,
                config=config,
                sigma_grid=_floats("sigma_grid", items["sigma_grid"]),
                methods=methods,
                rank=int(items["rank"]),
                **solver,
            )
        except ValueError as exc:
            raise ParseError(f"{path}: [{section}]: {exc}") from exc
        experiments.append(experiment)
    return experiments


def _nnrls_calibration(exp: BenchmarkExperiment) -> tuple[float | None, np.ndarray | None]:
    """Base regularization weight at sigma = 1 and the column weights.

    Uniform sampling with white noise uses the closed formula per
    replicate (returns None); anything else is calibrated by Monte Carlo
    on masked pure noise, with C^-1 applied for the weighted variant.
    Experiments without NNRLS return (None, None).
    """
    if "nnrls" not in exp.methods:
        return None, None
    cfg = exp.config
    column_weights = None
    if cfg.sampling.kind == "linear":
        column_weights = np.sqrt(cfg.sampling.column_probabilities(cfg.p))
    if cfg.noise.kind == "white" and column_weights is None:
        return None, None
    base_cfg = replace(cfg, noise=replace(cfg.noise, sigma=1.0))
    n = base_cfg.n
    rng = np.random.default_rng(
        np.random.SeedSequence([base_cfg.seed, _WEIGHT_SEED_TAG])
    )
    w_base = nnrls_weight_colored(
        lambda g: generate_noise(base_cfg, n, g),
        lambda g: generate_masks(base_cfg, n, g),
        replicates=exp.weight_replicates,
        rng=rng,
        column_weights=column_weights,
    )
    return w_base, column_weights


@dataclass(frozen=True)
class _Task:
    experiment: BenchmarkExperiment
    sigma_index: int
    replicate: int
    w_base: float | None
    column_weights: np.ndarray | None
    timings: bool


def simulate_replicate(
    exp: BenchmarkExperiment, sigma_index: int, replicate: int
) -> tuple[ExperimentConfig, SimulatedData]:
    """The config at the ``sigma_index``-th grid noise level and its data,
    drawn from the seed sequence (experiment seed, sigma index, replicate)."""
    noise = replace(exp.config.noise, sigma=exp.sigma_grid[sigma_index])
    cfg = replace(exp.config, noise=noise)
    seed = np.random.SeedSequence([exp.config.seed, sigma_index, replicate])
    return cfg, simulate_dataset(cfg, np.random.default_rng(seed))


def _run_task(task: _Task) -> list[dict]:
    exp = task.experiment
    cfg, data = simulate_replicate(exp, task.sigma_index, task.replicate)
    sigma = cfg.noise.sigma

    noise_profile = (
        cfg.noise.variance_profile(cfg.p) if cfg.noise.kind == "colored" else None
    )
    rows = []
    for method in exp.methods:
        t0 = time.perf_counter()
        amse_est = float("nan")
        if method in ("eblp", "unwhitened"):
            whiten = method == "eblp"
            model, x_hat = fit_in_sample(
                data.dataset, exp.rank, whiten=whiten, mode="plugin",
                noise_var_diag=noise_profile if whiten else None,
            )
            amse_est = model.estimates.amse
        else:
            if task.w_base is None:
                w = nnrls_weight_white(
                    sigma, cfg.p, cfg.n, int(data.masks.sum())
                )
            else:
                w = sigma * task.w_base
            result = nnrls(
                data.y,
                data.masks,
                NnrlsConfig(
                    w=w,
                    max_iters=exp.nnrls_max_iters,
                    tol=exp.nnrls_tol,
                    column_weights=task.column_weights,
                ),
            )
            x_hat = result.x_hat
        seconds = time.perf_counter() - t0 if task.timings else 0.0
        rows.append(
            {
                "experiment": exp.name,
                "method": method,
                "sigma": sigma,
                "delta": cfg.sampling.delta,
                "kappa": cfg.noise.kappa,
                "sparsity": "dense" if cfg.pc_sparsity is None else str(cfg.pc_sparsity),
                "replicate": task.replicate,
                "rmse": rmse(x_hat, data.x),
                "seconds": seconds,
                "amse_est": amse_est,
            }
        )
    return rows


def run_benchmark(
    experiments: list[BenchmarkExperiment],
    jobs: int = 1,
    timings: bool = True,
) -> list[dict]:
    """Run every (experiment, sigma, replicate) point and return the rows
    in deterministic order.

    With ``jobs > 1`` the NNRLS weight calibrations and the grid points run
    in ``jobs`` worker processes with one BLAS thread each, so the table
    equals a ``jobs=1`` run under one BLAS thread, byte for byte.  The
    workers are spawned, so a script that calls this with ``jobs > 1``
    needs an ``if __name__ == "__main__":`` guard.
    """
    if jobs <= 1:
        return _run_grid(experiments, timings, map)
    with _worker_pool(jobs) as pool:
        return _run_grid(experiments, timings, functools.partial(pool.map, chunksize=1))


def _run_grid(experiments: list[BenchmarkExperiment], timings: bool, mapper) -> list[dict]:
    calibrations = list(mapper(_nnrls_calibration, experiments))
    tasks = [
        _Task(exp, sigma_index, replicate, w_base, column_weights, timings)
        for exp, (w_base, column_weights) in zip(experiments, calibrations)
        for sigma_index in range(len(exp.sigma_grid))
        for replicate in range(exp.config.replicates)
    ]
    return [row for rows in mapper(_run_task, tasks) for row in rows]


# Environment of each campaign worker.  OpenBLAS (and an OpenMP or MKL
# build) reads its thread count once, when numpy loads, so the variables
# must be set before a worker starts: one BLAS thread per worker keeps
# `jobs` workers from oversubscribing the cores.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """A pool of ``jobs`` spawned workers with one BLAS thread each.

    Spawned workers copy this process's environment when they start, so it
    holds `_WORKER_ENV` while the pool is open and is restored after; this
    process's BLAS is already loaded and keeps its thread count.
    """
    # Imported here: single-process runs and other commands never load
    # the process-pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

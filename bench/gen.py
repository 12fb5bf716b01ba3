"""Seeded input generator for the benchmark workloads.

Every workload draws its data from one spiked signal law: orthonormal
directions ``u`` (p x r, QR of a Gaussian draw), strengths ``ell``, a
random mean row, Gaussian factors, coordinate-selection masks and white
noise of standard deviation 1.  Training rows and fresh rows share ``u``
and the mean.  The text files are what the program reads; the ``.npy``
arrays are the same values (text round-trips exactly) plus the ground
truth, for the benchmark's own checks.

Run by hand to regenerate a workload's inputs::

    python3 bench/gen.py --workload denoise-tall --seed 1 --out bench/_data/denoise-tall
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_TEMPLATE = os.path.join(HERE, "desk_campaign.cfg")

RANK = 10


@dataclass(frozen=True)
class Law:
    """Shape and sampling of one workload's signal law."""

    n: int                  # training rows
    p: int
    ell: tuple[float, ...]
    sampling: str           # "linear:<delta>" or "uniform:<delta>"
    fresh: int              # rows streamed through the saved model


# Shapes named in the benchmark README.  Campaign-desk's own law matches the
# `uneven` experiment of its campaign at sigma = 1 (n = 375, p = 300).
LAWS = {
    "denoise-tall": Law(4000, 1000, tuple(range(10, 0, -1)), "linear:0.1", 400),
    "oos-wide": Law(600, 1200, tuple(2.0 * k for k in range(10, 0, -1)), "uniform:0.5", 1500),
    "campaign-desk": Law(375, 300, tuple(range(10, 0, -1)), "linear:0.1", 375),
}

# One-point, eblp-only campaigns at the tall and wide shapes; the desk
# campaign is the template file with its seeds replaced.
SHAPE_CAMPAIGN = """[{name}]
p = {p}
gamma = {gamma!r}
ell = {ell}
rank = {rank}
sparsity = dense
sampling = {sampling}
noise = white
sigma_grid = 1
replicates = 1
seed = {seed}
methods = eblp
random_mean = true
"""


def column_probabilities(sampling: str, p: int) -> np.ndarray:
    kind, _, value = sampling.partition(":")
    delta = float(value)
    if kind == "uniform":
        return np.full(p, delta)
    t = np.arange(p) / (p - 1)
    return delta + t * (1.0 - 2.0 * delta)


def draw(law: Law, rng: np.random.Generator, u: np.ndarray, mean: np.ndarray, rows: int):
    """Signals, masks and masked noisy observations for ``rows`` samples."""
    z = rng.standard_normal((rows, len(law.ell)))
    x = (z * np.sqrt(np.asarray(law.ell))) @ u.T + mean[None, :]
    probs = column_probabilities(law.sampling, law.p)
    mask = (rng.random((rows, law.p)) < probs[None, :]).astype(float)
    y = mask * (x + rng.standard_normal((rows, law.p)))
    return x, mask, y


def write_text(path: str, y: np.ndarray, mask: np.ndarray) -> None:
    """Whitespace-delimited rows; unobserved entries are the token NA.

    ``repr`` gives the shortest string that parses back to the same
    double, so the program reads exactly the values in ``y``.
    """
    with open(path, "w") as handle:
        for row, seen in zip(y.tolist(), mask.tolist()):
            handle.write(
                " ".join([repr(v) if s else "NA" for v, s in zip(row, seen)]) + "\n"
            )


def campaign_config(workload: str, seed: int) -> str:
    if workload == "campaign-desk":
        with open(DESK_TEMPLATE) as handle:
            text = handle.read()
        # Two experiments, two derived seeds, in template order.
        for k, old in enumerate(("seed = 42", "seed = 43")):
            if old not in text:
                raise ValueError(f"{DESK_TEMPLATE}: expected a line {old!r}")
            text = text.replace(old, f"seed = {seed * 2 + k}")
        return text
    law = LAWS[workload]
    return SHAPE_CAMPAIGN.format(
        name=workload.replace("-", "_"),
        p=law.p,
        gamma=law.p / law.n,
        ell=",".join(f"{v:g}" for v in law.ell),
        rank=RANK,
        sampling=law.sampling,
        seed=seed,
    )


def generate(workload: str, seed: int, out: str) -> None:
    """Write every input of ``workload`` for ``seed`` into ``out``."""
    law = LAWS[workload]
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(LAWS).index(workload)])
    u, _ = np.linalg.qr(rng.standard_normal((law.p, len(law.ell))))
    mean = rng.standard_normal(law.p)
    for prefix, rows in (("train", law.n), ("fresh", law.fresh)):
        x, mask, y = draw(law, rng, u, mean, rows)
        write_text(os.path.join(out, f"{prefix}.txt"), y, mask)
        np.save(os.path.join(out, f"{prefix}.x.npy"), x)
        np.save(os.path.join(out, f"{prefix}.mask.npy"), mask)
        np.save(os.path.join(out, f"{prefix}.y.npy"), y)
    with open(os.path.join(out, "campaign.cfg"), "w") as handle:
        handle.write(campaign_config(workload, seed))


def load(out: str, prefix: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, mask, y) arrays written by :func:`generate`."""
    return tuple(np.load(os.path.join(out, f"{prefix}.{k}.npy")) for k in ("x", "mask", "y"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands: ``denoise`` (in-sample fit of a matrix with missing or
weighted entries), ``oos`` (predict a file of fresh rows, read whole, with
a saved model), ``simulate`` (dump a synthetic dataset), ``benchmark``
(method comparison grid producing a results table).

Importing this module loads only what ``denoise`` and ``oos`` run;
``simulate`` and ``benchmark`` import the simulator, the NNRLS baseline and
the config parser when they run.

Exit codes: 0 success, 2 parse/usage or an unwritable output, 3
degenerate data, 4 numeric.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import (
    DegenerateCoordinateError,
    EblpError,
    ParseError,
    RankError,
    ShapeError,
    SpectrumDomainError,
)
from . import matio
from .pipeline import (
    TransformedObservation,
    dataset_from_arrays,
    fit_in_sample,
    predict_out_of_sample,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4


def _load_observations(path, mask_path, na_token):
    values, observed = matio.read_matrix(path, na_token=na_token)
    if mask_path is not None:
        mask = matio.read_mask(mask_path)
        if mask.shape != values.shape:
            raise ShapeError(
                f"mask shape {mask.shape} does not match input {values.shape}"
            )
        values = values * mask
        conflict = (mask != 0) & (observed == 0)
        if conflict.any():
            i, j = np.unravel_index(np.argmax(conflict), conflict.shape)
            raise ParseError(
                f"{path}: row {i + 1}, field {j + 1}: "
                "missing but marked observed by the mask"
            )
        observed = mask
    return values, observed


def _write_report(path, model):
    est = model.estimates
    table = np.column_stack([np.arange(1, model.rank + 1), est.sigma_obs, est.ell_hat,
                             est.c2_hat, est.ct2_hat, est.lambda_star, est.supercritical])
    np.savetxt(path, table, fmt="%d" + " %.17g" * 5 + " %d", comments="",
               header="# per-component estimates (fitting coordinates)\n"
                      "component sigma_obs ell_hat c2_hat ct2_hat lambda_star supercritical",
               footer=f"amse_est {est.amse:.17g}")


def _check_targets(*targets) -> None:
    """All or nothing: a command checks every output it will write (None
    for one it will not) before it reads or computes anything."""
    for target in filter(None, targets):
        if os.path.isdir(target) or not os.path.isdir(os.path.dirname(target) or "."):
            raise OSError(f"{target}: is a directory, or its directory is missing")


def cmd_denoise(args) -> int:
    matio.check_na_token(args.na_token)
    if args.rank < 1:
        raise RankError("rank must be at least 1")
    _check_targets(args.output, args.output + ".report", args.save_model)
    values, observed = _load_observations(args.input, args.mask, args.na_token)
    if values.size == 0:
        raise ParseError(f"{args.input}: empty input matrix")
    dataset = dataset_from_arrays(values, observed)
    model, x_hat = fit_in_sample(
        dataset, args.rank, whiten=args.whiten, mode=args.mode
    )
    # The model first: one that cannot be saved fails before any output.
    if args.save_model:
        matio.write_model(args.save_model, model)
    matio.write_matrix(args.output, x_hat)
    _write_report(args.output + ".report", model)
    return EXIT_OK


def cmd_oos(args) -> int:
    matio.check_na_token(args.na_token)
    _check_targets(args.output)
    model = matio.read_model(args.model)
    values, observed = _load_observations(args.input, args.mask, args.na_token)
    if values.size == 0:
        matio.write_matrix(args.output, np.zeros((0, 0)))
        return EXIT_OK
    if values.shape[1] != model.p:
        raise ShapeError(
            f"input has {values.shape[1]} columns, model expects {model.p}"
        )
    predictions = predict_out_of_sample(
        model, TransformedObservation(y=values, d=observed)
    )
    matio.write_matrix(args.output, predictions)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .benchmark import parse_benchmark_config, simulate_replicate

    matio.check_na_token(args.na_token)
    _check_targets(*(args.prefix + suffix for suffix in (".y.txt", ".mask.txt", ".x.txt")))
    experiments = parse_benchmark_config(args.config, seed_override=args.seed)
    # Benchmark replicate 0 of the first experiment at its first noise level.
    _, data = simulate_replicate(experiments[0], 0, 0)
    matio.write_matrix(args.prefix + ".y.txt", data.y, observed=data.masks,
                       na_token=args.na_token)
    matio.write_matrix(args.prefix + ".mask.txt", data.masks)
    matio.write_matrix(args.prefix + ".x.txt", data.x)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from .benchmark import parse_benchmark_config, run_benchmark

    _check_targets(args.output)
    experiments = parse_benchmark_config(args.config, seed_override=args.seed)
    rows = run_benchmark(experiments, jobs=args.jobs, timings=args.timings)
    matio.write_results(args.output, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eblp",
        description="Optimal low-rank prediction for transformed/missing-data "
        "observations via singular-value shrinkage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    denoise = sub.add_parser("denoise", help="denoise an observed matrix in-sample")
    denoise.add_argument("input", help="matrix file (rows are samples)")
    denoise.add_argument("output", help="where to write the denoised matrix")
    denoise.add_argument("--rank", type=int, required=True)
    denoise.add_argument("--mask", help="0/1 mask file (default: NA tokens)")
    denoise.add_argument("--na-token", default="NA")
    denoise.add_argument("--mode", choices=("plugin", "white"), default="plugin")
    denoise.add_argument("--save-model", help="save the fitted model as JSON")
    whiten = denoise.add_mutually_exclusive_group()
    whiten.add_argument("--whiten", dest="whiten", action="store_true", default=True)
    whiten.add_argument("--no-whiten", dest="whiten", action="store_false")
    denoise.set_defaults(func=cmd_denoise)

    oos = sub.add_parser("oos", help="predict fresh rows with a saved model")
    oos.add_argument("input", help="matrix file of new observations")
    oos.add_argument("output", help="where to write the predictions")
    oos.add_argument("--model", required=True, help="model JSON from denoise")
    oos.add_argument("--mask", help="0/1 mask file (default: NA tokens)")
    oos.add_argument("--na-token", default="NA")
    oos.set_defaults(func=cmd_oos)

    simulate = sub.add_parser("simulate", help="dump one synthetic dataset")
    simulate.add_argument("config", help="experiment config (first section used)")
    simulate.add_argument("prefix", help="output prefix for .y/.mask/.x files")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--na-token", default="NA")
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark", help="run a method-comparison grid")
    bench.add_argument("config", help="experiment config file")
    bench.add_argument("output", help="where to write the results table")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--seed", type=int, default=None)
    timings = bench.add_mutually_exclusive_group()
    timings.add_argument(
        "--timings", dest="timings", action="store_true", default=True
    )
    timings.add_argument(
        "--no-timings",
        dest="timings",
        action="store_false",
        help="write 0 in the seconds column for byte-identical reruns",
    )
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"eblp: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeError as exc:
        print(f"eblp: input mismatch: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # Readers report their own OSErrors as ParseError.
        print(f"eblp: cannot write: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateCoordinateError as exc:
        print(f"eblp: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (RankError, SpectrumDomainError) as exc:
        print(f"eblp: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (np.linalg.LinAlgError, EblpError, ValueError) as exc:
        print(f"eblp: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

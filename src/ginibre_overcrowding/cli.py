"""Command-line surface: probabilities, sampling, kernel grids, validation.

Four subcommands cover the batch workflows:

``prob``
    Log of the exact overcrowding probability next to its asymptotic
    value, their ratio, and the factor breakdown (hole product, partition
    series, and the alternative hole-product convention).  ``--oracle``
    adds a brute-force subset enumeration field for small N.

``sample``
    Writes point-configuration files (or radial-moduli files with
    ``--radial-only``) for a number of replicas.  Replicas derive
    independent counter-based streams from one ``--seed``, so output is
    byte-identical across reruns and replica counts.  ``--replicas`` must
    be at least 1.

``kernel``
    Tabulates a kernel on a grid (``--kind``), or compares two kernels
    pointwise and reports the sup difference (``--compare``); the two are
    mutually exclusive, and ``--x-scaled`` needs ``edge_rescaled_J`` among
    the kernels asked for.

``validate``
    Runs the acceptance suite, one machine-readable line per criterion;
    exit status 0 only if everything passed.

Each subcommand is one ``cmd_*`` function of the parsed arguments.  -N,
-c and -R are given together or not at all, and the triple is validated
before any work, also by ``kernel --kind limit_hard_wall``, which does not
use it.

Exit codes: 2 for invalid parameters, malformed grids or bad flags, 3
for numeric or sampling failures.  Randomized commands have no implicit
seed; reproducibility is part of the contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .gamma import ConvergenceError, GammaDomainError
from .kernels import KERNEL_KINDS, KernelSpec, evaluate_grid, evaluate_kernel
from .mixture import (
    ConstraintViolation,
    EnsembleParams,
    IndexSet,
    log_hole_factor,
    log_hole_factor_rescaled,
    overcrowding_probability_exact,
    sample_conditioned_indexset,
    top_block,
)
from .partitions import partition_series
from .sampler import RandomStream, SamplingError, sample_conditioned_ensemble, sample_radii_outer
from .validation import enumerate_count_log_probs, run_suite

__all__ = ["main"]

_EXIT_INVALID = 2
_EXIT_NUMERIC = 3

# brute-force enumeration walks 2^N subsets; past this it stops being a tool
_MAX_ORACLE_N = 16

_RADIAL_SCHEMA = "radial-moduli/1"


def _params(args: argparse.Namespace) -> "EnsembleParams | None":
    """The validated -N/-c/-R triple, or None when none of the three is given."""
    given = (args.N, args.c, args.R)
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("-N, -c and -R must be given together")
    return EnsembleParams(N=args.N, c=args.c, R=args.R)


def _parse_grid(text: str) -> tuple[complex, ...]:
    """``re0:re1:n,im0:im1:m`` -> row-major product of two linspaces."""
    try:
        re_part, im_part = text.split(",")
        re0, re1, n = re_part.split(":")
        im0, im1, m = im_part.split(":")
        res = np.linspace(float(re0), float(re1), int(n))
        ims = np.linspace(float(im0), float(im1), int(m))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed grid {text!r}, expected re0:re1:n,im0:im1:m") from exc
    if len(res) < 1 or len(ims) < 1:
        raise ValueError(f"grid {text!r} must have at least one point per axis")
    return tuple(complex(a, b) for a in res for b in ims)


def _parse_tolerances(items: list) -> dict:
    """``KEY=VAL`` overrides; ``run_suite`` rejects unknown keys."""
    overrides = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed tolerance override {item!r}, expected KEY=VAL")
        overrides[key] = float(value)
    return overrides


def _emit(text: str, out: "str | None") -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------- prob


def cmd_prob(args: argparse.Namespace) -> int:
    params = _params(args)
    exact = overcrowding_probability_exact(params)
    hole = log_hole_factor(params)
    series = partition_series(params.x)
    asymptotic = hole + series
    report = {
        "N": params.N,
        "c": params.c,
        "R": params.R,
        "N_c": params.N_c,
        "log_prob_exact": exact,
        "log_prob_asymptotic": asymptotic,
        "exact_over_asymptotic": float(np.exp(exact - asymptotic)),
        "log_hole_factor": hole,
        "log_partition_series_factor": series,
        "log_hole_factor_rescaled": log_hole_factor_rescaled(params),
    }
    if args.oracle:
        if params.N > _MAX_ORACLE_N:
            raise ValueError(f"--oracle enumerates 2^N subsets and needs N <= {_MAX_ORACLE_N}")
        enumerated = float(enumerate_count_log_probs(params)[params.N_c])
        report["log_prob_enumerated"] = enumerated
        report["enumeration_rel_err"] = abs(float(np.expm1(exact - enumerated)))
    if args.format == "csv":
        lines = ["field,value"] + [f"{k},{v!r}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- sample


def _sample_one(params: EnsembleParams, seed: int, radial_only: bool, index: int):
    stream = RandomStream(seed=seed, stream_id=index)
    if not radial_only:
        return sample_conditioned_ensemble(params, stream)
    gen = stream.generator()
    J = sample_conditioned_indexset(params, params.N_c, gen)
    return J, sample_radii_outer(params, J, gen)


def _write_radial(
    path: Path, params: EnsembleParams, args: argparse.Namespace, index: int, J: IndexSet, radii: list
) -> None:
    """One ``radial-moduli/1`` header, as a CSV sidecar or inlined in one JSON document."""
    meta = {
        "schema": _RADIAL_SCHEMA,
        "params": {"N": params.N, "c": params.c, "R": params.R},
        "index_set": list(J.members),
        "seed": args.seed,
        "stream_id": index,
        "sampler": "radial",
    }
    if args.format == "json":
        path.write_text(json.dumps({**meta, "radii": radii}, indent=2) + "\n")
        return
    path.write_text("r\n" + "".join(f"{r!r}\n" for r in radii))
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def read_radial_csv(path) -> tuple[list, dict]:
    """Parse a ``--radial-only`` output file; returns (radii, metadata)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "r":
        raise ValueError(f"{path}: expected header 'r', got {lines[0]!r}" if lines else f"{path}: empty file")
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    if meta.get("schema") != _RADIAL_SCHEMA:
        raise ValueError(f"{path}: unsupported schema {meta.get('schema')!r}")
    return [float(s) for s in lines[1:]], meta


def cmd_sample(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {args.replicas}")
    results = [_sample_one(params, args.seed, args.radial_only, index) for index in range(args.replicas)]
    prefix = Path(args.out)
    for index, result in enumerate(results):
        path = Path(f"{prefix}-{index:04d}.{args.format}")
        if args.radial_only:
            _write_radial(path, params, args, index, *result)
        elif args.format == "json":
            path.write_text(result.to_json() + "\n")
        else:
            result.write_csv(path)
        print(path)
    return 0


# ---------------------------------------------------------------- kernel


def _make_spec(kind: str, params: "EnsembleParams | None", x_scaled: bool) -> KernelSpec:
    if kind == "limit_hard_wall":
        return KernelSpec(kind)
    if params is None:
        raise ValueError(f"kernel kind {kind!r} requires -N, -c and -R")
    index_set = None if kind == "ginibre_N" else top_block(params)
    return KernelSpec(kind, params, index_set, x_scaled=x_scaled and kind == "edge_rescaled_J")


def cmd_kernel(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.kind is None and args.compare is None:
        raise ValueError("kernel requires --kind or --compare")
    kinds = args.compare or [args.kind]
    if args.x_scaled and "edge_rescaled_J" not in kinds:
        raise ValueError("--x-scaled applies only to edge_rescaled_J, which is neither --kind nor in --compare")
    grid = _parse_grid(args.grid)
    if args.compare is not None:
        spec_a, spec_b = (_make_spec(kind, params, args.x_scaled) for kind in args.compare)
        rows = []
        for z in grid:
            va = evaluate_kernel(spec_a, z, z)
            vb = evaluate_kernel(spec_b, z, z)
            rows.append((z, va, vb, abs(va - vb)))
        sup_z, _, _, sup = max(rows, key=lambda row: row[3])
        if args.format == "csv":
            lines = ["z_re,z_im,a_re,a_im,b_re,b_im,diff_abs"]
            for z, va, vb, diff in rows:
                lines.append(
                    f"{z.real!r},{z.imag!r},{va.real!r},{va.imag!r},{vb.real!r},{vb.imag!r},{diff!r}"
                )
            _emit("\n".join(lines) + "\n", args.out)
            print(f"sup |A-B| = {sup!r} at z = {sup_z!r}", file=sys.stderr)
        else:
            payload = {
                "compare": args.compare,
                "sup": sup,
                "at": [sup_z.real, sup_z.imag],
                "points": [
                    {
                        "z": [z.real, z.imag],
                        "a": [va.real, va.imag],
                        "b": [vb.real, vb.imag],
                        "diff_abs": diff,
                    }
                    for z, va, vb, diff in rows
                ],
            }
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    values = evaluate_grid(_make_spec(args.kind, params, args.x_scaled), grid, grid)
    _emit(values.to_csv() if args.format == "csv" else values.to_json() + "\n", args.out)
    return 0


# ---------------------------------------------------------------- validate


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_suite(
        quick=args.quick,
        tolerances=_parse_tolerances(args.tol or []),
        report=lambda r: print(r.line(), flush=True),
    )
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginibre-overcrowding",
        description="Overcrowded Ginibre ensembles: probabilities, samples, kernels, validation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_params(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("-N", type=int, required=required, help="matrix size")
        p.add_argument("-c", type=float, required=required, help="overcrowding fraction in (0, 1]")
        p.add_argument("-R", type=float, required=required, help="disk radius in (0, 1), with R^2 > 1 - c")

    prob = sub.add_parser("prob", help="exact and asymptotic overcrowding probabilities")
    prob.set_defaults(run=cmd_prob)
    add_params(prob, required=True)
    prob.add_argument("--oracle", action="store_true", help="add a brute-force enumeration field (N <= 16)")
    prob.add_argument("--out", help="output file (default: stdout)")
    prob.add_argument("--format", choices=("csv", "json"), default="json")

    sample = sub.add_parser("sample", help="draw conditioned point configurations")
    sample.set_defaults(run=cmd_sample)
    add_params(sample, required=True)
    sample.add_argument("--seed", type=int, required=True, help="base seed; replica i uses stream id i")
    sample.add_argument("--replicas", type=int, default=1)
    sample.add_argument("--radial-only", action="store_true", help="write outer moduli instead of full configurations")
    sample.add_argument("--out", required=True, help="output file prefix; files get -NNNN suffixes")
    sample.add_argument("--format", choices=("csv", "json"), default="csv")

    kernel = sub.add_parser("kernel", help="tabulate or compare kernels on a grid")
    kernel.set_defaults(run=cmd_kernel)
    add_params(kernel, required=False)
    what = kernel.add_mutually_exclusive_group()
    what.add_argument("--kind", choices=KERNEL_KINDS, help="kernel to tabulate")
    what.add_argument("--compare", nargs=2, metavar=("A", "B"), choices=KERNEL_KINDS, help="emit pointwise differences and the sup")
    kernel.add_argument("--x-scaled", action="store_true", help="use the x-scaled edge kernel variant (edge_rescaled_J only)")
    kernel.add_argument("--grid", required=True, help="re0:re1:n,im0:im1:m")
    kernel.add_argument("--out", help="output file (default: stdout)")
    kernel.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser("validate", help="run the acceptance criteria")
    validate.set_defaults(run=cmd_validate)
    validate.add_argument("--quick", action="store_true", help="fast subset (skips the Monte-Carlo-heavy criterion)")
    validate.add_argument("--tol", action="append", metavar="KEY=VAL", help="override a tolerance")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConstraintViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except (SamplingError, ConvergenceError, GammaDomainError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

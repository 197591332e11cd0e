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
    byte-identical across reruns and replica counts.

``kernel``
    Tabulates a kernel on a grid, or compares two kernels pointwise and
    reports the sup difference.

``validate``
    Runs the acceptance suite, one machine-readable line per criterion;
    exit status 0 only if everything passed.

Exit codes: 2 for invalid parameters, malformed grids or bad flags, 3
for numeric or sampling failures.  Randomized commands have no implicit
seed; reproducibility is part of the contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
from .validation import DEFAULT_TOLERANCES, enumerate_count_log_probs, run_suite

__all__ = ["RunConfig", "main"]

_EXIT_INVALID = 2
_EXIT_NUMERIC = 3

# brute-force enumeration walks 2^N subsets; past this it stops being a tool
_MAX_ORACLE_N = 16

_RADIAL_SCHEMA = "radial-moduli/1"


@dataclass(frozen=True)
class RunConfig:
    """Validated run description shared by all subcommands.

    Construction fails (with the underlying constraint message) before
    any computation starts if the ensemble parameters are invalid.
    """

    subcommand: str
    params: "EnsembleParams | None" = None
    seed: "int | None" = None
    out: "Path | None" = None
    fmt: str = "json"
    grid: "tuple[complex, ...] | None" = None
    replicas: int = 1
    radial_only: bool = False
    kind: "str | None" = None
    compare: "tuple[str, str] | None" = None
    x_scaled: bool = False
    oracle: bool = False
    quick: bool = False
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        params = None
        given = [getattr(args, name, None) for name in ("N", "c", "R")]
        if any(v is not None for v in given):
            if any(v is None for v in given):
                raise ValueError("-N, -c and -R must be given together")
            params = EnsembleParams(N=args.N, c=args.c, R=args.R)
        grid = _parse_grid(args.grid) if getattr(args, "grid", None) else None
        tolerances = _parse_tolerances(getattr(args, "tol", None) or [])
        replicas = int(getattr(args, "replicas", 1) or 1)
        if replicas < 1:
            raise ValueError(f"--replicas must be at least 1, got {replicas}")
        out = getattr(args, "out", None)
        return cls(
            subcommand=args.subcommand,
            params=params,
            seed=getattr(args, "seed", None),
            out=Path(out) if out is not None else None,
            fmt=getattr(args, "format", "json"),
            grid=grid,
            replicas=replicas,
            radial_only=bool(getattr(args, "radial_only", False)),
            kind=getattr(args, "kind", None),
            compare=tuple(args.compare) if getattr(args, "compare", None) else None,
            x_scaled=bool(getattr(args, "x_scaled", False)),
            oracle=bool(getattr(args, "oracle", False)),
            quick=bool(getattr(args, "quick", False)),
            tolerances=tolerances,
        )


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
    overrides = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed tolerance override {item!r}, expected KEY=VAL")
        if key not in DEFAULT_TOLERANCES:
            raise ValueError(
                f"unknown tolerance key {key!r}; known: {sorted(DEFAULT_TOLERANCES)}"
            )
        overrides[key] = float(value)
    return overrides


def _emit(text: str, out: "Path | None") -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text)


# ---------------------------------------------------------------- prob


def cmd_prob(config: RunConfig) -> int:
    params = config.params
    if params is None:
        raise ValueError("prob requires -N, -c and -R")
    exact = overcrowding_probability_exact(params)
    # x = oo at c = 1, where the series factor is exactly 0.0
    x = float("inf") if params.c == 1.0 else params.R * params.R / (1.0 - params.c)
    hole = log_hole_factor(params)
    series = partition_series(x)
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
    if config.oracle:
        if params.N > _MAX_ORACLE_N:
            raise ValueError(f"--oracle enumerates 2^N subsets and needs N <= {_MAX_ORACLE_N}")
        enumerated = float(enumerate_count_log_probs(params)[params.N_c])
        report["log_prob_enumerated"] = enumerated
        report["enumeration_rel_err"] = abs(float(np.expm1(exact - enumerated)))
    if config.fmt == "csv":
        lines = ["field,value"] + [f"{k},{v!r}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", config.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", config.out)
    return 0


# ---------------------------------------------------------------- sample


def _sample_one(config: RunConfig, index: int):
    stream = RandomStream(seed=config.seed, stream_id=index)
    params = config.params
    if not config.radial_only:
        return sample_conditioned_ensemble(params, stream)
    gen = stream.generator()
    J = sample_conditioned_indexset(params, params.N_c, gen)
    radii = sample_radii_outer(params, J, gen)
    return J, [float(r) for r in radii]


def _write_radial(path: Path, config: RunConfig, index: int, J: IndexSet, radii: list) -> None:
    """One ``radial-moduli/1`` header, as a CSV sidecar or inlined in one JSON document."""
    meta = {
        "schema": _RADIAL_SCHEMA,
        "params": {"N": config.params.N, "c": config.params.c, "R": config.params.R},
        "index_set": list(J.members),
        "seed": config.seed,
        "stream_id": index,
        "sampler": "radial",
    }
    if config.fmt == "json":
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


def cmd_sample(config: RunConfig) -> int:
    if config.params is None:
        raise ValueError("sample requires -N, -c and -R")
    if config.out is None:
        raise ValueError("sample requires --out (a file prefix)")
    results = [_sample_one(config, index) for index in range(config.replicas)]
    suffix = "csv" if config.fmt == "csv" else "json"
    for index, result in enumerate(results):
        path = Path(f"{config.out}-{index:04d}.{suffix}")
        if config.radial_only:
            _write_radial(path, config, index, *result)
        elif config.fmt == "json":
            path.write_text(result.to_json() + "\n")
        else:
            result.write_csv(path)
        print(path)
    return 0


# ---------------------------------------------------------------- kernel


def _make_spec(kind: str, config: RunConfig) -> KernelSpec:
    params = config.params if kind != "limit_hard_wall" else None
    index_set = None
    if kind in ("outer_J", "inner_J_complement", "edge_rescaled_J"):
        if config.params is None:
            raise ValueError(f"kernel kind {kind!r} requires -N, -c and -R")
        index_set = top_block(config.params)
    if kind == "ginibre_N" and config.params is None:
        raise ValueError("kernel kind 'ginibre_N' requires -N, -c and -R")
    x_scaled = config.x_scaled and kind == "edge_rescaled_J"
    return KernelSpec(kind=kind, params=params, index_set=index_set, x_scaled=x_scaled)


def cmd_kernel(config: RunConfig) -> int:
    if config.grid is None:
        raise ValueError("kernel requires --grid re0:re1:n,im0:im1:m")
    if config.compare is not None:
        spec_a = _make_spec(config.compare[0], config)
        spec_b = _make_spec(config.compare[1], config)
        rows = []
        for z in config.grid:
            va = evaluate_kernel(spec_a, z, z)
            vb = evaluate_kernel(spec_b, z, z)
            rows.append((z, va, vb, abs(va - vb)))
        sup_z, _, _, sup = max(rows, key=lambda row: row[3])
        if config.fmt == "csv":
            lines = ["z_re,z_im,a_re,a_im,b_re,b_im,diff_abs"]
            for z, va, vb, diff in rows:
                lines.append(
                    f"{z.real!r},{z.imag!r},{va.real!r},{va.imag!r},{vb.real!r},{vb.imag!r},{diff!r}"
                )
            _emit("\n".join(lines) + "\n", config.out)
            print(f"sup |A-B| = {sup!r} at z = {sup_z!r}", file=sys.stderr)
        else:
            payload = {
                "compare": list(config.compare),
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
            _emit(json.dumps(payload, indent=2) + "\n", config.out)
        return 0
    if config.kind is None:
        raise ValueError("kernel requires --kind or --compare")
    grid = evaluate_grid(_make_spec(config.kind, config), config.grid, config.grid)
    _emit(grid.to_csv() if config.fmt == "csv" else grid.to_json() + "\n", config.out)
    return 0


# ---------------------------------------------------------------- validate


def cmd_validate(config: RunConfig) -> int:
    results = run_suite(
        quick=config.quick,
        tolerances=config.tolerances or None,
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
    add_params(prob, required=True)
    prob.add_argument("--oracle", action="store_true", help="add a brute-force enumeration field (N <= 16)")
    prob.add_argument("--out", help="output file (default: stdout)")
    prob.add_argument("--format", choices=("csv", "json"), default="json")

    sample = sub.add_parser("sample", help="draw conditioned point configurations")
    add_params(sample, required=True)
    sample.add_argument("--seed", type=int, required=True, help="base seed; replica i uses stream id i")
    sample.add_argument("--replicas", type=int, default=1)
    sample.add_argument("--radial-only", action="store_true", help="write outer moduli instead of full configurations")
    sample.add_argument("--out", required=True, help="output file prefix; files get -NNNN suffixes")
    sample.add_argument("--format", choices=("csv", "json"), default="csv")

    kernel = sub.add_parser("kernel", help="tabulate or compare kernels on a grid")
    add_params(kernel, required=False)
    kernel.add_argument("--kind", choices=KERNEL_KINDS, help="kernel to tabulate")
    kernel.add_argument("--compare", nargs=2, metavar=("A", "B"), choices=KERNEL_KINDS, help="emit pointwise differences and the sup")
    kernel.add_argument("--x-scaled", action="store_true", help="use the x-scaled edge kernel variant")
    kernel.add_argument("--grid", required=True, help="re0:re1:n,im0:im1:m")
    kernel.add_argument("--out", help="output file (default: stdout)")
    kernel.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser("validate", help="run the acceptance criteria")
    validate.add_argument("--quick", action="store_true", help="fast subset (skips the Monte-Carlo-heavy criterion)")
    validate.add_argument("--tol", action="append", metavar="KEY=VAL", help="override a tolerance")

    return parser


_DISPATCH = {
    "prob": cmd_prob,
    "sample": cmd_sample,
    "kernel": cmd_kernel,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return _DISPATCH[config.subcommand](config)
    except (ConstraintViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except (SamplingError, ConvergenceError, GammaDomainError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

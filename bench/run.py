"""Closed-loop benchmark of the ginibre-overcrowding command line.

Run from the root of a checkout:

    python3 bench/run.py --workload prob_sweep --seed 1 --seconds 24 --trace 0

One process, one client thread, one op at a time.  Each op is an in-process
call of ``ginibre_overcrowding.cli.main(argv)`` with argv generated from the
seed (see ``workloads.py``); stdout and stderr are captured in memory and
output files go to a scratch directory inside the checkout.  Every op's
output is checked (``checks.py``).  Ops run in whole blocks until ``--seconds``
have passed, not counting the set-up samples taken between blocks, and at
least ``MIN_OPS`` ops are done.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` the package is traced
(``tracing.py``) and the result holds the per-layer metrics instead.  The
line before it holds the run context, which is also written, with one entry
per op, to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Each op runs on one CPU, and successive ops take turns over the CPUs the
# process may use.  Unpinned, the CLI's GIL-bound thread pools hand the
# interpreter lock across CPUs and identical runs on a shared 2-CPU machine
# differed by up to 50%.  Pinned to a single CPU for the whole run, a run
# measures that CPU's speed at the time: on a shared 2-vCPU virtual machine
# each vCPU slowed down by up to 40% for tens of seconds at a time,
# independently of the other (correlation 0.02), so taking turns averages
# the two.
CPUS = sorted(os.sched_getaffinity(0))


def pin(k: int) -> None:
    """Move the calling thread, and the threads it starts later, to CPU k of CPUS (mod)."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


if __name__ == "__main__":
    # before numpy starts any BLAS threads, so they share the CPU too
    pin(0)

import numpy
import scipy

from checks import check_compare, check_kernel, check_prob, check_sample
from tracing import END, ERROR, ROOT as OP_SPAN, SID, START, TRACED, SpanTable, Tracer
from workloads import WORKLOADS, Op, blocks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "ginibre_overcrowding"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

# p90 needs at least ten ops above it
MIN_OPS = 100
# stop taking new ops this long after start, whatever the op count, so a
# run of a much slower program still ends in time
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 5
# exit status of the CLI for numeric failures: a refusal, not a wrong answer
EXIT_NUMERIC = 3

# Near-critical x = 1.0164 makes the partition series certify with ~99,500
# terms, about as many as any passing near-critical op needs, so this op fills
# the process-wide partition-count table before timing starts, as an early
# call of a library session would.
_WARM_X = 1.0164
# seed of the warm-up stream; timed runs take seeds >= 0
WARMUP_SEED = -1


def warmup_ops(workload: str) -> list[Op]:
    """Untimed ops that fill process-wide caches and start lazy imports."""
    if workload == "prob_sweep":
        R = math.sqrt(0.5 * _WARM_X)
        return [Op("prob", ("prob", "-N", "100", "-c", "0.5", "-R", repr(R)), 100, 0.5, R)]
    first = next(blocks(workload, WARMUP_SEED))
    return list({(op.label, op.radial, op.fmt): op for op in first}.values())


@dataclass
class Result:
    op: Op
    latency: float
    cpu: float
    rc: "int | None"
    bytes_out: int
    digest: str
    problems: list

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)

    @property
    def incorrect(self) -> bool:
        """A wrong or missing answer, as opposed to a documented numeric refusal."""
        return bool(self.problems) or self.rc not in (0, EXIT_NUMERIC)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup(k: int) -> float:
    """Wall time of a fresh interpreter, run on CPU k of CPUS, that imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pin(k)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import ginibre_overcrowding.cli"],
        env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def execute(cli, op: Op, index: int, tmp: Path, tracer=None) -> Result:
    """Run one op through ``cli.main``, check its output and delete its files.

    ``index`` numbers the timed ops from 0 and the warm-up ops from -1 down.
    """
    argv = list(op.argv)
    prefix = tmp / f"op{index:05d}"
    if op.kind == "sample":
        argv += ["--out", str(prefix)]
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(index)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, crash = None, traceback.format_exc()
        t1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.end_op()
    stdout, stderr = out.getvalue(), err.getvalue()
    digest = hashlib.sha256(stdout.replace(str(tmp), "<tmp>").encode())
    bytes_out = len(stdout.encode())
    files = sorted(tmp.glob(prefix.name + "-*"))
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        bytes_out += len(data)
    problems = [crash] if crash else []
    if rc == 0:
        if op.kind == "prob":
            problems = check_prob(op, stdout)
        elif op.kind == "kernel":
            problems = check_kernel(op, stdout)
        elif op.kind == "compare":
            problems = check_compare(op, stdout, stderr)
        else:
            problems = check_sample(op, stdout, prefix, cli)
    for path in files:
        path.unlink()
    return Result(op, t1 - t0, cpu1 - cpu0, rc, bytes_out, digest.hexdigest(), problems)


def src_lines() -> dict:
    """Line count of each package module, for simplicity comparisons (not gated)."""
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def end_to_end(results: list[Result], setup_samples: list[float]) -> dict:
    latencies = [r.latency for r in results]
    n = len(results)
    failed = sum(r.failed for r in results)
    return {
        "ops_per_s": (n / sum(latencies), "op/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "success_rate": ((n - failed) / n, "ratio"),
        "cpu_s_per_op": (sum(r.cpu for r in results) / n, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer(tracer: Tracer, results: list[Result]) -> dict:
    table = SpanTable(tracer.spans)
    answered = [r.op for r in results if not r.failed]
    gamma = table.named(*TRACED["gamma"][1])
    exact = table.named("overcrowding_probability_exact")
    series = table.named("partition_series")
    ensembles = table.named("sample_conditioned_ensemble")
    roots = table.named(OP_SPAN)
    values = sum(
        op.grid.size ** 2 if op.kind == "kernel" else 2 * op.grid.size
        for op in answered if op.kind in ("kernel", "compare")
    )
    points = sum(op.N * op.replicas for op in answered if op.kind == "sample" and not op.radial)
    radii = sum(op.N_c * op.replicas for op in answered if op.kind == "sample" and op.radial)
    kernels_s = table.layer_self("kernels")
    full_s = sum(s[END] - s[START] - table.covered_by(s, {"sample_conditioned_indexset"}) for s in ensembles)
    radial_s = table.inclusive("sample_radii_outer")
    cli_self = [table.self_time(s) for s in roots]
    busy = sum(kid[END] - kid[START] for s in roots for kid in table.children.get(s[SID], ())) + sum(cli_self)
    wall = sum(s[END] - s[START] for s in roots)
    return {
        "gamma.calls": (len(gamma), "count"),
        "gamma.self_s": (table.layer_self("gamma"), "s"),
        "mixture.weights_s": (table.inclusive("bernoulli_weights"), "s"),
        "mixture.dp_s": (sum(s[END] - s[START] - table.covered_by(s, {"bernoulli_weights"}) for s in exact), "s"),
        "mixture.hole_s": (table.inclusive("log_hole_factor", "log_hole_factor_rescaled"), "s"),
        "mixture.dp_peak_mb": (max(tracer.dp_peaks, default=0) / 2**20, "MB"),
        "mixture.indexset_calls": (len(table.named("sample_conditioned_indexset")), "count"),
        "mixture.indexset_s": (table.inclusive("sample_conditioned_indexset"), "s"),
        "partitions.series_calls": (len(series), "count"),
        "partitions.terms": (tracer.series_terms, "count"),
        "partitions.series_s": (table.inclusive("partition_series"), "s"),
        "partitions.failures": (sum(s[ERROR] == "ConvergenceError" for s in series), "count"),
        "kernels.values": (values, "count"),
        "kernels.self_s": (kernels_s, "s"),
        "kernels.values_per_s": (values / kernels_s if kernels_s else 0.0, "1/s"),
        "sampler.points": (points, "count"),
        "sampler.full_s": (full_s, "s"),
        "sampler.s_per_point": (full_s / points if points else 0.0, "s"),
        "sampler.radii": (radii, "count"),
        "sampler.radial_s": (radial_s, "s"),
        "sampler.s_per_radius": (radial_s / radii if radii else 0.0, "s"),
        "cli.self_s": (sum(cli_self), "s"),
        "cli.bytes_out": (sum(r.bytes_out for r in results), "bytes"),
        "cli.busy_over_wall": (busy / wall if wall else 0.0, "ratio"),
    }


def gamma_calls_match(tracer: Tracer, results: list[Result]) -> str:
    """How many answered prob ops made exactly 2N + 3 N_c gamma calls."""
    counts = SpanTable(tracer.spans).per_op_count(*TRACED["gamma"][1])
    probs = [(i, r.op) for i, r in enumerate(results) if r.op.kind == "prob" and not r.failed]
    hits = sum(counts.get(i, 0) == 2 * op.N + 3 * op.N_c for i, op in probs)
    return f"{hits} of {len(probs)}"


def run(args, cli, tmp: Path, started: float) -> tuple[dict, dict, list]:
    w0 = time.perf_counter()
    warm = [execute(cli, op, -1 - i, tmp) for i, op in enumerate(warmup_ops(args.workload))]
    warmup_s = time.perf_counter() - w0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    results: list[Result] = []
    # Set-up samples are spread over the run, one at the start of the block
    # that follows each SETUP_SAMPLES-th part of --seconds, rather than taken
    # in one burst: the machine's speed swings within seconds, and a burst
    # measures one moment of it.  They are not op time and do not count
    # against --seconds.
    setup_samples: list[float] = []
    n_blocks = 0
    t0 = time.perf_counter()
    deadline = started + HARD_LIMIT_S

    def op_clock() -> float:
        return time.perf_counter() - t0 - sum(setup_samples)

    for block in blocks(args.workload, args.seed):
        if len(setup_samples) < SETUP_SAMPLES and op_clock() >= len(setup_samples) * args.seconds / SETUP_SAMPLES:
            setup_samples.append(measure_setup(len(setup_samples)))
        for j, op in enumerate(block):
            if results and time.perf_counter() >= deadline:
                break
            # the CPU of each block position changes from block to block, so
            # every op kind of a block layout runs on every CPU
            pin(n_blocks + j)
            results.append(execute(cli, op, len(results), tmp, tracer))
        else:
            n_blocks += 1
        if time.perf_counter() >= deadline or (op_clock() >= args.seconds and len(results) >= MIN_OPS):
            break
    timed_wall = time.perf_counter() - t0
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(len(setup_samples)))
    if tracer is not None:
        tracer.uninstall()

    failed = sum(r.failed for r in results)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_alternated": CPUS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ops": len(results),
        "blocks": n_blocks,
        "failed": failed,
        "refused": sum(r.rc == EXIT_NUMERIC for r in results),
        "error_rate": failed / len(results),
        "check_failures": sum(bool(r.problems) for r in results),
        "timed_wall_s": timed_wall,
        "time_in_ops_s": sum(r.latency for r in results),
        "warmup_s": warmup_s,
        "warmup_failed": sum(r.failed for r in warm),
        "setup_samples_s": setup_samples,
        "src_lines": src_lines(),
    }
    if tracer is not None:
        metrics = per_layer(tracer, results)
        context["gamma_calls_2N_plus_3Nc"] = gamma_calls_match(tracer, results)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        context["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(results, setup_samples)
    result = {
        "correct": not any(r.incorrect for r in warm + results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return context, result, results


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse_args(argv)
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no package sources at {PACKAGE_DIR}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ginibre_overcrowding import cli

    tmp = TMP_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        context, result, results = run(args, cli, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "context": context,
        "result": result,
        "ops": [
            {
                "argv": list(r.op.argv),
                "latency_s": r.latency,
                "cpu_s": r.cpu,
                "rc": r.rc,
                "bytes_out": r.bytes_out,
                "digest": r.digest,
                "problems": r.problems,
            }
            for r in results
        ],
    }, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Trace overhead of one workload: a traced and an untraced run on the same seed.

    python3 bench/overhead.py --workload sample_draws --seed 1 --seconds 24

Runs ``run.py`` with ``--trace 0`` and then ``--trace 1``, both from the
same seed and hence with the same op stream, and prints one JSON line with
the two ``ops_per_s`` figures (time inside ops; the traced one is read from
the run record) and whether every op both runs completed wrote byte-identical
output.  Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT
from workloads import WORKLOADS


def _record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=24)
    args = parser.parse_args(argv)
    plain = _record(args.workload, args.seed, args.seconds, 0)
    traced = _record(args.workload, args.seed, args.seconds, 1)
    rates = [len(r["ops"]) / sum(op["latency_s"] for op in r["ops"]) for r in (plain, traced)]
    pairs = list(zip(plain["ops"], traced["ops"]))
    identical = all(a["argv"] == b["argv"] and a["digest"] == b["digest"] for a, b in pairs)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_s_untraced": rates[0],
        "ops_per_s_traced": rates[1],
        "trace_overhead": rates[0] / rates[1] - 1.0,
        "ops_compared": len(pairs),
        "outputs_identical": identical,
    }))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for benchmark ops, independent of the code path being timed.

Each check returns a list of problems; an empty list means the output is
correct.  The checks parse what the CLI wrote (stdout or files) and test it
against properties that hold whatever the implementation: finiteness, the
factor identities of the prob report, Hermitian symmetry of kernel grids,
point counts on each side of radius R.  Only the sample check calls into the
package, to reload files through the package's own readers, which is the
round trip a user of those files relies on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import Op

ORACLE_REL_ERR = 1e-10
FACTOR_REL_TOL = 1e-12
HERMITIAN_REL_TOL = 1e-10

_PROB_FIELDS = (
    "log_prob_exact",
    "log_prob_asymptotic",
    "exact_over_asymptotic",
    "log_hole_factor",
    "log_partition_series_factor",
    "log_hole_factor_rescaled",
)
_GRID_HEADER = ["z_re", "z_im", "w_re", "w_im", "K_re", "K_im"]
_COMPARE_HEADER = ["z_re", "z_im", "a_re", "a_im", "b_re", "b_im", "diff_abs"]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_prob(op: Op, stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    missing = [k for k in ("N", "c", "R", "N_c") + _PROB_FIELDS if k not in report]
    if missing:
        return [f"missing fields {missing}"]
    problems = []
    if (report["N"], report["c"], report["R"], report["N_c"]) != (op.N, op.c, op.R, op.N_c):
        problems.append("echoed parameters differ from the request")
    values = {k: report[k] for k in _PROB_FIELDS}
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()):
        return problems + [f"non-finite values {values}"]
    if values["log_prob_exact"] > 0.0:
        problems.append(f"log_prob_exact = {values['log_prob_exact']} > 0")
    if values["log_partition_series_factor"] < 0.0:
        problems.append("the partition series sum is below 1")
    parts = values["log_hole_factor"] + values["log_partition_series_factor"]
    if not _close(values["log_prob_asymptotic"], parts, FACTOR_REL_TOL):
        problems.append(
            f"log_prob_asymptotic {values['log_prob_asymptotic']!r} != hole + series {parts!r}"
        )
    ratio = math.exp(values["log_prob_exact"] - values["log_prob_asymptotic"])
    if not _close(values["exact_over_asymptotic"], ratio, FACTOR_REL_TOL):
        problems.append("exact_over_asymptotic disagrees with the two logs")
    if op.oracle:
        err = report.get("enumeration_rel_err")
        if not isinstance(err, (int, float)) or not err <= ORACLE_REL_ERR:
            problems.append(f"enumeration_rel_err = {err!r} exceeds {ORACLE_REL_ERR}")
    return problems


def _grid_points(op: Op) -> list[complex]:
    g = op.grid
    return [complex(a, b) for a in np.linspace(g.re0, g.re1, g.n) for b in np.linspace(g.im0, g.im1, g.m)]


def _read_rows(stdout: str, header: list[str]) -> "tuple[list[list[float]], str | None]":
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        return [], f"header is {rows[0] if rows else None!r}, expected {header}"
    try:
        return [[float(v) for v in row] for row in rows[1:]], None
    except ValueError as exc:
        return [], f"unparsable row: {exc}"


def check_kernel(op: Op, stdout: str) -> list[str]:
    """Product grid: P^2 rows, Hermitian, with a real nonnegative diagonal."""
    rows, error = _read_rows(stdout, _GRID_HEADER)
    if error:
        return [error]
    points = _grid_points(op)
    P = len(points)
    if len(rows) != P * P:
        return [f"{len(rows)} rows, expected {P * P}"]
    K = np.empty((P, P), dtype=complex)
    problems = []
    for idx, (z_re, z_im, w_re, w_im, k_re, k_im) in enumerate(rows):
        i, j = divmod(idx, P)
        if abs(complex(z_re, z_im) - points[i]) > 1e-12 or abs(complex(w_re, w_im) - points[j]) > 1e-12:
            problems.append(f"row {idx} is not at grid point pair ({i}, {j})")
            break
        K[i, j] = complex(k_re, k_im)
    if not np.all(np.isfinite(K)):
        return problems + ["non-finite kernel values"]
    scale = float(np.max(np.abs(K)))
    if scale == 0.0:
        return problems + ["kernel is identically zero on its support"]
    tol = HERMITIAN_REL_TOL * scale
    defect = float(np.max(np.abs(K - K.conj().T)))
    if defect > tol:
        problems.append(f"Hermitian defect {defect!r} exceeds {tol!r}")
    diag = np.diag(K)
    if float(np.max(np.abs(diag.imag))) > tol or float(np.min(diag.real)) < -tol:
        problems.append("diagonal is not real and nonnegative")
    return problems


def check_compare(op: Op, stdout: str, stderr: str) -> list[str]:
    """Diagonal comparison: one row per grid point, consistent diffs and sup."""
    rows, error = _read_rows(stdout, _COMPARE_HEADER)
    if error:
        return [error]
    points = _grid_points(op)
    if len(rows) != len(points):
        return [f"{len(rows)} rows, expected {len(points)}"]
    problems = []
    diffs = []
    for (z_re, z_im, a_re, a_im, b_re, b_im, diff), z in zip(rows, points):
        a, b = complex(a_re, a_im), complex(b_re, b_im)
        if abs(complex(z_re, z_im) - z) > 1e-12:
            return ["rows are not at the grid points"]
        if not all(map(math.isfinite, (a_re, a_im, b_re, b_im, diff))):
            return ["non-finite values"]
        scale = max(abs(a), abs(b))
        if scale == 0.0 or abs(a.imag) > HERMITIAN_REL_TOL * scale or abs(b.imag) > HERMITIAN_REL_TOL * scale:
            problems.append(f"diagonal values at z={z} are zero or not real")
        elif a.real < 0.0 or b.real < 0.0:
            problems.append(f"negative diagonal value at z={z}")
        if not _close(diff, abs(a - b), FACTOR_REL_TOL):
            problems.append(f"diff_abs at z={z} is not |A-B|")
        diffs.append(diff)
    prefix = "sup |A-B| = "
    sup_lines = [line for line in stderr.splitlines() if line.startswith(prefix)]
    if len(sup_lines) != 1:
        problems.append("stderr does not report the sup exactly once")
    elif float(sup_lines[0][len(prefix):].split(" at ")[0]) != max(diffs):
        problems.append("reported sup is not the largest diff_abs")
    return problems


def _check_configuration(op: Op, config) -> list[str]:
    outside = sum(1 for z in config.points if abs(z) > op.R)
    problems = []
    if (config.params.N, config.params.c, config.params.R) != (op.N, op.c, op.R):
        problems.append("file parameters differ from the request")
    if len(config.points) != op.N:
        problems.append(f"{len(config.points)} points, expected N = {op.N}")
    if outside != op.N_c:
        problems.append(f"{outside} points outside R, expected N_c = {op.N_c}")
    return problems


def _check_radii(op: Op, radii: list, meta: dict) -> list[str]:
    problems = []
    members = meta.get("index_set", [])
    if len(members) != op.N_c or members != sorted(set(members)) or not all(0 <= k < op.N for k in members):
        problems.append("index set is not N_c increasing indices below N")
    if meta.get("params") != {"N": op.N, "c": op.c, "R": op.R}:
        problems.append("file parameters differ from the request")
    if len(radii) != op.N_c:
        problems.append(f"{len(radii)} radii, expected N_c = {op.N_c}")
    if not all(math.isfinite(r) and r > op.R for r in radii):
        problems.append("a radius is not finite or not above R")
    return problems


def check_sample(op: Op, stdout: str, prefix: Path, cli) -> list[str]:
    """Every replica file reloads through the package readers and has the right counts.

    ``cli`` is the imported ``ginibre_overcrowding.cli`` module.
    """
    from ginibre_overcrowding.sampler import PointConfiguration

    paths = [Path(f"{prefix}-{i:04d}.{op.fmt}") for i in range(op.replicas)]
    if stdout.split() != [str(p) for p in paths]:
        return [f"stdout lists {stdout.split()}, expected {[str(p) for p in paths]}"]
    problems = []
    for path in paths:
        try:
            if op.radial and op.fmt == "csv":
                radii, meta = cli.read_radial_csv(path)
            elif op.radial:
                meta = json.loads(path.read_text())
                if meta.get("schema") != "radial-moduli/1":
                    raise ValueError(f"unsupported schema {meta.get('schema')!r}")
                radii = meta["radii"]
            elif op.fmt == "csv":
                config = PointConfiguration.read_csv(path)
            else:
                config = PointConfiguration.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path.name} does not reload: {exc}")
            continue
        if op.radial:
            found = _check_radii(op, radii, meta)
        else:
            found = _check_configuration(op, config)
        problems.extend(f"{path.name}: {p}" for p in found)
    return problems

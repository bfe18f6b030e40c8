"""The benchmark's workloads: CLI arguments made from the seed, and output checks.

Every check takes the output text and the request that produced it, and
returns a list of problems (empty when the output is correct).  Only the
standard library and jsonschema are used, so the benchmark process stays
small next to the msfbm processes whose peak memory it measures.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

COEFFS = (1.0, 1.0)
SIM_HURST = (0.4, 0.8)
DIMS_HURST = (0.3, 0.8)
SIM_POINTS = 2049
DIMS_POINTS = 2 ** 16 + 1
# Acceptance criterion 9: the graph estimate lies within this of 2 - h_min.
GRAPH_WINDOW = 0.15
# The empirical variance of R centred Gaussians is var * chi2_R / R.  Its
# ratio to var is gated on both sides at this tail probability per side.
VARIANCE_TAIL = 1e-5


@dataclass
class Request:
    """One workload instance: the CLI arguments and what the output must show."""

    argv: list[str]
    output: str
    expect: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)  # inputs to write first


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], Request]
    check: Callable[[str, Request], list[str]]


def _flag(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def nonuniform_times(seed: int, n_points: int) -> list[float]:
    """Grid on [0, 1], strictly increasing from 0, dense near the origin.

    Random gaps in [0.5, 1.5) made from ``seed``, normalised to [0, 1] and
    warped by t -> t^1.5, so the grid is far from uniform.
    """
    rng = random.Random(seed)
    cum = list(itertools.accumulate(rng.uniform(0.5, 1.5) for _ in range(n_points - 1)))
    total = cum[-1]
    return [0.0] + [(c / total) ** 1.5 for c in cum]


def sfbm_variance(coeffs, hurst, t: float) -> float:
    """Var S_t = sum a_i^2 (2 - 2^(2H_i - 1)) t^(2H_i), the closed form of msfbm_var."""
    return sum(a * a * (2.0 - 2.0 ** (2.0 * h - 1.0)) * t ** (2.0 * h)
               for a, h in zip(coeffs, hurst))


def chi2_ratio_bounds(dof: int, tail: float = VARIANCE_TAIL) -> tuple[float, float]:
    """Lower and upper ``tail`` quantiles of chi2_dof / dof (Wilson-Hilferty).

    For dof = 16 and 64 both lie within 0.035 of the exact quantiles, on
    the wide side, so the gate rejects a little less often than ``tail``.
    """
    z = NormalDist().inv_cdf(1.0 - tail)
    c = 2.0 / (9.0 * dof)
    return (1.0 - c - z * math.sqrt(c)) ** 3, (1.0 - c + z * math.sqrt(c)) ** 3


def _simulate(seed: int, reps: int, uniform: bool) -> Request:
    argv = ["simulate", "--coeffs", _flag(COEFFS), "--hurst", _flag(SIM_HURST),
            "--reps", str(reps), "--seed", str(seed), "--out", "paths.csv"]
    files = {}
    if uniform:
        times = [k / (SIM_POINTS - 1) for k in range(SIM_POINTS)]
        argv += ["--grid-points", str(SIM_POINTS)]
    else:
        times = nonuniform_times(seed, SIM_POINTS)
        files["grid.json"] = json.dumps({"times": times})
        argv += ["--config", "grid.json"]
    return Request(argv, "paths.csv", {"seed": seed, "reps": reps, "times": times}, files)


def check_simulate(text: str, req: Request) -> list[str]:
    times, reps, seed = req.expect["times"], req.expect["reps"], req.expect["seed"]
    n = len(times)
    lines = text.splitlines()
    meta = {}
    for line in itertools.takewhile(lambda s: s.startswith("# "), lines):
        key, _, value = line[2:].partition(": ")
        meta[key] = value
    body = lines[len(meta):]
    problems = []
    wanted = {"coeffs": _flag(COEFFS), "hurst": _flag(SIM_HURST), "grid_points": str(n),
              "horizon": repr(float(times[-1])), "master_seed": str(seed),
              "n_reps": str(reps)}
    for key, value in wanted.items():
        if meta.get(key) != value:
            problems.append(f"metadata {key} is {meta.get(key)!r}, requested {value!r}")
    if meta.get("sampler") not in ("exact", "fbm", "fgn"):
        problems.append(f"metadata names no sampler: {meta.get('sampler')!r}")
    if not body or body[0] != "replica,t,value":
        return problems + ["missing header replica,t,value"]
    rows = body[1:]
    if len(rows) != reps * n:
        return problems + [f"{len(rows)} rows, expected n_reps * n_points = {reps * n}"]
    paths = []
    for r in range(reps):
        values = []
        for k, row in enumerate(rows[r * n:(r + 1) * n]):
            try:
                replica, t, v = row.split(",")
                replica, t, v = int(replica), float(t), float(v)
            except ValueError:
                return problems + [f"malformed row {row!r}"]
            if replica != r or abs(t - times[k]) > 1e-12:
                return problems + [f"row {row!r} is not replica {r} at t = {times[k]!r}"]
            if not math.isfinite(v):
                return problems + [f"non-finite value in row {row!r}"]
            values.append(v)
        if values[0] != 0.0:
            problems.append(f"replica {r} starts at {values[0]!r}, not 0")
        paths.append(values)
    low, high = chi2_ratio_bounds(reps)
    for k in (n // 4, n // 2, 3 * n // 4, n - 1):
        var = sfbm_variance(COEFFS, SIM_HURST, times[k])
        emp = sum(p[k] * p[k] for p in paths) / reps
        if not low <= emp / var <= high:
            problems.append(f"variance at t = {times[k]!r} is {emp!r}, expected {var!r} "
                            f"(ratio {emp / var:.3f} outside [{low:.3f}, {high:.3f}])")
    return problems


def _dims(seed: int) -> Request:
    argv = ["dims", "--coeffs", _flag(COEFFS), "--hurst", _flag(DIMS_HURST),
            "--seed", str(seed), "--out", "dims.json"]
    return Request(argv, "dims.json", {"seed": seed})


def check_dims(text: str, req: Request, schema_dir: Path) -> list[str]:
    import jsonschema

    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    schema = json.loads((schema_dir / "dims.v1.json").read_text())
    errors = [f"schema: {e.message}" for e in jsonschema.Draft7Validator(schema).iter_errors(report)]
    if errors:
        return errors
    problems = []
    if report["master_seed"] != req.expect["seed"] or report["grid_points"] != DIMS_POINTS:
        problems.append("seed or grid size differs from the request")
    target = 2.0 - min(DIMS_HURST)
    graph = report["graph"]["value"]
    if abs(graph - target) > GRAPH_WINDOW:
        problems.append(f"graph dimension {graph!r} is not within {GRAPH_WINDOW} of {target!r}")
    return problems


def _verify(seed: int) -> Request:
    return Request(["verify", "--seed", str(seed), "--out", "verify.json"], "verify.json",
                   {"seed": seed})


def check_verify(text: str, req: Request) -> list[str]:
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    problems = []
    if report.get("format") != "msfbm.verify" or report.get("master_seed") != req.expect["seed"]:
        problems.append("format or master_seed differs from the request")
    if report.get("all_passed") is not True:
        failed = [c["name"] for s in report.get("suites", []) for c in s["checks"] if not c["passed"]]
        problems.append(f"all_passed is not true; failed checks: {failed}")
    return problems


def workloads(schema_dir: Path) -> dict[str, Workload]:
    """The workloads by name; ``schema_dir`` holds msfbm's JSON schemas."""
    return {w.name: w for w in (
        Workload("simulate-uniform",
                 "2049-point uniform grid, 64 reps: the one a router, gather or circulant change moves",
                 lambda seed: _simulate(seed, 64, uniform=True), check_simulate),
        Workload("simulate-nonuniform",
                 "2049-point non-uniform grid, 16 reps: dense Gram and Cholesky under any router",
                 lambda seed: _simulate(seed, 16, uniform=False), check_simulate),
        Workload("dims",
                 "2^16+1-point fGn paths and box counting: FFT, normal draws and estimators",
                 _dims, lambda text, req: check_dims(text, req, schema_dir)),
        Workload("verify",
                 "all verify suites at 3000 reps: scalar kernels and many tiny sampler paths",
                 _verify, check_verify),
    )}

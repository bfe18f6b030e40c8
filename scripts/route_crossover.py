#!/usr/bin/env python3
"""Measure where circulant embedding overtakes the dense exact sampler.

For uniform grids of {129, 257, 513, 1025, 2049, 4097} points, {1, 64,
3000} replicas and K in {1, 2} active components, prints the best-of-k CPU
time of ``sample_ensemble`` with sampler "exact" and with sampler "fgn",
and the route that "auto" picks.  A row is marked "slower" when the
picked route measured slower than the other one.

It then fits the per-replica constant F0 of the routing estimate
R*(F0 + 2.5*N*log2(N)) (the ``_FGN_DRAW_OPS`` constant in
``msfbm.sampler``).  On each row of at least FIT_STEPS grid steps where the
slower route took at most NEAR times as long as the faster one, it solves
for the F0 at which the ratio of the two estimates equals the ratio of the
measured times, and prints the median.  Rows farther apart fix no
crossover: any F0 in a wide range routes them right.  Numpy and BLAS run
single-threaded, so CPU time is run time.

Usage: python3 scripts/route_crossover.py [--repeat 3] [--points 129,257]
Takes about ten minutes at the default sizes and 3 repeats.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import math
import platform
import statistics
import sys
import time

import numpy as np

from msfbm import ProcessSpec, TimeGrid, sample_ensemble
from msfbm.sampler import _FGN_DRAW_OPS, _route, _route_ops

NEAR = 3.0
# Fewest grid steps of a row that enters the fit of F0: the rows the F0 in use
# was fitted on.
FIT_STEPS = 256
SPECS = {1: ProcessSpec((1.0,), (0.4,)), 2: ProcessSpec((1.0, 1.0), (0.4, 0.8))}


def _fingerprint() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas.get('name')} {blas.get('version')}, {os.cpu_count()} cpus, {cpu}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def _best_cpu_s(spec: ProcessSpec, grid: TimeGrid, reps: int, sampler: str, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.process_time()
        sample_ensemble(spec, grid, reps, 1, sampler=sampler)
        best = min(best, time.process_time() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=3, help="runs per cell; the best is kept")
    ap.add_argument("--points", default="129,257,513,1025,2049,4097")
    ap.add_argument("--reps", default="1,64,3000")
    args = ap.parse_args()

    print(f"# {_fingerprint()}, best of {args.repeat}, F0 in use {_FGN_DRAW_OPS:.3g}")
    print("| points | reps | K | exact ms | fgn ms | auto picks | |")
    print("|---:|---:|---:|---:|---:|---|---|")
    fits = []
    for n_points in (int(v) for v in args.points.split(",")):
        grid = TimeGrid.uniform(n_points, 1.0)
        m = n_points - 1
        for reps in (int(v) for v in args.reps.split(",")):
            for k, spec in SPECS.items():
                exact = _best_cpu_s(spec, grid, reps, "exact", args.repeat)
                fgn = _best_cpu_s(spec, grid, reps, "fgn", args.repeat)
                pick = _route(grid, reps, "auto")
                slower = (pick == "fgn") != (fgn < exact)
                print(f"| {n_points} | {reps} | {k} | {exact * 1e3:.1f} | {fgn * 1e3:.1f} "
                      f"| {pick} | {'slower' if slower else ''} |", flush=True)
                if m >= FIT_STEPS and max(exact, fgn) <= NEAR * min(exact, fgn):
                    # fgn estimate / dense estimate = fgn / exact, solved for F0 in
                    # reps * (F0 + transform_ops) = dense_ops * fgn / exact.
                    dense_ops = _route_ops("exact", m, reps)
                    transform_ops = _route_ops("fgn", m, 1) - _FGN_DRAW_OPS
                    fits.append(dense_ops * fgn / exact / reps - transform_ops)
    if fits:
        print(f"# fitted F0 (median over {len(fits)} rows with at least {FIT_STEPS} steps "
              f"and times within {NEAR:g}x): {statistics.median(fits):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

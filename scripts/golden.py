#!/usr/bin/env python3
"""Golden output digests: the byte-identity contract, checked by a machine.

``tests/golden.json`` holds, for each command of a fixed matrix, the
SHA-256 of its stdout, its exit code and its stderr.  The digests are keyed
by numpy major.minor, because every realization depends on numpy's normal
draws.  They also depend on the CPU, which the key does not name: numpy's
SIMD loops for exp, log and power, and the OpenBLAS core for dpftrf, dtrmv
and dgemv, move results at ulp level (README, "Determinism").
``tests/test_golden.py`` recomputes them in-process.

A change that moves a digest regenerates it in the same change and says
which commands moved and why.

Usage: PYTHONPATH=src python3 scripts/golden.py [--write]
Prints each command whose output differs from its recorded digest, labelled
"moved:", and each command with no recorded digest, labelled "new:", and
exits 1 if there are any; --write records this numpy's digests in the file
instead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from msfbm import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden.json"

_SPEC = ["--coeffs", "1,1", "--hurst", "0.4,0.8"]
_UNIFORM = ["simulate", *_SPEC, "--grid-points", "9", "--reps", "3", "--seed", "7"]
_NON_UNIFORM = ["simulate", *_SPEC, "--times", "0,0.1,0.35,0.6,1.2", "--reps", "4"]

_DIMS_REFUSAL = ["dims", "--hurst", "0.5", "--grid-points", str(2 ** 14 + 1)]

# Every simulate route on uniform and non-uniform grids in both formats, auto
# on both sides of the exact/fgn crossover, verify at two seeds, dims, both cov
# tables, srd in both formats, classify, every help text, and refusals for each
# refusing exit code.
COMMANDS = {
    "simulate-exact-csv": [*_UNIFORM, "--sampler", "exact"],
    "simulate-fbm-csv": [*_UNIFORM, "--sampler", "fbm"],
    "simulate-fgn-json": [*_UNIFORM, "--sampler", "fgn", "--format", "json"],
    "simulate-nonuniform-auto-json": [*_NON_UNIFORM, "--format", "json"],
    "simulate-nonuniform-fbm-csv": [*_NON_UNIFORM, "--sampler", "fbm"],
    "simulate-auto-129x1-csv": ["simulate", *_SPEC, "--grid-points", "129"],
    "simulate-auto-2049x2-csv": ["simulate", *_SPEC, "--grid-points", "2049", "--reps", "2"],
    "verify-seed0": ["verify"],
    "verify-seed5": ["verify", "--seed", "5"],
    "dims-seed5": ["dims", "--coeffs", "1,1", "--hurst", "0.3,0.8", "--seed", "5"],
    "cov-points-csv": ["cov", *_SPEC, "--points", "0,0.25,1,2.5"],
    "cov-window-json": ["cov", *_SPEC, "--window", "0.1,0.4,0.6,1.2", "--format", "json"],
    "srd-csv": ["srd", *_SPEC],
    "srd-json": ["srd", *_SPEC, "--n-max", "50", "--format", "json"],
    "classify": ["classify", *_SPEC],
    "help": ["--help"],
    "cov-help": ["cov", "--help"],
    "simulate-help": ["simulate", "--help"],
    "verify-help": ["verify", "--help"],
    "dims-help": ["dims", "--help"],
    "classify-help": ["classify", "--help"],
    "srd-help": ["srd", "--help"],
    "refuse-exact-over-budget": ["simulate", "--hurst", "0.5", "--sampler", "exact",
                                 "--grid-points", "40000"],
    "refuse-overflow": ["simulate", "--hurst", "0.9", "--horizon", "1e300"],
    "refuse-dims-eps-nan": [*_DIMS_REFUSAL, "--eps=nan"],
    "refuse-dims-level-reps-0": [*_DIMS_REFUSAL, "--level-reps=0"],
    "refuse-seed-negative": ["simulate", "--hurst", "0.5", "--seed=-1"],
    "refuse-verify-reps-0": ["verify", "--reps=0"],
    "refuse-verify-selfsim-spec": ["verify", "--suite", "selfsim", "--hurst", "0.3"],
    "refuse-verify-srd-reps": ["verify", "--suite", "srd", "--reps", "7"],
    "refuse-simulate-times-grid-points": ["simulate", "--hurst", "0.5", "--times", "0,0.5,1",
                                          "--grid-points", "9"],
}


def numpy_key() -> str:
    return ".".join(np.__version__.split(".")[:2])


def digest(argv: list[str], threads: str = "1") -> dict:
    """Exit code, stdout SHA-256 and stderr of ``msfbm argv`` run in-process
    with ``MSFBM_THREADS=threads`` and an 80-column terminal."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", "MSFBM_THREADS": threads}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help="record this numpy's digests")
    args = ap.parse_args(argv)
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    now = {name: digest(cmd) for name, cmd in COMMANDS.items()}
    if args.write:
        recorded[numpy_key()] = now
        GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(now)} digests for numpy {numpy_key()} to {GOLDEN}")
        return 0
    if numpy_key() not in recorded:
        print(f"no digests recorded for numpy {numpy_key()}; run with --write")
        return 1
    digests = recorded[numpy_key()]
    differ = [name for name in COMMANDS if digests.get(name) != now[name]]
    for name in differ:
        label = "moved" if name in digests else "new"
        print(f"{label}: {name}: msfbm {' '.join(COMMANDS[name])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

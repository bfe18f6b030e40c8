#!/usr/bin/env python3
"""Trace how fast the lagged increment covariance forgets its base point.

C(x, n) approaches the stationary comparator value R(0, n) as x grows;
the scan emits (x, gap) rows on a log grid plus the fitted log-log slope,
which should sit near 2*(h_max - 1).

Usage: python3 scripts/stationarity_gap_scan.py --hurst 0.75 [--n 1]
"""

import argparse
import sys

import numpy as np

from msfbm import ProcessSpec
from msfbm.analysis import _loglog_fit
from msfbm.kernels import stationarity_gap


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coeffs", default="1")
    ap.add_argument("--hurst", default="0.75")
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--x-min", type=float, default=1e3)
    ap.add_argument("--x-max", type=float, default=1e5)
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = ProcessSpec([float(a) for a in args.coeffs.split(",")],
                       [float(h) for h in args.hurst.split(",")])
    xs = np.unique(np.round(np.logspace(np.log10(args.x_min), np.log10(args.x_max),
                                        args.points)))
    gaps = np.array([stationarity_gap(spec, float(x), args.n) for x in xs])
    slope, _ = _loglog_fit(xs, np.abs(gaps))
    print(f"fitted slope {slope:+.4f} (theory {2 * (spec.h_max - 1):+.2f})",
          file=sys.stderr)

    lines = ["x,gap"]
    lines += [f"{float(x)!r},{float(g)!r}" for x, g in zip(xs, gaps)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

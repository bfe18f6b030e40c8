import os
from pathlib import Path

import numpy as np
import pytest

import msfbm
from msfbm import IncrementWindow, ProcessSpec


def scaled_close(lhs, rhs, scale, rtol=1e-12):
    """Closeness relative to the natural magnitude of the computation.

    Cancellation-prone identities are meaningful relative to the size of
    the summands (``scale``), not to a result that may itself vanish.
    """
    return abs(lhs - rhs) <= rtol * max(abs(lhs), abs(rhs), scale)


def package_env():
    """Environment for a child interpreter that imports this checkout of msfbm."""
    src = str(Path(msfbm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def rand_spec(rng, h_lo=0.05, h_hi=0.95, a_max=10.0, n_max=4):
    n = int(rng.integers(1, n_max + 1))
    coeffs = rng.uniform(-a_max, a_max, n)
    if np.all(coeffs == 0.0):
        coeffs[0] = 1.0
    return ProcessSpec(coeffs, rng.uniform(h_lo, h_hi, n))


def rand_window(rng, tmax=10.0, touch_prob=0.2):
    while True:
        pts = np.sort(rng.uniform(0.0, tmax, 4))
        if pts[0] < pts[1] and pts[1] < pts[2] and pts[2] < pts[3]:
            if rng.random() < touch_prob:
                pts[2] = pts[1]
            return IncrementWindow(*pts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

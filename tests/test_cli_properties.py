"""CLI properties: every flag and --config value ends in an answer or a one-line refusal.

Also the single lag series of ``msfbm srd`` and the numerical-failure exit of
covariances that overflow a double.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msfbm import analysis, cli, kernels

from conftest import package_env

_SUBPARSERS = cli.build_parser()._subparsers._group_actions[0].choices

# Small integers keep every grid, replica count and lag range cheap.
_SMALL_INTS = st.integers(min_value=-3, max_value=40)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_NUMERIC_TEXT = st.text(alphabet="0123456789.,-+einfa ", max_size=14)
_NON_STRING_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    _SMALL_INTS,
    _FLOATS,
    st.lists(st.one_of(_SMALL_INTS, _FLOATS, st.booleans(), st.none()), max_size=5),
)
_JSON_VALUES = st.one_of(_NON_STRING_JSON_VALUES, _NUMERIC_TEXT, st.text(max_size=6))


def _unit(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _float_list(element, min_size=1, max_size=3):
    return st.lists(element, min_size=min_size, max_size=max_size)


# Values a user would plausibly give, so that examples also reach the commands' work.
_PLAUSIBLE = {
    "hurst": _float_list(_unit(0.01, 0.99), max_size=2),
    "coeffs": _float_list(st.one_of(_unit(-3.0, 3.0), st.sampled_from([0.0, 1e-300, -1e300])),
                          max_size=2),
    "times": _float_list(_unit(1e-3, 2.0), max_size=6).map(
        lambda steps: [0.0] + [sum(steps[:k + 1]) for k in range(len(steps))]),
    "points": _float_list(_unit(0.0, 5.0)),
    "window": _float_list(_unit(0.0, 5.0), 4, 4).map(sorted),
    "grid_points": st.integers(2, 40),
    "reps": st.integers(1, 5),
    "level_reps": st.integers(1, 5),
    "seed": st.integers(0, 2 ** 40),
    "n_max": st.integers(10, 40),
    "p": st.integers(0, 5),
    "horizon": st.one_of(_unit(1e-3, 1e3), st.sampled_from([1e-300, 1e300, 1e308])),
    "level": _unit(-1.0, 1.0),
    "eps": _unit(0.0, 1.0),
    "half_tol": _unit(0.0, 0.5),
}
# The cheap suites: neither draws Monte Carlo replicas.
_CHEAP_SUITES = ("srd", "markov")


def _options(command):
    """Each option of ``command`` that a flag or a config key may set, by dest."""
    return {a.dest: a for a in _SUBPARSERS[command]._actions
            if a.dest not in ("help", "config")}


def _config_value(action, out_path):
    if action.dest == "out":
        # Output goes to one scratch file; a drawn string is a path that could land
        # anywhere, and a non-string is refused as one.
        return st.one_of(st.just(out_path), _NON_STRING_JSON_VALUES)
    if action.choices is not None:
        return st.one_of(st.sampled_from(list(action.choices)), _JSON_VALUES)
    return st.one_of(_PLAUSIBLE[action.dest], _JSON_VALUES)


def _flag_value(action):
    """Flag text argparse accepts, so that what is checked is the program's answer."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    plausible = _PLAUSIBLE[action.dest].map(
        lambda v: ",".join(map(repr, v)) if isinstance(v, list) else repr(v))
    if action.type is int:
        return st.one_of(plausible, _SMALL_INTS.map(str))
    if action.type is float:
        return st.one_of(plausible, _FLOATS.map(repr), st.sampled_from(["nan", "-inf", "0"]))
    return st.one_of(plausible, _NUMERIC_TEXT)


@st.composite
def _invocation(draw, command, out_path):
    """(argv, config) for ``command``: some options as flags, some as config values."""
    options = _options(command)
    names = sorted(options)
    config, argv = {}, [command]
    for dest in draw(st.lists(st.sampled_from(names), unique=True, max_size=6)):
        config[dest] = draw(_config_value(options[dest], out_path))
    flags = draw(st.lists(st.sampled_from([n for n in names if n != "out"]), unique=True,
                          max_size=4))
    if command != "verify" and draw(st.sampled_from([True] * 4 + [False])):
        flags.append("hurst")  # most examples name a process
    for dest in dict.fromkeys(flags):
        argv.append(f"{options[dest].option_strings[0]}={draw(_flag_value(options[dest]))}")
    if command == "dims":
        # Graph box counting needs 2^14 points; below that dims refuses.
        argv.append(f"--grid-points={draw(st.sampled_from([3, 1025, 2 ** 14 + 1]))}")
    if command == "verify":
        argv.append(f"--suite={draw(st.sampled_from(_CHEAP_SUITES))}")
    return argv, config


def _run(argv, config, config_path):
    """``cli.main(argv)`` in-process with warnings as errors: (exit code, stdout, stderr)."""
    if config is not None:
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        argv = [*argv, "--config", config_path]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield tmp


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_flag_and_config_value_ends_in_an_answer_or_one_line(
        command, data, scratch, monkeypatch):
    monkeypatch.delenv("MSFBM_THREADS", raising=False)
    argv, config = data.draw(_invocation(command, os.path.join(scratch, "out.txt")))
    use_config = data.draw(st.booleans()) or not config
    rc, out, err = _run(argv, config if use_config else None,
                        os.path.join(scratch, "config.json"))
    assert rc in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_VALIDATION,
                  cli.EXIT_NUMERICAL), (rc, err)
    if rc in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
        # Exit 1 is verify's verdict, with its report.  Drawn specs can fail a
        # check: the Markov suite's proof triple when the departure from H = 1/2
        # has a small weight (--hurst 0.5,0.51 --coeffs 1,0.001), and the srd
        # suite's slope when H lies within about 1e-7 of 1/2, where rounding
        # swamps the lag covariances at lag 1e5 (--hurst 0.5000001).
        assert err == "" and (rc == cli.EXIT_OK or command == "verify")
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].strip(), err
        assert "Traceback" not in err


def test_srd_evaluates_its_lag_series_once(monkeypatch, capsys):
    calls = []
    original = kernels.lag_cov_series

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "lag_cov_series", counted)
    monkeypatch.setattr(kernels, "lag_cov_series", counted)
    for fmt in ("csv", "json"):
        calls.clear()
        assert cli.main(["srd", "--hurst", "0.7", "--n-max", "20", "--format", fmt]) == 0
        assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--hurst", "0.5", "--grid-points", "3", "--horizon", "1e308"],
    ["--hurst", "0.9", "--horizon", "1e300", "--sampler", "exact"],
    ["--hurst", "0.9", "--horizon", "1e300", "--sampler", "fbm"],
    ["--hurst", "0.9", "--horizon", "1e300", "--sampler", "fgn"],
])
def test_overflowing_covariances_are_a_numerical_failure(argv):
    cp = subprocess.run([sys.executable, "-m", "msfbm", "simulate", *argv],
                        capture_output=True, text=True, env=package_env())
    assert cp.returncode == cli.EXIT_NUMERICAL and cp.stdout == ""
    lines = cp.stderr.splitlines()
    assert len(lines) == 1, cp.stderr
    assert lines[0].startswith("numerical failure: ") and "overflow" in lines[0]

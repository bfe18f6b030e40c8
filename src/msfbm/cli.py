"""Command-line front end: kernels, simulation, verification, dimensions, classification.

Exit codes: 0 success, 1 verification failure, 2 input validation,
3 numerical failure.  All output is byte-deterministic for a given
configuration; MSFBM_THREADS caps replica-level parallelism without
affecting any output byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import analysis, kernels, verify
from .classify import increment_sign_predict, markov_verdict, semimartingale_classify
from .process import IncrementWindow, ProcessSpec
from .sampler import FactorizationFailure, TimeGrid, _Draw, sample_ensemble
from .seeds import derive_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_MAX_THREADS = 64  # a draw's plan starts fewer where their buffers would not fit (sampler._plan)

# Options that take comma-separated floats; a config file may also give them as
# a JSON list of numbers.
_FLOAT_LIST_KEYS = frozenset({"coeffs", "hurst", "times", "points", "window"})


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv(rows: list[str], header: list[str], meta: Optional[dict] = None) -> str:
    """CSV text from rows already formatted as comma-joined strings."""
    lines = []
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
    lines.append(",".join(header))
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_chunks(obj: dict, key: str, rows: Iterable[list]) -> Iterator[str]:
    """``_json_text`` of ``obj`` with ``obj[key]`` the list of float lists ``rows``,
    yielded one row at a time so that the whole text is never held."""
    head, tail = _json_text({**obj, key: None}).split(f'"{key}": null')
    yield f'{head}"{key}": ['
    for i, row in enumerate(rows):
        items = json.dumps(row)[1:-1].replace(", ", ",\n      ")
        yield f"{',' if i else ''}\n    [\n      {items}\n    ]"
    yield "\n  ]" + tail


def _emit(text: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write ``text``, or its chunks in turn, to the file ``out`` or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write output file {out!r}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early (``| head``): drop the rest quietly, and point
            # stdout at /dev/null so the interpreter's final flush cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _floats(text, key: str) -> list[float]:
    """The finite floats of option ``key``: a comma-separated string or a list."""
    try:
        if isinstance(text, (list, tuple)):
            values = [float(v) for v in text]
        else:
            values = [float(tok) for tok in str(text).split(",") if tok != ""]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"could not parse float list {text!r}") from exc
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"--{key} values must be finite, got {v!r}")
    return values


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(key: str, value, action: argparse.Action) -> None:
    """Hold a config value to its flag's ``choices`` and integer, float or string type."""
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config key {key!r} must be one of {', '.join(map(repr, action.choices))}, "
            f"got {value!r}"
        )
    if action.type is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    if action.type is float and not _is_number(value):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    if action.type is None and action.choices is None:
        if key in _FLOAT_LIST_KEYS:
            if not (isinstance(value, str)
                    or isinstance(value, list) and all(map(_is_number, value))):
                raise ValueError(
                    f"config key {key!r} must be a string or a list of numbers, got {value!r}"
                )
        elif not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")


def _with_config(parser: argparse.ArgumentParser, argv: Optional[Sequence[str]],
                 args: argparse.Namespace) -> argparse.Namespace:
    """``argv`` parsed again with the ``--config`` file's values as the subcommand's
    defaults: flags take precedence over the file, and the file over built-in defaults."""
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
    if not isinstance(values, dict):
        raise ValueError("config file must hold one JSON object")
    options = {a.dest: a for a in args.subparser._actions}
    known = set(options) - {"help", "config"}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} for "
            f"{args.command}; known keys: {', '.join(sorted(known))}"
        )
    for key, value in values.items():
        _check_config_value(key, value, options[key])
        if options[key].type is float:
            values[key] = float(value)
    args.subparser.set_defaults(**values)
    return parser.parse_args(argv, argparse.Namespace(given=args.given | set(values)))


def _typed(argv: Optional[Sequence[str]]) -> set[str]:
    """The dests of the options ``argv`` types, parsed again with no option defaults."""
    parser = build_parser()
    for p in parser._subparsers._group_actions[0].choices.values():
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _refuse_unread(args: argparse.Namespace, mode: str, unread: Iterable[str]) -> None:
    """Refuse each option of ``unread`` given by a flag or a config key: ``mode`` ignores it."""
    given = [f"--{dest.replace('_', '-')}" for dest in unread if dest in args.given]
    if given:
        raise ValueError(f"{args.command} {mode} does not read {', '.join(given)}")


def _spec(args: argparse.Namespace) -> ProcessSpec:
    if args.hurst is None:
        raise ValueError("a process needs --hurst (and optionally --coeffs; flags or config file)")
    hs = _floats(args.hurst, "hurst")
    weights = [1.0] * len(hs) if args.coeffs is None else _floats(args.coeffs, "coeffs")
    return ProcessSpec(weights, hs)


def _report(kind: str, spec: Optional[ProcessSpec], **fields) -> dict:
    """The JSON report ``msfbm.<kind>``: its versioned envelope, then ``fields``."""
    return {"format": f"msfbm.{kind}", "schema_version": 1,
            "spec": None if spec is None else asdict(spec), **fields}


def _seed(args: argparse.Namespace) -> int:
    """``--seed``, refused by name where the seed derivation refuses it."""
    try:
        derive_seed(args.seed, 0)
    except ValueError:
        raise ValueError(f"--seed must be an integer in [0, 2^64), got {args.seed}") from None
    return args.seed


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")
    return value


def _n_threads() -> int:
    raw = os.environ.get("MSFBM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MSFBM_THREADS must be an integer, got {raw!r}") from None
    if not 1 <= n <= _MAX_THREADS:
        raise ValueError(f"MSFBM_THREADS must lie in [1, {_MAX_THREADS}], got {raw!r}")
    return n


def _cmd_cov(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.window is not None:
        _refuse_unread(args, "--window", ["points"])
        bounds = _floats(args.window, "window")
        if len(bounds) != 4:
            raise ValueError(f"--window needs four values u,v,s,t, got {len(bounds)}")
        w = IncrementWindow(*bounds)
        header = ("u", "v", "s", "t", "cov")
        rows = [(w.u, w.v, w.s, w.t, kernels.increment_cov(spec, w))]
    else:
        if not args.points:
            raise ValueError("cov needs --points or --window")
        pts = _floats(args.points, "points")
        header = ("s", "t", "cov")
        rows = [(s, t, kernels.msfbm_cov(spec, s, t)) for i, s in enumerate(pts) for t in pts[i:]]
    if args.format == "json":
        _emit(_json_text(_report("cov", spec, rows=[dict(zip(header, r)) for r in rows])),
              args.out)
    else:
        _emit(_csv([",".join(map(_fmt, r)) for r in rows], header), args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed, n_reps = _seed(args), _at_least_one("--reps", args.reps)
    spec = _spec(args)
    if args.times is not None:
        _refuse_unread(args, "--times", ["grid_points", "horizon"])
        grid = TimeGrid(_floats(args.times, "times"))
    else:
        grid = TimeGrid.uniform(args.grid_points, args.horizon)
    ens = sample_ensemble(spec, grid, n_reps, seed, sampler=args.sampler,
                          n_threads=_n_threads())
    shared = {"master_seed": ens.master_seed, "n_reps": ens.n_reps, "sampler": ens.sampler,
              "jitter": ens.jitter}
    # One chunk per replica, so the text of the whole ensemble is never held.
    if args.format == "json":
        report = _report("ensemble", spec, grid={"times": list(grid.times)}, **shared)
        _emit(_json_chunks(report, "paths", (row.tolist() for row in ens.values)), args.out)
    else:
        meta = {
            "coeffs": ",".join(map(_fmt, spec.coeffs)),
            "hurst": ",".join(map(_fmt, spec.hurst)),
            "grid_points": grid.n_points,
            "horizon": _fmt(grid.horizon),
            **shared,
        }
        times = [repr(t) for t in grid.times.tolist()]
        rows = ("\n".join([f"{r},{t},{v!r}" for t, v in zip(times, row.tolist())]) + "\n"
                for r, row in enumerate(ens.values))
        _emit(itertools.chain([_csv([], ["replica", "t", "value"], meta)], rows), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    seed, n_reps = _seed(args), _at_least_one("--reps", args.reps)
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    input_of = {"coeffs": "spec", "hurst": "spec", "seed": "seed", "reps": "n_reps"}
    _refuse_unread(args, f"--suite {args.suite}", [
        dest for dest, key in input_of.items() if not any(key in verify.SUITES[n] for n in names)])
    spec = None if args.hurst is None and args.coeffs is None else _spec(args)
    checks = verify.run_suites(names, spec=spec, seed=seed, n_reps=n_reps, n_threads=_n_threads())
    _emit(_json_text(_report("verify", spec, master_seed=seed, **checks)), args.out)
    return EXIT_OK if checks["all_passed"] else EXIT_VERIFY_FAILED


def _cmd_dims(args: argparse.Namespace) -> int:
    spec = _spec(args)
    grid = TimeGrid.uniform(args.grid_points, args.horizon)
    seed, level, eps, level_reps = _seed(args), args.level, args.eps, args.level_reps
    if not math.isfinite(level):
        raise ValueError(f"--level must be finite, got {level!r}")
    if not 0.0 < eps < grid.horizon:
        raise ValueError(f"--eps must lie strictly inside (0, --horizon) = (0, {grid.horizon!r}), "
                         f"got {eps!r}")
    _at_least_one("--level-reps", level_reps)
    h_min = spec.h_min

    # One prepared draw, so one spectrum, read one block at a time: row 0 is the
    # graph path, rows 1.. the level-set paths, one row per worker in each block.
    draw = _Draw(spec, grid, 1 + level_reps, derive_seed(seed, 1), n_threads=_n_threads(),
                 streamed=True)
    graph_ens = draw.block(0, 1)
    (graph,) = analysis.graph_box_dimension(graph_ens)
    (range_est,) = analysis.range_dimension(graph_ens)
    del graph_ens
    level_set = analysis._LevelSet(grid, level, eps)
    found = []
    step = draw.plan.n_workers
    for lo in range(1, 1 + level_reps, step):
        found += map(level_set.estimate, draw.block(lo, min(lo + step, 1 + level_reps)).values)
    level_values = [e.value for e in level_set.crossed(found)]
    level_set = {"level": level, "eps": eps, "values": level_values,
                 "median": float(np.median(level_values)), "n_crossed": len(level_values),
                 "n_paths": level_reps, "target": 1.0 - h_min}
    _emit(_json_text(_report(
        "dims", spec, grid_points=grid.n_points, horizon=grid.horizon, master_seed=seed,
        graph={**asdict(graph), "target": 2.0 - h_min},
        range={**asdict(range_est), "target": 1.0}, level_set=level_set,
    )), args.out)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    half_tol = args.half_tol
    verdict = semimartingale_classify(spec, half_tol=half_tol)
    _emit(_json_text(_report(
        "classify", spec, semimartingale=asdict(verdict),
        markov=markov_verdict(spec, half_tol=half_tol),
        increment_sign=increment_sign_predict(spec, half_tol=half_tol).value,
    )), args.out)
    return EXIT_OK


def _cmd_srd(args: argparse.Namespace) -> int:
    spec = _spec(args)
    p, n_max = args.p, args.n_max
    terms, sums = analysis.srd_series(spec, p, n_max)
    if args.format == "json":
        _emit(_json_text(_report("srd", spec, p=p, n_max=n_max, lag_cov=list(terms),
                                 partial_sums=list(sums))), args.out)
    else:
        rows = [f"{n},{c!r},{total!r}"
                for n, c, total in zip(range(1, n_max + 1), terms.tolist(), sums.tolist())]
        _emit(_csv(rows, ["n", "lag_cov", "partial_sum"]), args.out)
    return EXIT_OK


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeffs", help="comma-separated weights a_1..a_N")
    p.add_argument("--hurst", help="comma-separated Hurst indices in (0,1)")
    p.add_argument("--config", help="JSON config file; flags take precedence over it")
    p.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfbm",
        description=(
            "Mixed sub-fractional Brownian motion: exact covariance kernels, exact "
            "path samplers, path-property estimators and a rule-based classifier. "
            "Configuration precedence is flags > config file (--config) > built-in "
            "defaults; the MSFBM_THREADS environment variable (1 to 64) caps replica "
            "parallelism without changing any output byte."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cov", help="evaluate covariance / increment-covariance tables")
    _add_common_flags(p)
    p.add_argument("--points", help="comma-separated times; emits all pairs (s<=t)")
    p.add_argument("--window", help="u,v,s,t increment window for one covariance")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("simulate", help="simulate an ensemble of paths")
    _add_common_flags(p)
    p.add_argument("--grid-points", type=int, default=17, help="uniform grid size (default 17)")
    p.add_argument("--horizon", type=float, default=1.0, help="grid horizon T (default 1.0)")
    p.add_argument("--times", help="explicit comma-separated grid (starts at 0)")
    p.add_argument("--reps", type=int, default=1, help="replica count (default 1)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--sampler", choices=("auto", "exact", "fbm", "fgn"), default="auto",
                   help="auto (default) takes circulant embedding (fgn) on uniform grids "
                        "where its estimated cost is below the exact route's, and exact "
                        "otherwise; any route whose arrays would exceed the memory budget "
                        "exits 2 before allocating")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite; exit 1 on failure")
    _add_common_flags(p)
    p.add_argument("--suite", choices=verify.SUITE_NAMES + ("all",), default="all",
                   help="suite name (default all)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--reps", type=int, default=3000, help="Monte Carlo replicas (default 3000)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dims", help="graph/range/level-set dimension estimates")
    _add_common_flags(p)
    p.add_argument("--grid-points", type=int, default=2 ** 16 + 1, help="default 2^16 + 1")
    p.add_argument("--horizon", type=float, default=1.0, help="default 1.0")
    p.add_argument("--seed", type=int, default=0, help="default 0")
    p.add_argument("--level", type=float, default=0.0, help="level-set level x (default 0.0)")
    p.add_argument("--eps", type=float, default=0.01,
                   help="left end of the probed interval (default 0.01)")
    p.add_argument("--level-reps", type=int, default=20,
                   help="replicas for the level-set median (default 20)")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("classify", help="semimartingale / Markov / sign verdicts")
    _add_common_flags(p)
    p.add_argument("--half-tol", type=float, default=0.0,
                   help="tolerance band for H = 1/2 detection (default 0)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("srd", help="lag covariances and their partial sums")
    _add_common_flags(p)
    p.add_argument("--p", type=int, default=0,
                   help="base offset of the first increment (default 0)")
    p.add_argument("--n-max", type=int, default=10 ** 4, help="largest lag (default 10^4)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_srd)

    # Each subcommand's parser: --config keys and values are checked against its
    # options and become its defaults.
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.given = _typed(argv)
    try:
        if args.config:
            args = _with_config(parser, argv, args)
        return args.func(args)
    except (FactorizationFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

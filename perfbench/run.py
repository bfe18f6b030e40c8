"""msfbm benchmark: cold CLI invocations, timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each invocation is a fresh ``python3 perfbench/child.py`` process that
imports msfbm from ``src/`` and calls ``msfbm.cli.main`` on the workload's
arguments.  A run repeats invocations of one workload, with the same
inputs, for about S seconds (at least three), checks every output, and
prints the median of each metric.  With ``--trace 1`` traced and untraced
invocations alternate and the per-layer metrics of the traced ones are
printed instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import Request, Workload, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "msfbm" / "schemas"
CHILD = HERE / "child.py"
MIN_INVOCATIONS = 3
# No invocation starts, and none keeps running, past this many seconds of a
# workload, so a run ends in bounded time even if the program slows badly.
HARD_LIMIT_S = 140.0

# Times are CPU times of the child, user plus system.  On a shared virtual
# machine its wall time also holds the time the hypervisor ran other guests
# (steal), which changes by half from one minute to the next; with one BLAS
# thread and one replica thread the child is single-threaded, so its CPU
# time is its wall time without the steal.
END_TO_END = {"cpu_s": "s", "setup_s": "s", "work_s": "s", "peak_rss_mib": "MiB"}
# Per-layer metrics computed here from traced and untraced invocations; the
# rest come from tracer.summarize.
RUN_LAYER_METRICS = ("trace.work_s", "trace.unaccounted_s", "trace.overhead_s")


BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MSFBM_THREADS", None)  # unset means one replica thread
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Invoker:
    """Runs child processes in a scratch directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()

    def run(self, argv: list[str], trace: bool, timeout: float = HARD_LIMIT_S) -> dict:
        """One cold invocation; returns the child's figures plus its wall, CPU and peak RSS."""
        result_path = self.workdir / "child.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0", "--", *argv]
        with open(self.workdir / "child.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        figures = {"exit_code": proc.returncode, "wall_s": wall_s,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mib": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KiB on Linux
        if proc.returncode == 0 and result_path.exists():
            figures.update(json.loads(result_path.read_text()))
        else:
            figures["exit_code"] = proc.returncode or "no result file"
            figures["log"] = (self.workdir / "child.log").read_text()[-2000:]
        return figures


def fingerprint(versions: dict, seed: int) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "msfbm_threads": "unset (1)",
        "seed": seed,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 invoker: Invoker) -> dict:
    """Repeat one workload for ``seconds``; returns the result object."""
    req: Request = workload.make(seed)
    for name, text in req.files.items():
        (invoker.workdir / name).write_text(text)
    out_path = invoker.workdir / req.output

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    first = None  # (digest, problems) of the run's first output
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        per_call = elapsed / attempted if attempted else 0.0
        if elapsed + per_call > HARD_LIMIT_S or (
                attempted >= MIN_INVOCATIONS + trace and elapsed + per_call > seconds):
            break
        use_trace = trace and attempted % 2 == 1
        out_path.unlink(missing_ok=True)
        figures = invoker.run(req.argv, use_trace, HARD_LIMIT_S - elapsed)
        attempted += 1
        found = []
        if figures["exit_code"] != 0:
            found.append(f"exit code {figures['exit_code']}: {figures['log']}")
        elif not out_path.exists():
            found.append(f"no output file {req.output}")
        else:
            data = out_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if first is None:
                first = (digest, workload.check(data.decode(), req))
            if digest != first[0]:
                found.append("output differs from the run's first invocation with the same inputs")
            else:  # an output identical to the first shares its verdict
                found += first[1]
        if found:
            failed += 1
            problems += found
            continue
        (traced if use_trace else plain).append(figures)

    result = {"attempted": attempted, "failed": failed, "problems": problems[:20],
              "invocations": len(plain), "traced_invocations": len(traced),
              "seconds": time.perf_counter() - started}
    if plain:
        result["end_to_end"] = {m: statistics.median(f[m] for f in plain) for m in END_TO_END}
        result["wall_s"] = statistics.median(f["wall_s"] for f in plain)
    if trace and traced and plain:
        layers = {name: statistics.median(f["layers"][name] for f in traced)
                  for name in traced[0]["layers"]}
        layers["trace.work_s"] = statistics.median(f["work_wall_s"] for f in traced)
        layers["trace.unaccounted_s"] = statistics.median(
            f["work_wall_s"] - f["layers"]["trace.accounted_s"] for f in traced)
        layers["trace.overhead_s"] = (statistics.median(f["wall_s"] for f in traced)
                                      - result["wall_s"])
        result["per_layer"] = layers
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's figures; return its metrics for the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] invocations: {result['invocations']} untraced, "
          f"{result['traced_invocations']} traced, {result['seconds']:.1f} s")
    for problem in result["problems"]:
        print(f"[{name}] FAILED: {problem}")
    print(f"[{name}] fail_ratio = {failed / attempted:.4f} ({failed} of {attempted})")
    if "wall_s" in result:  # what a user waits, steal included; shown, not a metric
        print(f"[{name}] wall_s = {result['wall_s']:.6g} s")
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result.get("per_layer", {}).items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items() if "end_to_end" in result}
    for key, metric in metrics.items():
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("gflop_computed"):
        return "GFLOP"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    table = workloads(SCHEMAS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*table, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msfbm" / "cli.py").is_file():
        print(f"msfbm sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    chosen = list(table) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invoker = Invoker(workdir)
        warm = invoker.run([], trace=False)
        if warm["exit_code"] != 0:
            print(f"msfbm does not import: {warm.get('log', '')}", file=sys.stderr)
            return 2
        print("fingerprint " + json.dumps(fingerprint(warm["versions"], args.seed), sort_keys=True))
        attempted = failed = 0
        metrics: dict = {}
        for name in chosen:
            result = run_workload(table[name], args.seed, args.seconds, bool(args.trace), invoker)
            attempted += result["attempted"]
            failed += result["failed"]
            shown = report(name, result, bool(args.trace))
            if args.workload == "all":
                shown = {f"{name}.{k}": v for k, v in shown.items()}
            metrics.update(shown)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold msfbm invocation, timed from inside the process.

    python3 child.py RESULT_JSON TRACE -- <msfbm cli arguments>

Takes the CPU time of ``import msfbm.cli`` (set-up) and of
``msfbm.cli.main(argv)`` (work), plus the wall time of the latter, and
with TRACE=1 wraps the layer functions first (see tracer.py).  Writes
those figures to RESULT_JSON and exits with the CLI's exit code.  With no
CLI arguments it only imports msfbm and records the software versions,
which warms the file cache before a run.
"""

import json
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]

    start = time.process_time()
    import msfbm.cli
    result: dict = {"setup_s": time.process_time() - start}
    if not argv:
        result["versions"] = _versions()
        code = 0
    else:
        tracer = None
        if trace:
            from tracer import Tracer, summarize
            tracer = Tracer()
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = msfbm.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        result["work_s"] = time.process_time() - cpu_start
        # Spans are on the wall clock, so the trace accounts against this.
        result["work_wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            result["layers"] = summarize(tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

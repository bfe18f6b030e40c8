"""Command-line interface: golden outputs, exit codes, schemas, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msfbm
from msfbm import analysis, cli, kernels, sampler, verify

from conftest import package_env


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "msfbm", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def load_schema(name):
    with resources.files("msfbm").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


class TestCov:
    def test_brownian_golden_csv(self):
        cp = run_cli("cov", "--coeffs", "1", "--hurst", "0.5", "--points", "1,2")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "s,t,cov\n1.0,1.0,1.0\n1.0,2.0,1.0\n2.0,2.0,2.0\n"

    def test_high_hurst_value(self):
        cp = run_cli("cov", "--coeffs", "1", "--hurst", "0.75", "--points", "1,2")
        assert cp.returncode == 0
        row = [l for l in cp.stdout.splitlines() if l.startswith("1.0,2.0")][0]
        assert abs(float(row.split(",")[2]) - 0.73035091339287416) < 1e-12

    def test_validation_exit_code_and_message(self):
        cp = run_cli("cov", "--coeffs", "1", "--hurst", "1.0", "--points", "1,2")
        assert cp.returncode == 2
        assert "hurst out of open interval (0,1)" in cp.stderr

    def test_window_row(self):
        cp = run_cli("cov", "--coeffs", "1", "--hurst", "0.75", "--window", "0,1,1,2")
        assert cp.returncode == 0
        value = float(cp.stdout.splitlines()[1].split(",")[4])
        assert abs(value - 0.14456447576596921) < 1e-12

    def test_json_schema(self):
        cp = run_cli("cov", "--coeffs", "1,1", "--hurst", "0.4,0.8",
                     "--points", "0.5,1", "--format", "json")
        assert cp.returncode == 0
        validate(json.loads(cp.stdout), "cov.v1.json")

    def test_overflow_is_a_numerical_failure(self):
        cp = run_cli("cov", "--hurst", "0.9", "--points", "1,1e300")
        assert cp.returncode == cli.EXIT_NUMERICAL
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("numerical failure: ") and "overflows" in cp.stderr
        assert len(cp.stderr.splitlines()) == 1

    @pytest.mark.parametrize("flag,value,shown", [
        ("--points", "nan,1", "nan"),
        ("--points", "1,1e999", "inf"),
        ("--window", "0,1,1,inf", "inf"),
    ])
    def test_non_finite_input_exits_2(self, flag, value, shown):
        cp = run_cli("cov", "--hurst", "0.5", flag, value)
        assert cp.returncode == cli.EXIT_VALIDATION
        assert "Traceback" not in cp.stderr and cp.stdout == ""
        assert cp.stderr == f"invalid input: {flag} values must be finite, got {shown}\n"

    @pytest.mark.parametrize("args", [
        ("--hurst", "0.1", "--points", "1e308,1.5e308"),  # s + t overflows to inf
        ("--coeffs", "1e200", "--hurst", "0.7", "--window", "0,1,2,3"),  # a^2 overflows
    ])
    def test_non_finite_result_is_a_numerical_failure(self, args):
        cp = run_cli("cov", *args)
        assert cp.returncode == cli.EXIT_NUMERICAL
        assert "Traceback" not in cp.stderr and cp.stdout == ""
        assert cp.stderr.startswith("numerical failure: ") and "not a finite double" in cp.stderr
        assert len(cp.stderr.splitlines()) == 1

    @pytest.mark.parametrize("in_config", [(), ("points", "window"), ("points",)])
    def test_points_and_window_together_are_refused(self, in_config, tmp_path, capsys):
        values = {"hurst": "0.5", "points": "1,2", "window": "0,1,2,3"}
        argv = ["cov"]
        for key, value in values.items():
            if key not in in_config:
                argv += [f"--{key}", value]
        config = tmp_path / "cov.json"
        config.write_text(json.dumps({key: values[key] for key in in_config}))
        rc = cli.main([*argv, "--config", str(config)])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == "invalid input: cov --window does not read --points\n"


class TestInertComponents:
    """A zero-weight component that would overflow a double changes no byte
    but the echoed spec."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--horizon", "1e300", "--grid-points", "3", "--sampler", "exact"],
        ["cov", "--points", "1e300"],
    ])
    def test_padded_spec_prints_the_live_spec(self, command, capsys):
        outputs = []
        for spec in (["--coeffs", "1,0", "--hurst", "0.5,0.99"],
                     ["--coeffs", "1", "--hurst", "0.5"]):
            rc = cli.main([*command, *spec])
            out, err = capsys.readouterr()
            assert (rc, err) == (cli.EXIT_OK, "")
            outputs.append([line for line in out.splitlines(keepends=True)
                            if not line.startswith(("# coeffs: ", "# hurst: "))])
        assert outputs[0] == outputs[1]


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ("simulate", "--coeffs", "1", "--hurst", "0.5", "--grid-points", "8",
                "--reps", "3", "--seed", "7")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_top_seed_is_accepted_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--hurst", "0.5", "--reps", "2",
                           f"--seed={2 ** 64 - 1}"])
        out, err = capsys.readouterr()
        assert (rc, err) == (cli.EXIT_OK, "")
        assert f"# master_seed: {2 ** 64 - 1}\n" in out

    def test_row_shape_and_metadata(self):
        cp = run_cli("simulate", "--coeffs", "1", "--hurst", "0.3", "--grid-points", "8",
                     "--reps", "10", "--seed", "3")
        lines = cp.stdout.splitlines()
        meta = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "replica,t,value"
        assert len(data) - 1 == 8 * 10
        assert any("sampler: exact" in m for m in meta)
        assert any("jitter:" in m for m in meta)

    def test_dense_limit_routing_noted(self):
        cp = run_cli("simulate", "--coeffs", "1", "--hurst", "0.3",
                     "--grid-points", str(2 ** 14 + 2), "--reps", "1", "--seed", "1")
        assert cp.returncode == 0
        assert "# sampler: fgn" in cp.stdout.splitlines()[:10] or \
            any(l == "# sampler: fgn" for l in cp.stdout.splitlines())

    def test_json_schema(self):
        cp = run_cli("simulate", "--coeffs", "1,1", "--hurst", "0.5,0.75",
                     "--grid-points", "5", "--reps", "2", "--seed", "11",
                     "--format", "json")
        payload = json.loads(cp.stdout)
        validate(payload, "ensemble.v1.json")
        assert len(payload["paths"]) == 2
        assert payload["paths"][0][0] == 0.0

    def test_explicit_times(self):
        cp = run_cli("simulate", "--coeffs", "1", "--hurst", "0.5",
                     "--times", "0,0.5,2", "--reps", "1", "--seed", "5",
                     "--format", "json")
        payload = json.loads(cp.stdout)
        assert payload["grid"]["times"] == [0.0, 0.5, 2.0]

    def test_factorization_failure_exit_code(self, monkeypatch):
        def boom(*args, **kwargs):
            raise msfbm.FactorizationFailure("synthetic")
        monkeypatch.setattr(cli, "sample_ensemble", boom)
        rc = cli.main(["simulate", "--coeffs", "1", "--hurst", "0.5",
                       "--grid-points", "4", "--reps", "1", "--seed", "0"])
        assert rc == cli.EXIT_NUMERICAL

    def test_over_budget_routes_exit_2_before_allocating(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a refused route allocated its arrays")
        monkeypatch.setattr(sampler, "gram_matrix", fail)
        monkeypatch.setattr(sampler, "_fgn_spectrum", fail)
        for route, size in (("exact", ["--grid-points", "40000"]),
                            ("fgn", ["--grid-points", "65537", "--reps", "10000"])):
            rc = cli.main(["simulate", "--hurst", "0.5", "--sampler", route, *size])
            err = capsys.readouterr().err
            assert rc == cli.EXIT_VALIDATION
            assert f"the {route} route" in err and "GiB memory budget" in err

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_horizon_exits_2(self, value):
        cp = run_cli("simulate", "--hurst", "0.5", "--horizon", value)
        assert cp.returncode == cli.EXIT_VALIDATION and cp.stdout == ""
        assert cp.stderr.splitlines() == [
            f"invalid input: horizon must be a positive finite number, got {float(value)!r}"
        ]

    def test_csv_streams_per_replica(self, tmp_path):
        # The whole ensemble's CSV text is about 16 MiB; one replica's is 1/64 of it.
        out = tmp_path / "paths.csv"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--coeffs", "1,1", "--hurst", "0.4,0.8",
                           "--grid-points", "2049", "--reps", "64", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == cli.EXIT_OK
        assert peak < 8 * 2 ** 20
        assert len(out.read_text().splitlines()) == 8 + 1 + 64 * 2049

    def test_reader_closing_stdout_early_is_not_an_error(self):
        # About 4 MiB of CSV against a 64 KiB pipe: the writer is still streaming
        # replicas when the reader goes away.
        cmd = [sys.executable, "-m", "msfbm", "simulate", "--hurst", "0.5",
               "--grid-points", "2049", "--reps", "64"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=package_env())
        assert proc.stdout.readline().startswith(b"# coeffs")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == cli.EXIT_OK, err
        assert "Traceback" not in err and "BrokenPipe" not in err

    @pytest.mark.parametrize("route,flags,grid", [
        ("exact", ["--times", "0,0.25,0.5,2"], sampler.TimeGrid([0.0, 0.25, 0.5, 2.0])),
        ("fbm", ["--grid-points", "9", "--horizon", "3"], sampler.TimeGrid.uniform(9, 3.0)),
        ("fgn", ["--grid-points", "17"], sampler.TimeGrid.uniform(17, 1.0)),
    ])
    def test_json_stream_equals_whole_text(self, route, flags, grid, tmp_path):
        out = tmp_path / "paths.json"
        rc = cli.main(["simulate", "--coeffs", "1,-0.5", "--hurst", "0.3,0.8", "--reps", "3",
                       "--seed", "11", *flags, "--sampler", route, "--format", "json",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        spec = msfbm.ProcessSpec([1.0, -0.5], [0.3, 0.8])
        ens = sampler.sample_ensemble(spec, grid, 3, 11, sampler=route)
        whole = {
            "format": "msfbm.ensemble",
            "schema_version": 1,
            "spec": {"coeffs": list(spec.coeffs), "hurst": list(spec.hurst)},
            "grid": {"times": list(grid.times)},
            "master_seed": ens.master_seed,
            "n_reps": ens.n_reps,
            "sampler": ens.sampler,
            "jitter": ens.jitter,
            "paths": [list(row) for row in ens.values],
        }
        assert out.read_text() == json.dumps(whole, indent=2, sort_keys=True) + "\n"

    def test_json_streams_per_replica(self, tmp_path):
        # The whole ensemble's JSON text is about 3.4 MiB and took a 19.5 MiB peak to build.
        out = tmp_path / "paths.json"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--coeffs", "1,1", "--hurst", "0.4,0.8",
                           "--grid-points", "2049", "--reps", "64", "--format", "json",
                           "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == cli.EXIT_OK
        assert peak < 8 * 2 ** 20
        payload = json.loads(out.read_text())
        assert len(payload["paths"]) == 64 and {len(p) for p in payload["paths"]} == {2049}

    def test_reader_closing_json_stdout_early_is_not_an_error(self):
        cmd = [sys.executable, "-m", "msfbm", "simulate", "--hurst", "0.5",
               "--grid-points", "2049", "--reps", "64", "--format", "json"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=package_env())
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == cli.EXIT_OK, err
        assert "Traceback" not in err and "BrokenPipe" not in err

    def test_unwritable_out_path_exits_2(self, tmp_path):
        out = tmp_path / "nodir" / "x.csv"
        cp = run_cli("simulate", "--hurst", "0.5", "--out", str(out))
        assert cp.returncode == 2
        assert str(out) in cp.stderr
        assert "Traceback" not in cp.stderr


class TestVerify:
    def test_kernels_suite_passes(self):
        cp = run_cli("verify", "--suite", "kernels", "--seed", "0")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        validate(payload, "verify.v1.json")
        assert payload["all_passed"] is True

    def test_markov_suite_with_spec(self):
        cp = run_cli("verify", "--suite", "markov", "--coeffs", "1", "--hurst", "0.6")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        names = [c["name"] for s in payload["suites"] for c in s["checks"]]
        assert "residual_nonzero_at_proof_triple" in names

    def test_srd_suite_reports_slope(self):
        cp = run_cli("verify", "--suite", "srd", "--coeffs", "1", "--hurst", "0.75")
        payload = json.loads(cp.stdout)
        checks = {c["name"]: c for s in payload["suites"] for c in s["checks"]}
        slope = checks["tail_loglog_slope"]
        # The fitted slope of H = 0.75's asymptotic term: 2H - 3 to rounding.
        assert slope["target"] == pytest.approx(-1.5, rel=0.0, abs=1e-12)
        assert abs(slope["measured"] - (-1.5)) <= 0.1
        assert cp.returncode == 0

    def test_srd_suite_leaves_numpy_ma_unloaded(self, tmp_path):
        code = ("import sys; from msfbm import cli; "
                f"rc = cli.main(['verify', '--suite', 'srd', '--out', {str(tmp_path / 'v.json')!r}]); "
                "sys.exit(rc or 'numpy.ma' in sys.modules)")
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=package_env())
        assert cp.returncode == 0, cp.stderr or "numpy.ma loaded by the srd suite"

    def test_unknown_suite_rejected(self):
        cp = run_cli("verify", "--suite", "bogus")
        assert cp.returncode == 2

    @pytest.mark.parametrize("argv,message", [
        (["--suite", "markov", "--coeffs", "5"],
         "a process needs --hurst (and optionally --coeffs; flags or config file)"),
        (["--coeffs", "5"], "a process needs --hurst (and optionally --coeffs; flags or config file)"),
        (["--suite", "selfsim", "--hurst", "0.3"], "verify --suite selfsim does not read --hurst"),
        (["--suite", "kernels", "--coeffs", "1", "--hurst", "0.3"],
         "verify --suite kernels does not read --coeffs, --hurst"),
    ])
    def test_spec_no_suite_reads_is_refused(self, argv, message, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("ran suites on a refused spec")

        monkeypatch.setattr(verify, "run_suites", fail)
        rc = cli.main(["verify", *argv])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"invalid input: {message}\n"


class TestDims:
    def test_insufficient_resolution_exit_code(self):
        cp = run_cli("dims", "--coeffs", "1", "--hurst", "0.5", "--grid-points", "256")
        assert cp.returncode == 2

    def test_report_schema_small(self):
        # smallest admissible grid to keep the test quick
        cp = run_cli("dims", "--coeffs", "1", "--hurst", "0.5",
                     "--grid-points", str(2 ** 14 + 1), "--seed", "2",
                     "--level-reps", "3")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        validate(payload, "dims.v1.json")
        assert payload["graph"]["target"] == 1.5
        assert payload["range"]["target"] == 1.0
        assert payload["level_set"]["target"] == 0.5

    @pytest.mark.parametrize("flag, value, diagnostic", [
        *(pytest.param("--level", v, f"--level must be finite, got {float(v)!r}", id=v)
          for v in ("nan", "inf", "-inf")),
        *(pytest.param("--eps", v, "--eps must lie strictly inside (0, --horizon) = (0, 1.0), "
                       f"got {float(v)!r}", id=f"eps={v}") for v in ("nan", "0", "-1", "2")),
        pytest.param("--level-reps", "0", "--level-reps must be >= 1, got 0", id="level-reps=0"),
    ])
    def test_non_finite_level_is_refused_before_drawing(self, monkeypatch, capsys, flag, value,
                                                        diagnostic):
        def no_draw(*args, **kwargs):
            raise AssertionError("dims drew paths for an input it refuses")

        monkeypatch.setattr(cli, "_Draw", no_draw)
        rc = cli.main(["dims", "--hurst", "0.5", "--grid-points", "16385", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"invalid input: {diagnostic}\n"

    SMALL = ["dims", "--hurst", "0.3,0.8", "--coeffs", "1,1", "--grid-points", str(2 ** 14 + 1)]

    def test_peak_does_not_grow_with_level_reps(self, monkeypatch, tmp_path):
        # The level-set paths are drawn and read one block at a time, so 38 more
        # replicas may not hold 2 more rows at once.
        monkeypatch.delenv("MSFBM_THREADS", raising=False)
        # A first run leaves the one-time buffers of numpy's FFT outside the traces.
        assert cli.main([*self.SMALL, "--level-reps", "1", "--out", str(tmp_path / "1.json")]) == 0
        peaks = {}
        for reps in (2, 40):
            tracemalloc.start()
            try:
                rc = cli.main([*self.SMALL, "--level-reps", str(reps),
                               "--out", str(tmp_path / f"{reps}.json")])
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == cli.EXIT_OK
        assert abs(peaks[40] - peaks[2]) < 2 * 8 * (2 ** 14 + 1), peaks

    def test_report_is_thread_invariant(self, monkeypatch, capsys):
        # Four level-set rows: blocks of 2 at 2 threads, of 3 and 1 at 3 threads.
        outs = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MSFBM_THREADS", threads)
            assert cli.main([*self.SMALL, "--level-reps", "4", "--seed", "7"]) == cli.EXIT_OK
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1

    def test_budget_counts_one_row_of_a_streamed_draw(self, monkeypatch, capsys):
        # Four rows of the grid exceed the budget and one fits: dims reads one row
        # at a time, simulate holds every row.
        monkeypatch.delenv("MSFBM_THREADS", raising=False)
        m = 2 ** 14
        grid = sampler.TimeGrid.uniform(m + 1, 1.0)
        one_row, every_row = (sampler._plan(grid, 4, "fgn", streamed=streamed).need
                              for streamed in (True, False))
        monkeypatch.setattr(sampler, "_MEMORY_BUDGET", (one_row + every_row) // 2)
        assert cli.main([*self.SMALL, "--level-reps", "3"]) == cli.EXIT_OK
        capsys.readouterr()
        rc = cli.main(["simulate", "--hurst", "0.5", "--grid-points", str(m + 1), "--reps", "4"])
        assert rc == cli.EXIT_VALIDATION
        assert "memory budget" in capsys.readouterr().err

    def test_level_no_replica_crosses_keeps_its_diagnostic(self, capsys):
        rc = cli.main([*self.SMALL, "--level", "1e6", "--level-reps", "2"])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == "invalid input: no replica crossed level 1000000.0 on [0.01, 1.0]\n"


class TestClassify:
    def test_verdict_schema_and_values(self):
        cp = run_cli("classify", "--coeffs", "1,1", "--hurst", "0.5,0.8")
        payload = json.loads(cp.stdout)
        validate(payload, "classify.v1.json")
        assert payload["semimartingale"]["is_semimartingale"] is True
        assert payload["semimartingale"]["witness"] == 1
        assert payload["semimartingale"]["reason"] == "HalfWitnessAndRest"
        assert payload["markov"] is False

    def test_all_enumerated_cases_via_cli(self):
        cases = [
            ("1", "0.5", True, "HalfWitnessAndRest"),
            ("1,1", "0.5,0.8", True, "HalfWitnessAndRest"),
            ("1,1", "0.5,0.7", False, "IntermediateHurst"),
            ("1,1", "0.5,0.75", False, "IntermediateHurst"),
            ("1,1", "0.3,0.9", False, "LowHurstComponent"),
            ("1,1", "0.8,0.9", False, "AllAboveHalf"),
            ("1,0", "0.5,0.3", True, "HalfWitnessAndRest"),
        ]
        for coeffs, hurst, expected, reason in cases:
            cp = run_cli("classify", "--coeffs", coeffs, "--hurst", hurst)
            payload = json.loads(cp.stdout)
            assert payload["semimartingale"]["is_semimartingale"] is expected, (coeffs, hurst)
            assert payload["semimartingale"]["reason"] == reason

    @pytest.mark.parametrize("value", ("nan", "-1"))
    def test_bad_half_tol_exits_2(self, value, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(f'{{"half_tol": {"NaN" if value == "nan" else value}}}')
        for source in (["--half-tol", value], ["--config", str(config)]):
            cp = run_cli("classify", "--hurst", "0.5", *source)
            assert cp.returncode == cli.EXIT_VALIDATION, source
            assert cp.stdout == ""
            assert cp.stderr.splitlines() == [
                f"invalid input: half_tol must be a nonnegative finite number, "
                f"got {float(value)!r}"
            ]

    def test_zero_half_tol_is_exact_detection(self):
        cp = run_cli("classify", "--hurst", "0.5", "--half-tol", "0")
        payload = json.loads(cp.stdout)
        assert payload["markov"] is True
        assert payload["semimartingale"]["reason"] == "HalfWitnessAndRest"


class TestSrd:
    def test_csv_columns_and_values(self):
        cp = run_cli("srd", "--coeffs", "1", "--hurst", "0.75", "--n-max", "10")
        lines = cp.stdout.splitlines()
        assert lines[0] == "n,lag_cov,partial_sum"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - 0.14456447576596921) < 1e-12

    def test_json_schema(self):
        cp = run_cli("srd", "--coeffs", "1", "--hurst", "0.6", "--n-max", "12",
                     "--format", "json")
        validate(json.loads(cp.stdout), "srd.v1.json")

    @pytest.mark.parametrize("argv", [
        ("srd", "--hurst", "0.5", "--coeffs", "1e200", "--n-max", "10"),
        ("srd", "--hurst", "0.5,0.7", "--coeffs", "1e200,1", "--n-max", "10"),
        ("verify", "--suite", "srd", "--hurst", "0.5", "--coeffs", "1e200"),
    ])
    def test_overflowing_brownian_weight_is_skipped(self, argv):
        # A Brownian component's lag covariances are exactly 0, whatever its weight.
        cp = run_cli(*argv)
        assert cp.returncode == 0, cp.stderr

    def test_brownian_lag_covariances_are_zero(self):
        cp = run_cli("srd", "--hurst", "0.5", "--n-max", "10")
        assert cp.stdout.splitlines()[1:] == [f"{n},0.0,0.0" for n in range(1, 11)]

    def test_n_max_over_budget_exits_2_before_allocating(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a refused n_max allocated its arrays")
        monkeypatch.setattr(analysis, "lag_cov_series", fail)
        monkeypatch.setattr(kernels, "lag_cov_series", fail)
        rc = cli.main(["srd", "--hurst", "0.7", "--n-max", "1000000000000000"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err.splitlines() == [
            "invalid input: n_max = 1000000000000000 needs an estimated 2.98e+08 GiB, "
            "over the 2 GiB memory budget"
        ]


class TestHelp:
    def test_top_level_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        for sub in ("cov", "simulate", "verify", "dims", "classify", "srd"):
            assert sub in cp.stdout
        assert "MSFBM_THREADS" in cp.stdout


class TestConfigFile:
    def test_config_supplies_spec_and_flags_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "coeffs": [1.0],
            "hurst": [0.5],
            "points": "1,2",
        }))
        cp = run_cli("cov", "--config", str(config))
        assert cp.returncode == 0, cp.stderr
        assert "1.0,2.0,1.0" in cp.stdout

        # flag wins over the file value
        cp = run_cli("cov", "--config", str(config), "--hurst", "0.75")
        row = [l for l in cp.stdout.splitlines() if l.startswith("1.0,2.0")][0]
        assert abs(float(row.split(",")[2]) - 0.73035091339287416) < 1e-12

    def test_simulate_defaults_from_config(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "coeffs": "1", "hurst": "0.5", "grid_points": 5,
            "reps": 2, "seed": 9, "format": "json",
        }))
        cp = run_cli("simulate", "--config", str(config))
        payload = json.loads(cp.stdout)
        assert payload["n_reps"] == 2
        assert payload["master_seed"] == 9
        assert len(payload["grid"]["times"]) == 5

    def test_unknown_config_key_is_refused(self, tmp_path):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"grid_point": 5000, "seeed": 7}))
        cp = run_cli("simulate", "--hurst", "0.5", "--config", str(config))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "'grid_point'" in cp.stderr and "'seeed'" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_times_config_is_accepted(self, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"times": [0.0, 0.25, 1.0]}))
        cp = run_cli("simulate", "--hurst", "0.5", "--config", str(config), "--format", "json")
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)["grid"]["times"] == [0.0, 0.25, 1.0]

    def test_config_value_outside_choices_is_refused(self, tmp_path):
        config = tmp_path / "fmt.json"
        config.write_text(json.dumps({"format": "xml"}))
        cp = run_cli("simulate", "--hurst", "0.5", "--config", str(config))
        assert cp.returncode == 2
        assert "'format'" in cp.stderr and "'csv', 'json'" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_non_integer_config_value_is_refused(self, tmp_path):
        config = tmp_path / "seed.json"
        for value in (1.5, True):
            config.write_text(json.dumps({"seed": value}))
            cp = run_cli("simulate", "--hurst", "0.5", "--config", str(config))
            assert cp.returncode == 2
            assert "'seed'" in cp.stderr and "integer" in cp.stderr
            assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize("command,key", [
        (["simulate", "--hurst", "0.5", "--grid-points", "3"], "horizon"),
        (["dims", "--hurst", "0.5", "--grid-points", "1025"], "eps"),
    ])
    def test_boolean_float_config_value_is_refused(self, command, key, tmp_path):
        config = tmp_path / "float.json"
        for value in (True, False, "0.5", [0.5]):
            config.write_text(json.dumps({key: value}))
            cp = run_cli(*command, "--config", str(config))
            assert cp.returncode == 2, (value, cp.stderr)
            assert f"'{key}'" in cp.stderr and "number" in cp.stderr
            assert "Traceback" not in cp.stderr

    def test_numeric_float_config_values_are_accepted(self, tmp_path):
        config = tmp_path / "horizon.json"
        for value, shown in ((2, "2.0"), (0.5, "0.5")):
            config.write_text(json.dumps({"horizon": value}))
            cp = run_cli("simulate", "--hurst", "0.5", "--grid-points", "3",
                         "--config", str(config))
            assert cp.returncode == 0, cp.stderr
            assert f"# horizon: {shown}" in cp.stdout

    @pytest.mark.parametrize("command,key,value,kind", [
        (["classify", "--hurst", "0.5"], "out", 2, "a string"),
        (["classify", "--hurst", "0.5"], "out", [1], "a string"),
        (["simulate", "--hurst", "0.5"], "times", [0, None], "a string or a list of numbers"),
        (["classify"], "hurst", [[0.5]], "a string or a list of numbers"),
        (["classify", "--hurst", "0.5"], "coeffs", [1, True], "a string or a list of numbers"),
        (["cov", "--hurst", "0.5"], "window", {"u": 0}, "a string or a list of numbers"),
    ])
    def test_string_option_config_value_is_refused(self, command, key, value, kind, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}))
        cp = run_cli(*command, "--config", str(config))
        assert cp.returncode == 2, cp.stderr
        assert cp.stdout == "" and len(cp.stderr.splitlines()) == 1
        assert f"config key '{key}' must be {kind}" in cp.stderr

    def test_float_list_element_type_error_is_invalid_input(self):
        with pytest.raises(ValueError, match="could not parse float list"):
            cli._floats([0.0, None], "times")

    def test_programming_error_is_not_reported_as_invalid_input(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand type(s)")
        monkeypatch.setattr(cli, "sample_ensemble", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            cli.main(["simulate", "--hurst", "0.5"])

    def test_missing_config_file_exits_2(self, tmp_path):
        config = tmp_path / "missing.json"
        cp = run_cli("simulate", "--hurst", "0.5", "--config", str(config))
        assert cp.returncode == 2
        assert str(config) in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_missing_spec_is_validation_error(self):
        cp = run_cli("cov", "--points", "1,2")
        assert cp.returncode == 2
        assert "--hurst" in cp.stderr

    def test_coeffs_default_to_ones(self):
        cp = run_cli("cov", "--hurst", "0.5", "--points", "1,2")
        assert cp.returncode == 0
        assert "1.0,2.0,1.0" in cp.stdout


class TestThreads:
    @pytest.mark.parametrize("raw,parsed", [(None, 1), ("1", 1), ("4", 4), ("64", 64)])
    def test_accepted_values(self, raw, parsed, monkeypatch):
        if raw is None:
            monkeypatch.delenv("MSFBM_THREADS", raising=False)
        else:
            monkeypatch.setenv("MSFBM_THREADS", raw)
        assert cli._n_threads() == parsed

    @pytest.mark.parametrize("raw", ["0", "-3", "65", "100000"])
    def test_out_of_range_is_refused(self, raw, monkeypatch):
        monkeypatch.setenv("MSFBM_THREADS", raw)
        with pytest.raises(ValueError, match=r"MSFBM_THREADS must lie in \[1, 64\]"):
            cli._n_threads()

    def test_out_of_range_exits_2_before_sampling(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("sampled with a refused thread count")
        monkeypatch.setattr(cli, "sample_ensemble", fail)
        monkeypatch.setenv("MSFBM_THREADS", "65")
        rc = cli.main(["simulate", "--hurst", "0.5", "--reps", "100"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert "MSFBM_THREADS" in err and "[1, 64]" in err


class TestSeedAndReps:
    """--seed outside [0, 2^64) and --reps below 1 exit 2 by name, before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("worked on an input it refuses")

        monkeypatch.setattr(cli, "sample_ensemble", fail)
        monkeypatch.setattr(cli, "_Draw", fail)
        monkeypatch.setattr(verify, "run_suites", fail)

    @pytest.mark.parametrize("command", [
        ["simulate", "--hurst", "0.5"], ["verify"], ["verify", "--suite", "markov"],
        ["dims", "--hurst", "0.5"],
    ])
    @pytest.mark.parametrize("seed", ("-1", str(2 ** 64), "18446744073709551621"))
    def test_seed_outside_64_bits_is_refused(self, command, seed, capsys):
        rc = cli.main([*command, f"--seed={seed}"])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"invalid input: --seed must be an integer in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--hurst", "0.5"], ["verify"],
        *(["verify", "--suite", name] for name in verify.SUITE_NAMES),
    ])
    @pytest.mark.parametrize("reps", ("0", "-2"))
    def test_reps_below_one_is_refused(self, command, reps, capsys):
        rc = cli.main([*command, f"--reps={reps}"])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"invalid input: --reps must be >= 1, got {reps}\n"


_SPEC_VALUES = {"hurst": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2),
                "coeffs": st.lists(st.floats(0.1, 3.0), min_size=1, max_size=2)}
_REPS = st.integers(1, 10 ** 6)

# Each command mode that leaves options unread: an invocation in that mode that
# exits 0, and the options it does not read, each with values a user could give.
# dims, classify, srd and the other modes read every option they take.
_UNREAD = {
    "cov --window": (["cov", "--hurst", "0.5", "--window", "0,1,2,3"],
                     {"points": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3)}),
    "simulate --times": (["simulate", "--hurst", "0.5", "--times", "0,0.5,1"],
                         {"grid_points": st.integers(2, 40), "horizon": st.floats(1e-3, 1e3)}),
    "verify --suite srd": (["verify", "--suite", "srd"],
                           {"seed": st.integers(0, 2 ** 64 - 1), "reps": _REPS}),
    "verify --suite markov": (["verify", "--suite", "markov"], {"reps": _REPS}),
    "verify --suite kernels": (["verify", "--suite", "kernels"], {**_SPEC_VALUES, "reps": _REPS}),
    "verify --suite selfsim": (["verify", "--suite", "selfsim"], {**_SPEC_VALUES, "reps": _REPS}),
}


def _main(argv):
    """``cli.main(argv)`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestUnreadOptions:
    """Every option given, typed or set by a --config key, is read by the run or refused."""

    @pytest.mark.parametrize("mode", sorted(_UNREAD))
    def test_invocation_reads_every_option_it_is_given(self, mode):
        rc, out, err = _main(_UNREAD[mode][0])
        assert (rc, err) == (cli.EXIT_OK, "") and out

    @pytest.mark.parametrize("mode", sorted(_UNREAD))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_unread_option_turns_exit_0_into_a_one_line_refusal(
            self, mode, data, tmp_path_factory):
        argv, unread = _UNREAD[mode]
        dest = data.draw(st.sampled_from(sorted(unread)))
        value = data.draw(unread[dest])
        flag = f"--{dest.replace('_', '-')}"
        if data.draw(st.booleans()):
            text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
            argv = [*argv, f"{flag}={text}"]
        else:
            config = tmp_path_factory.getbasetemp() / "unread.json"
            config.write_text(json.dumps({dest: value}))
            argv = [*argv, "--config", str(config)]
        rc, out, err = _main(argv)
        assert (rc, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"invalid input: {mode} does not read {flag}\n"

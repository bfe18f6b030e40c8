"""Golden digests: every command of scripts/golden.py still prints what
tests/golden.json records for this numpy, at one replica thread and at four."""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from msfbm import sampler, seeds

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def recorded():
    digests = json.loads(golden.GOLDEN.read_text()).get(golden.numpy_key())
    if digests is None:
        pytest.skip(f"tests/golden.json records no digests for numpy {golden.numpy_key()}; "
                    "regenerate them with scripts/golden.py --write")
    return digests


def test_digests_cover_the_command_matrix(recorded):
    assert sorted(recorded) == sorted(golden.COMMANDS)


@pytest.mark.parametrize("threads", ("1", "4"))
@pytest.mark.parametrize("name", sorted(golden.COMMANDS))
def test_output_matches_its_digest(name, threads, recorded):
    assert golden.digest(golden.COMMANDS[name], threads) == recorded[name]


def test_check_labels_new_and_moved_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "COMMANDS", {"help": ["--help"], "cov-help": ["cov", "--help"]})
    assert golden.main(["--write"]) == 0
    assert golden.main([]) == 0
    capsys.readouterr()
    digests = json.loads(golden.GOLDEN.read_text())
    digests[golden.numpy_key()]["help"]["stdout_sha256"] = "0" * 64
    del digests[golden.numpy_key()]["cov-help"]
    golden.GOLDEN.write_text(json.dumps(digests))
    assert golden.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "moved: help: msfbm --help", "new: cov-help: msfbm cov --help"]


# The dense routes' stdout where numpy's BLAS lacks the RFP routines, so they
# factor the whole Gram with np.linalg.cholesky and draw with L @ z.
# simulate-exact-csv's bytes are those it printed before the exact route moved
# to RFP storage; simulate-fbm-csv's those the fbm route printed before its
# draw loop became one shared loop over a linear map.
_WITHOUT_RFP = {"2.4": {
    "simulate-exact-csv": "fe2d4dc1cac7b8916d1e6f1d179fa09dc081de72195410ae5685f5bbcd30368e",
    "simulate-fbm-csv": "5658ac006989243d4d7f0d3f07324e75fd361e177073729bf025d4bf7c49de96",
}}


def _check_without_rfp(name, threads, monkeypatch):
    if golden.numpy_key() not in _WITHOUT_RFP:
        pytest.skip(f"no digest recorded for numpy {golden.numpy_key()}")
    monkeypatch.setattr(sampler, "_rfp", lambda: None)
    got = golden.digest(golden.COMMANDS[name], threads)
    assert got == {"exit": 0, "stdout_sha256": _WITHOUT_RFP[golden.numpy_key()][name],
                   "stderr": ""}


@pytest.mark.parametrize("threads", ("1", "4"))
def test_exact_route_without_rfp_prints_the_dense_factor_bytes(threads, monkeypatch):
    _check_without_rfp("simulate-exact-csv", threads, monkeypatch)


@pytest.mark.parametrize("threads", ("1", "4"))
def test_fbm_route_without_rfp_prints_the_dense_factor_bytes(threads, monkeypatch):
    _check_without_rfp("simulate-fbm-csv", threads, monkeypatch)


@pytest.mark.parametrize("threads", ("1", "4"))
@pytest.mark.parametrize("name", ("verify-seed0", "simulate-fbm-csv"))
def test_streams_through_the_state_setter_print_the_same_bytes(name, threads, recorded,
                                                                monkeypatch):
    # Where PCG64 keeps its state in another layout, every thread binds no view
    # and each draw sets its key through PCG64's public state setter.
    set_through_setter = []
    set_state = seeds._set_state
    monkeypatch.setattr(seeds, "_local", threading.local())
    monkeypatch.setattr(seeds, "_state_words", lambda bitgen: None)
    monkeypatch.setattr(seeds, "_set_state",
                        lambda bitgen, key: set_through_setter.append(1) or set_state(bitgen, key))
    assert golden.digest(golden.COMMANDS[name], threads) == recorded[name]
    assert set_through_setter

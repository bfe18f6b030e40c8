"""Golden digests: every command of scripts/golden.py still prints what
tests/golden.json records for this numpy, at one replica thread and at four."""

import importlib.util
import json
from pathlib import Path

import pytest

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

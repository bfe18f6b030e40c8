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

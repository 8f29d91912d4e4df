"""Byte-exact CLI goldens: the README tables, the time-dependent expr rate and
the ``verify`` report at two seeds.

Each file under ``goldens/`` is the stdout of the invocation named beside it.
The files were written once from the CLI and must only change together with
a deliberate, documented change of output.  Grids too large to keep as files
are guarded by the sha256 of their CSV stdout, recorded the same way.
"""

import hashlib
from pathlib import Path

import pytest

from enmsim import cli

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDENS = {
    "correlations.csv": "correlations --a 1 --x 0 --f optimal --t-max 3 --points 50 "
                        "--format csv",
    "trajectory.csv": "trajectory --r0 0,0,1 --x 0.5 --f zero --t-max 2 --points 40",
    "coherence.csv": "coherence --f expr:-tanh(t) --t-max 4 --points 80",
    "qfi.csv": "qfi --t-max 5 --points 60",
    "spectrum.json": "spectrum --s-max 4 --points 100 --format json",
    "choi.csv": "choi --a 1 --x 0.3 --f optimal --t-max 3 --points 30",
    "qfi.json": "qfi --t-max 5 --points 60 --format json",
    "choi-expr.csv": "choi --f expr:-0.9*tanh(t)",
    "correlations-expr.csv": "correlations --f expr:-0.9*tanh(t)",
    "coherence-expr.csv": "coherence --f expr:-0.9*tanh(t)",
    "verify-seed0.txt": "verify --suite all --seed 0",
    "verify-seed7.txt": "verify --suite all --seed 7",
}


@pytest.mark.parametrize("name", GOLDENS)
def test_stdout_matches_golden(name, capsys):
    assert cli.main(GOLDENS[name].split()) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


_LOG_GRID = "--x 0.4 --t-min 1e-3 --t-max 5 --spacing log"

DIGESTS = {
    f"trajectory {_LOG_GRID} --points 10000":
        "75cddcffc8c373cb0328fa67c997a46c769d85d756ad9fa668ebbc0fb3a829d8",
    f"choi {_LOG_GRID} --points 10000":
        "462e72a0d5959ec6e104bf6b9ac61bda11a9aaebb290aa4038fb0fede9eb32f6",
    f"coherence {_LOG_GRID} --points 10000":
        "e9b6bff66046ae3da20eb75c36b6e7e01fca37d3a9ecc94969facc58c2cb0a3f",
    f"qfi {_LOG_GRID} --points 10000":
        "ae990fff5c6c5ab0dc4f5fdb8061f69fcd0966b153568da6e64daf9ec11afa4b",
    f"correlations {_LOG_GRID} --points 2000":
        "3b7e4851936636e2bc4e0a97920e1fb4857a3ffd1f9e0dfff7d535b47ba88a10",
    "spectrum --s-max 4 --points 100000":
        "c78cad878620aa277c532c0ec9159280c0272fc002f372bdb4474afa3c0465bb",
}


@pytest.mark.parametrize("argv", DIGESTS)
def test_large_grid_stdout_digest(argv, capsys):
    assert cli.main(argv.split()) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]

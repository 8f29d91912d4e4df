"""Byte-exact CLI goldens: the README tables and the time-dependent expr rate.

Each file under ``goldens/`` is the stdout of the invocation named beside it.
The files were written once from the CLI and must only change together with
a deliberate, documented change of output.
"""

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
}


@pytest.mark.parametrize("name", GOLDENS)
def test_stdout_matches_golden(name, capsys):
    assert cli.main(GOLDENS[name].split()) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()

"""Golden outputs: result documents and reproduce-paper tables, byte for byte.

``tests/golden/run_digests.json`` holds the SHA-256 of
``qkdlab run --format json --seed 7`` (25 trials x 200 raw bits) for every
grid cell, and ``tests/golden/paper/`` the four ``reproduce-paper --seed 7``
tables.  A change that alters any of them must do so on purpose and say why;
``PYTHONPATH=src python tests/test_golden.py`` rewrites them.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qkdlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "7"
CELLS = [
    (protocol, scenario.value, eve.value)
    for protocol in ("bb84", "hdbb84", "ssp")
    for _, scenario, eve in cli.GRID_ROWS
]
PAPER_FILES = ("results_bb84.csv", "results_hdbb84.csv", "results_ssp.csv", "qber_with_eve.csv")


def _run_digest(cell) -> str:
    protocol, scenario, eve = cell
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(
            ["run", "--protocol", protocol, "--scenario", scenario, "--eve", eve,
             "--format", "json", "--seed", SEED]
        )
    assert code == cli.EXIT_OK
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def _reproduce_paper(out_dir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce-paper", "--seed", SEED, "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_run_document_matches_golden_digest(cell):
    golden = json.loads((GOLDEN / "run_digests.json").read_text())
    assert _run_digest(cell) == golden["/".join(cell)]


def test_reproduce_paper_tables_match_golden(tmp_path):
    _reproduce_paper(tmp_path)
    for name in PAPER_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "paper" / name).read_bytes(), name


if __name__ == "__main__":
    _reproduce_paper(GOLDEN / "paper")
    digests = {"/".join(cell): _run_digest(cell) for cell in CELLS}
    (GOLDEN / "run_digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")

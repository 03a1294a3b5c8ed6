"""Golden outputs: result documents, reproduce-paper tables and the gate
catalog, byte for byte.

``tests/golden/run_digests.json`` holds the SHA-256 of
``qkdlab run --format json --seed 7`` (25 trials x 200 raw bits) for every
grid cell, ``render_digests.json`` the same for ``--format csv`` and
``--format table``, ``short_digests.json`` the same for ``--format json
--trials 150 --raw-bits 16 --seed 1`` (the one shape with empty sifted keys,
whose knowledges are null), ``block_digests.json`` the same for ``--format
json --trials 200 --raw-bits 200 --seed 3`` (20,000 to 40,000 particles a
run, two or three of ``run_experiment``'s blocks of draws),
``long_digests.json`` the same for ``--format json --trials 2 --raw-bits
10000 --seed 1`` (trials of 2,500 to 5,000 kept values, which ``score``
sums slice by slice, one trial a block for bb84 and ssp), and
``tests/golden/paper/`` the four ``reproduce-paper --seed 7`` tables.
``validate_gates.txt`` and ``hypothesis_table.txt`` are the stdout of
``validate-gates`` and ``hypothesis-table``, which take no seed and draw no
random number, and ``catalog_dump.sha256`` the SHA-256 of the
``validate-gates --dump`` file (320 kB of JSON), which pins every catalog
matrix.  A change that alters any of them must do so on purpose and say
why; ``PYTHONPATH=src python tests/test_golden.py`` rewrites them.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qkdlab import analysis, cli, gates, protocols

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "7"
CELLS = [
    (protocol, scenario.value, eve.value)
    for protocol in ("bb84", "hdbb84", "ssp")
    for scenario, eve in protocols.CELLS
]
PAPER_FILES = ("results_bb84.csv", "results_hdbb84.csv", "results_ssp.csv", "qber_with_eve.csv")
STDOUT_FILES = {
    "validate_gates.txt": ["validate-gates"],
    "hypothesis_table.txt": ["hypothesis-table"],
}


def _stdout(argv) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == cli.EXIT_OK
    return buffer.getvalue().encode()


RENDER_FORMATS = ("csv", "table")
SHORT_SHAPE = ("--trials", "150", "--raw-bits", "16", "--seed", "1")
BLOCK_SHAPE = ("--trials", "200", "--raw-bits", "200", "--seed", "3")
LONG_SHAPE = ("--trials", "2", "--raw-bits", "10000", "--seed", "1")


def _run_document(cell, fmt: str = "json", shape=("--seed", SEED)) -> bytes:
    protocol, scenario, eve = cell
    return _stdout(
        ["run", "--protocol", protocol, "--scenario", scenario, "--eve", eve,
         "--format", fmt, *shape]
    )


def _run_digest(cell, fmt: str = "json", shape=("--seed", SEED)) -> str:
    return hashlib.sha256(_run_document(cell, fmt, shape)).hexdigest()


def _render_digests() -> dict:
    return {
        f"{'/'.join(cell)}/{fmt}": _run_digest(cell, fmt)
        for cell in CELLS
        for fmt in RENDER_FORMATS
    }


def _dump_digest(tmp_dir: Path) -> str:
    path = tmp_dir / "catalog.json"
    _stdout(["validate-gates", "--dump", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reproduce_paper(out_dir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce-paper", "--seed", SEED, "--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_run_document_matches_golden_digest(cell):
    golden = json.loads((GOLDEN / "run_digests.json").read_text())
    assert _run_digest(cell) == golden["/".join(cell)]


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_short_run_document_matches_golden_digest(cell):
    # hdbb84 carries two bits a particle, so some of its 8-particle trials
    # sift no key and warn; the other cells keep a key in every trial, and
    # pyproject.toml makes a stray empty-key warning an error.
    golden = json.loads((GOLDEN / "short_digests.json").read_text())
    empty = cell[0] == "hdbb84"
    with pytest.warns(analysis.EmptySiftWarning) if empty else contextlib.nullcontext():
        document = _run_document(cell, shape=SHORT_SHAPE)
    assert hashlib.sha256(document).hexdigest() == golden["/".join(cell)]
    assert any(trial["key_size"] == 0 for trial in json.loads(document)["trials"]) == empty


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_multi_block_run_document_matches_golden_digest(cell):
    golden = json.loads((GOLDEN / "block_digests.json").read_text())
    assert _run_digest(cell, shape=BLOCK_SHAPE) == golden["/".join(cell)]


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_long_run_document_matches_golden_digest(cell):
    golden = json.loads((GOLDEN / "long_digests.json").read_text())
    assert _run_digest(cell, shape=LONG_SHAPE) == golden["/".join(cell)]


@pytest.mark.parametrize("fmt", RENDER_FORMATS)
@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_run_rendering_matches_golden_digest(cell, fmt):
    golden = json.loads((GOLDEN / "render_digests.json").read_text())
    assert _run_digest(cell, fmt) == golden[f"{'/'.join(cell)}/{fmt}"]


def test_reproduce_paper_tables_match_golden(tmp_path):
    _reproduce_paper(tmp_path)
    for name in PAPER_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "paper" / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(STDOUT_FILES))
def test_cli_stdout_matches_golden(name):
    assert _stdout(STDOUT_FILES[name]) == (GOLDEN / name).read_bytes()


def test_catalog_dump_matches_golden_digest(tmp_path):
    assert _dump_digest(tmp_path) == (GOLDEN / "catalog_dump.sha256").read_text().strip()


def _clear_catalog_caches():
    gates.catalog.cache_clear()
    gates.catalog_fingerprint.cache_clear()


def test_registering_a_protocol_leaves_paper_outputs_unchanged(tmp_path, monkeypatch):
    fingerprint = gates.catalog_fingerprint()
    table = _stdout(["hypothesis-table"]).decode().splitlines()
    copy = gates.ProtocolSpec("bb84copy", gates.PROTOCOLS["bb84"].bases)
    monkeypatch.setitem(gates.PROTOCOLS, copy.name, copy)
    _clear_catalog_caches()
    try:
        assert gates.catalog_fingerprint() == fingerprint
        golden = json.loads((GOLDEN / "run_digests.json").read_text())
        assert _run_digest(("bb84", "control", "none")) == golden["bb84/control/none"]
        _reproduce_paper(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(PAPER_FILES)
        for name in PAPER_FILES:
            assert (tmp_path / name).read_bytes() == (GOLDEN / "paper" / name).read_bytes(), name
        assert _stdout(["hypothesis-table"]).decode().splitlines() == [
            *table, "bb84copy       2      2    4"
        ]
        # The copy runs through its own conversion circuit to the same keys.
        documents = [
            json.loads(_stdout(["run", "--protocol", protocol, "--scenario", "conv",
                                "--eve", "hd", "--format", "json", "--seed", SEED]))
            for protocol in ("bb84", copy.name)
        ]
        documents[1]["config"]["protocol"] = "bb84"
        assert documents[0] == documents[1]
    finally:
        _clear_catalog_caches()


if __name__ == "__main__":
    import tempfile

    _reproduce_paper(GOLDEN / "paper")
    for name, argv in STDOUT_FILES.items():
        (GOLDEN / name).write_bytes(_stdout(argv))
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "catalog_dump.sha256").write_text(_dump_digest(Path(tmp)) + "\n")
    digests = {"/".join(cell): _run_digest(cell) for cell in CELLS}
    (GOLDEN / "run_digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    short = {"/".join(cell): _run_digest(cell, shape=SHORT_SHAPE) for cell in CELLS}
    (GOLDEN / "short_digests.json").write_text(json.dumps(short, indent=2, sort_keys=True) + "\n")
    block = {"/".join(cell): _run_digest(cell, shape=BLOCK_SHAPE) for cell in CELLS}
    (GOLDEN / "block_digests.json").write_text(json.dumps(block, indent=2, sort_keys=True) + "\n")
    long = {"/".join(cell): _run_digest(cell, shape=LONG_SHAPE) for cell in CELLS}
    (GOLDEN / "long_digests.json").write_text(json.dumps(long, indent=2, sort_keys=True) + "\n")
    (GOLDEN / "render_digests.json").write_text(
        json.dumps(_render_digests(), indent=2, sort_keys=True) + "\n"
    )

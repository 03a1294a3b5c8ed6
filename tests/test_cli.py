import argparse
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import analysis, cli, gates, protocols
from qkdlab.core import ContractError


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(columns: dict) -> list[dict]:
    """A document's trial table as the row dicts its output writes."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _columns(rows: list[dict]) -> dict:
    """Row dicts as a document's trial table of columns."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def test_run_json_round_trips(capsys):
    code, out, _ = _run(
        capsys,
        ["run", "--protocol", "bb84", "--scenario", "conv", "--eve", "hd",
         "--trials", "5", "--seed", "7", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert cli.render_json({**doc, "trials": _columns(doc["trials"])}) == out
    assert doc["aggregate"]["qber"] == 0.0
    assert doc["aggregate"]["alice_knowledge"] == 1.0
    assert doc["aggregate"]["matches"] == 1.0
    assert doc["config"]["scenario"] == "conv"
    assert doc["catalog_fingerprint"] == gates.catalog_fingerprint()


def test_run_output_is_byte_deterministic(capsys):
    argv = ["run", "--protocol", "ssp", "--eve", "standard", "--trials", "5",
            "--seed", "11", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_run_csv_has_trial_rows_and_mean(capsys):
    code, out, _ = _run(
        capsys,
        ["run", "--protocol", "bb84", "--trials", "3", "--seed", "7", "--format", "csv"],
    )
    assert code == 0
    assert "\r\n" in out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    assert rows[-1]["trial"] == "mean"
    assert float(rows[-1]["qber"]) == 0.0
    assert rows[0]["alice_knowledge"] == ""


def test_run_table_format_shows_percentages(capsys):
    code, out, _ = _run(
        capsys,
        ["run", "--protocol", "bb84", "--eve", "standard", "--trials", "5", "--seed", "7"],
    )
    assert code == 0
    assert "%" in out
    assert "protocol=bb84" in out


def test_run_rejects_zero_trials(capsys):
    code, _, err = _run(capsys, ["run", "--protocol", "bb84", "--trials", "0"])
    assert code == cli.EXIT_CONFIG
    assert "trials" in err


def test_run_rejects_oversized_raw_bits(capsys):
    # Fails on the bound before any array is allocated.
    code, _, err = _run(
        capsys, ["run", "--protocol", "bb84", "--raw-bits", "10000000000000"]
    )
    assert code == cli.EXIT_CONFIG
    assert "raw_bits" in err


def test_run_rejects_oversized_trials(capsys, monkeypatch):
    # Fails on the bound before any stream opens, which every run does first.
    def no_streams(*args, **kwargs):
        raise AssertionError("a run opened its streams")

    monkeypatch.setattr(protocols, "role_streams", no_streams)
    code, out, err = _run(
        capsys,
        ["run", "--protocol", "bb84", "--trials", str(protocols.MAX_TRIALS + 1)],
    )
    assert code == cli.EXIT_CONFIG
    assert "trials" in err
    assert out == ""


def test_run_rejects_invalid_pairing(capsys):
    code, _, err = _run(
        capsys, ["run", "--protocol", "bb84", "--scenario", "control", "--eve", "hd"]
    )
    assert code == cli.EXIT_CONFIG
    assert "eavesdropper" in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    cells = ("control/none", "conv/none", "relabel/none", "control/standard", "conv/hd", "relabel/hd")
    assert all(cell in err for cell in cells)


def test_run_rejects_a_partial_particle_in_one_line(capsys):
    code, out, err = _run(capsys, ["run", "--protocol", "hdbb84", "--raw-bits", "3"])
    assert code == cli.EXIT_CONFIG
    assert err == "error: raw_bits must be a multiple of 2, got 3\n"
    assert out == ""


def test_run_reports_a_simulation_error_in_one_line(capsys, monkeypatch):
    def boom(*args):
        raise ContractError("boom")

    monkeypatch.setattr(protocols, "run_experiment", boom)
    code, out, err = _run(capsys, ["run", "--protocol", "bb84"])
    assert code == cli.EXIT_VALIDATION == 1
    assert err == "error: boom\n"
    assert out == ""


def test_run_rejects_unknown_protocol():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--protocol", "b92"])
    assert excinfo.value.code == cli.EXIT_CONFIG


def test_main_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(2):
        _run(capsys, ["hypothesis-table"])
    assert len(parsers) == 2
    assert parsers[0] is parsers[1] is cli.build_parser()


def test_the_parser_accepts_a_protocol_registered_after_it_was_built(capsys, monkeypatch):
    _run(capsys, ["hypothesis-table"])  # builds the parser
    copy = gates.ProtocolSpec("bb84copy", gates.PROTOCOLS["bb84"].bases)
    monkeypatch.setitem(gates.PROTOCOLS, copy.name, copy)
    code, out, _ = _run(
        capsys,
        ["run", "--protocol", copy.name, "--trials", "1", "--raw-bits", "2", "--seed", "1",
         "--format", "json"],
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["config"]["protocol"] == copy.name
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--help"])
    assert excinfo.value.code == cli.EXIT_OK
    assert "{bb84,hdbb84,ssp,bb84copy}" in capsys.readouterr().out


def test_a_usage_error_leaves_later_calls_unchanged(capsys, monkeypatch):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--protocol", "nope"])
    assert excinfo.value.code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == (
        "qkdlab run: error: argument --protocol: invalid choice: 'nope' "
        "(choose from 'bb84', 'hdbb84', 'ssp')"
    )
    golden = json.loads((Path(__file__).parent / "golden" / "short_digests.json").read_text())
    argv = ["run", "--protocol", "bb84", "--format", "json", "--trials", "150", "--raw-bits", "16"]
    code, out, _ = _run(capsys, [*argv, "--seed", "1"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == golden["bb84/control/none"]
    # A seed is never carried over from an earlier call.
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    _, out, _ = _run(capsys, argv)
    assert json.loads(out)["config"]["seed"] == cli.DEFAULT_SEED != 1
    monkeypatch.setenv(cli.SEED_ENV, "123")
    _, out, _ = _run(capsys, argv)
    assert json.loads(out)["config"]["seed"] == 123


def test_run_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    code, out, _ = _run(
        capsys,
        ["run", "--protocol", "bb84", "--trials", "2", "--seed", "7",
         "--format", "json", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["config"]["trials"] == 2


def test_seed_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "123")
    _, out, _ = _run(
        capsys, ["run", "--protocol", "bb84", "--trials", "2", "--format", "json"]
    )
    assert json.loads(out)["config"]["seed"] == 123


def test_seed_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
    code, _, err = _run(capsys, ["run", "--protocol", "bb84", "--trials", "2"])
    assert code == cli.EXIT_CONFIG
    assert cli.SEED_ENV in err


@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_fails_before_any_side_effect(tmp_path, capsys, monkeypatch, source):
    out_dir = tmp_path / "new"
    argv = ["reproduce-paper", "--out-dir", str(out_dir)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv(cli.SEED_ENV, "-1")
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_CONFIG
    assert "seed" in err
    assert out == ""
    assert not out_dir.exists()


def test_seed_env_var_is_ignored_without_a_seed_option(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    for command, first_word in (("hypothesis-table", "protocol"), ("validate-gates", "PASS")):
        code, out, _ = _run(capsys, [command])
        assert code == cli.EXIT_OK, command
        assert out.startswith(first_word), command


def test_validate_gates_opens_no_random_stream(capsys, monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("validate-gates opened a random stream")

    monkeypatch.setattr(cli.RandomSource, "stream", no_stream)
    code, out, _ = _run(capsys, ["validate-gates"])
    assert code == cli.EXIT_OK
    assert out == (Path(__file__).parent / "golden" / "validate_gates.txt").read_text()


def test_validate_gates_takes_no_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["validate-gates", "--seed", "7"])
    assert excinfo.value.code == cli.EXIT_CONFIG


def test_validate_gates_passes_and_reports(capsys):
    code, out, _ = _run(capsys, ["validate-gates"])
    assert code == cli.EXIT_OK
    assert "FAIL" not in out
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert any("unitary[QidJ]" in line for line in lines)
    assert any("candidate[bruss]" in line for line in lines)
    assert out.strip().endswith("checks passed")


def test_validate_gates_dump_writes_catalog(tmp_path, capsys):
    dump_path = tmp_path / "catalog.json"
    code, _, _ = _run(capsys, ["validate-gates", "--dump", str(dump_path)])
    assert code == cli.EXIT_OK
    dump = json.loads(dump_path.read_text())
    names = {item["name"] for item in dump}
    assert {"X", "QidPhi", "CHJ", "QidConv3"} <= names
    entry = next(item for item in dump if item["name"] == "X")
    assert entry["dims"] == [2]
    assert entry["matrix"][0][1] == [1.0, 0.0]


def test_validate_gates_failure_exit_code(capsys, monkeypatch):
    broken = [gates.CheckResult("synthetic", False, "forced failure")]
    monkeypatch.setattr(cli.gates, "validate_catalog", lambda: broken)
    code, out, _ = _run(capsys, ["validate-gates"])
    assert code == cli.EXIT_VALIDATION
    assert "FAIL synthetic" in out


def test_a_non_unitary_catalog_entry_fails_validate_gates(capsys, monkeypatch):
    # The suite is the one place a gate is checked: a shear builds as an
    # entry, and only its unitary line fails.
    shear = gates._entry("Shear", (2,), [[1, 1], [0, 1]])
    catalog = (*gates.catalog(), shear)
    monkeypatch.setattr(gates, "catalog", lambda: catalog)
    failed = [check.name for check in gates.validate_catalog() if not check.passed]
    assert failed == ["unitary[Shear]"]
    code, out, _ = _run(capsys, ["validate-gates"])
    assert code == cli.EXIT_VALIDATION == 1
    assert "FAIL unitary[Shear]\n" in out
    assert out.endswith("53/54 checks passed\n")


def test_reproduce_paper_writes_tables_and_figure_data(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["reproduce-paper", "--seed", "2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    files = {p.name for p in tmp_path.iterdir()}
    assert files == {
        "results_bb84.csv",
        "results_hdbb84.csv",
        "results_ssp.csv",
        "qber_with_eve.csv",
    }
    rows = {
        row["scenario"]: row
        for row in csv.DictReader((tmp_path / "results_bb84.csv").read_text().splitlines())
    }
    assert set(rows) == {
        "control", "scenario1", "scenario2",
        "control_eve", "scenario1_eve", "scenario2_eve",
    }
    for label in ("control", "scenario1", "scenario2"):
        assert float(rows[label]["qber"]) == 0.0
        assert float(rows[label]["matches"]) == 1.0
    assert 0.22 <= float(rows["control_eve"]["qber"]) <= 0.28
    assert float(rows["scenario1_eve"]["qber"]) == 0.0
    assert float(rows["scenario1_eve"]["alice_knowledge"]) == 1.0

    figure = list(csv.DictReader((tmp_path / "qber_with_eve.csv").read_text().splitlines()))
    assert len(figure) == 9
    eve_free_rows = [r for r in figure if r["scenario"] != "control_eve"]
    assert all(float(r["qber"]) == 0.0 for r in eve_free_rows)


def test_hypothesis_table_lists_dimension_rule(capsys):
    code, out, _ = _run(capsys, ["hypothesis-table"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1].split() == ["bb84", "2", "2", "4"]
    assert lines[2].split() == ["hdbb84", "4", "2", "8"]
    assert lines[3].split() == ["ssp", "2", "3", "6"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--protocol", "bb84", "--trials", "1", "--out", "{missing}/doc.json"],
        ["validate-gates", "--dump", "{missing}/catalog.json"],
        ["reproduce-paper", "--out-dir", "{file}"],
    ],
    ids=["run-out", "validate-gates-dump", "reproduce-paper-out-dir"],
)
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, argv):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    paths = {"missing": tmp_path / "no-such-dir", "file": a_file}
    code, _, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: cannot ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--protocol", "bb84", "--out", "{missing}/doc.json"],
        ["validate-gates", "--out", "{missing}/report.txt"],
        ["validate-gates", "--dump", "{file}/catalog.json"],
        ["run", "--protocol", "bb84", "--out", "{dir}"],
        ["validate-gates", "--dump", "{dir}"],
        ["reproduce-paper", "--out-dir", "{paper}"],
        ["hypothesis-table", "--out", "{dir}"],
        # One file under two spellings: the dump would overwrite the report.
        ["validate-gates", "--out", "{dir}/report.txt", "--dump", "{dir}/../a-dir/report.txt"],
    ],
    ids=[
        "run-out", "validate-gates-out", "validate-gates-dump", "run-out-dir",
        "validate-gates-dump-dir", "reproduce-paper-table-dir", "hypothesis-table-out-dir",
        "validate-gates-out-is-dump",
    ],
)
def test_unwritable_output_path_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli.protocols, "run_experiment", no_work)
    monkeypatch.setattr(cli.gates, "validate_catalog", no_work)
    monkeypatch.setattr(cli, "_emit", no_work)
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    (tmp_path / "a-dir").mkdir()
    # reproduce-paper's second table is a directory.
    (tmp_path / "paper" / "results_hdbb84.csv").mkdir(parents=True)
    paths = {
        "missing": tmp_path / "no-such-dir",
        "file": a_file,
        "dir": tmp_path / "a-dir",
        "paper": tmp_path / "paper",
    }
    before = sorted(tmp_path.rglob("*"))
    code, out, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_is_one_error_line(unbuffered):
    # /dev/full fails every write.  Buffered, the write succeeds and only a
    # flush fails; the interpreter's own flush at exit must then not add an
    # "Exception ignored" report after the error line.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qkdlab.cli", "run", "--protocol", "bb84"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
def test_a_full_out_file_is_one_error_line(capsys):
    code, out, err = _run(capsys, ["run", "--protocol", "bb84", "--out", "/dev/full"])
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
def test_a_full_stdout_in_process_leaves_nothing_to_fail_at_close(capsys, monkeypatch):
    # The failed flush leaves the report buffered; closing the stream flushes
    # it again, as the interpreter does at exit, and must now succeed.
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        code = cli.main(["run", "--protocol", "bb84"])
        monkeypatch.undo()
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


# --- the result document: exact rows, exact means, the same JSON bytes ------

_KINDS = (
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0.0, 1.0, 0.5, 0.0001, 1e-05, 0.3333, 12.5]) | st.floats(0, 1),
)
_VALUES = st.one_of(st.none(), *_KINDS)
# A column's values: scalars of one kind, or None, as build_document writes
# them (the column writer looks a token up by value, and True == 1).
_COLUMN = st.sampled_from(_KINDS).flatmap(
    lambda kind: st.lists(st.none() | kind, min_size=1, max_size=8)
)
_DOCUMENTS = st.fixed_dictionaries(
    {
        "artifact_version": st.text(max_size=8),
        "catalog_fingerprint": st.text("0123456789abcdef", min_size=64, max_size=64),
        "config": st.dictionaries(st.text(max_size=8), st.one_of(st.text(max_size=8), _VALUES), max_size=7),
        # 1 to 300 rows cycling through a few drawn values a column: st.lists
        # alone rarely draws more than a few dozen.
        "trials": st.tuples(
            st.fixed_dictionaries(dict.fromkeys(cli._CSV_FIELDS, _COLUMN)), st.integers(1, 300)
        ).map(lambda drawn: {
            name: [values[i % len(values)] for i in range(drawn[1])]
            for name, values in drawn[0].items()
        }),
        "aggregate": st.fixed_dictionaries(
            {"trials": st.integers(1, 300), **{name: _VALUES for name in analysis.STATISTICS}}
        ),
    }
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_DOCUMENTS)
def test_render_json_equals_indented_json_dumps(doc):
    rows = {**doc, "trials": _rows(doc["trials"])}
    assert cli.render_json(doc) == json.dumps(rows, indent=2, sort_keys=True) + "\n"


@st.composite
def _records(draw) -> analysis.RunCounts:
    """A run's counts: 1 to 40 trials, one trial often, with one raw_len a
    record or one a trial, up to 64 or up to ``protocols.MAX_RAW_BITS``,
    some keys empty or every key, with or without an eavesdropper."""
    trials = draw(st.just(1) | st.integers(1, 40))
    raw_len = st.integers(1, draw(st.sampled_from([64, protocols.MAX_RAW_BITS])))
    if draw(st.booleans()):
        raw_lens = draw(st.lists(raw_len, min_size=trials, max_size=trials))
    else:
        raw_lens = [draw(raw_len)] * trials
    every_key_empty = draw(st.booleans())
    key_sizes = [
        0 if every_key_empty else draw(st.just(0) | st.just(n) | st.integers(0, n))
        for n in raw_lens
    ]
    errors = [
        np.array([draw(st.just(0) | st.integers(0, key_size)) for key_size in key_sizes])
        for _ in range(3 if draw(st.booleans()) else 1)
    ]
    eve = [None] * (3 - len(errors))
    return analysis.RunCounts(
        np.arange(trials), np.array(raw_lens), np.array(key_sizes), *errors, *eve
    )


def _exact(r: analysis.TrialResult) -> dict:
    """Each statistic of a trial as an exact Fraction from its counts alone,
    None where undefined."""
    def agreement(wrong):
        return None if wrong is None or not r.key_size else Fraction(r.key_size - wrong, r.key_size)

    return {
        "key_size": Fraction(r.key_size),
        "sift_fraction": Fraction(r.key_size, r.raw_len),
        "qber": Fraction(r.errors, max(r.key_size, 1)),
        "alice_knowledge": agreement(r.alice_errors),
        "bob_knowledge": agreement(r.bob_errors),
        "matches": Fraction(r.errors == 0),
    }


def _assert_exact(record, doc):
    """The document's rows and means, and each trial's statistics, against
    the exact Fractions of every trial's counts."""
    exact = [_exact(r) for r in record]
    for name in analysis.STATISTICS:
        values = [trial[name] for trial in exact if trial[name] is not None]
        mean = sum(values) / len(values) if values else None
        assert analysis.aggregate(record)[name] == mean, name
        assert doc["aggregate"][name] == (None if mean is None else round(float(mean), 4)), name
    for r, row, trial in zip(record, _rows(doc["trials"]), exact, strict=True):
        assert row["trial"] == r.trial
        assert type(row["key_size"]) is int and row["key_size"] == r.key_size
        assert type(row["matches"]) is bool
        assert row["matches"] is r.matches is (trial["matches"] == 1)
        for name in ("sift_fraction", "qber", "alice_knowledge", "bob_knowledge"):
            assert getattr(r, name) == trial[name], name
            value = trial[name]
            assert row[name] == (None if value is None else round(float(value), 4)), name


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_records())
def test_the_rows_and_means_of_any_record_equal_their_exact_fractions(record):
    _assert_exact(record, cli.build_document({"protocol": "bb84"}, record))


def test_a_record_whose_codes_would_overflow_int64_is_refused():
    # A document's code is numerator * (the longest raw_len + 1) + denominator:
    # with 2**30 - 1 raw bits a trial it stays below 2**60, in int64 even
    # where the record's columns are int32.
    bound = analysis._MAX_RAW_LEN
    assert bound == 2**30 - 1 > protocols.MAX_RAW_BITS
    counts = [np.array([bound, bound, 1]), np.array([bound - 1, 0, 1]),
              np.array([bound - 2, 0, 0]), np.array([0, bound, 1])]
    for dtype in (np.int64, np.int32):
        columns = [np.arange(3), np.array([bound, bound, 1]), *counts]
        record = analysis.RunCounts(*(c.astype(dtype) for c in columns))
        _assert_exact(record, cli.build_document({}, record))
    with pytest.raises(ContractError, match=f"raw_len <= {bound}"):
        analysis.RunCounts(np.arange(1), np.array([bound + 1]), *2 * [np.array([0])], None, None)
    with pytest.raises(ContractError, match="raw_len"):
        analysis.TrialResult(0, bound + 1, 0, 0, None, None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_records())
def test_the_column_writer_equals_the_row_writers(record):
    doc = cli.build_document({"protocol": "bb84"}, record)
    rows = _rows(doc["trials"])
    assert cli.render_json(doc) == (
        json.dumps({**doc, "trials": rows}, indent=2, sort_keys=True) + "\n"
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(cli._CSV_FIELDS)
    for row in [*rows, {**doc["aggregate"], "trial": "mean"}]:
        writer.writerow(["" if v is None else int(v) if isinstance(v, bool) else v
                         for v in map(row.get, cli._CSV_FIELDS)])
    assert cli.render_csv(doc) == buffer.getvalue()
    for result, row in zip(record, rows, strict=True):
        assert row["trial"] == result.trial and row["key_size"] == result.key_size
        assert row["matches"] is result.matches
        for name in ("sift_fraction", "qber", "alice_knowledge", "bob_knowledge"):
            value = getattr(result, name)
            assert row[name] == (None if value is None else round(float(value), 4)), name


GRID_CELLS = [
    (protocols.PROTOCOLS[name], scenario, eve)
    for name in gates.PAPER_PROTOCOLS
    for scenario, eve in protocols.CELLS
]


@pytest.mark.parametrize("trials,raw_bits", [(150, 16), (25, 200), (2, 10_000)])
def test_means_and_rows_equal_their_exact_fractions(trials, raw_bits):
    for spec, scenario, eve in GRID_CELLS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", analysis.EmptySiftWarning)
            results = protocols.run_experiment(spec, scenario, eve, trials, raw_bits, 3)
        means = analysis.aggregate(results)
        rows = _rows(cli.build_document({}, results)["trials"])
        for name in analysis.STATISTICS:
            # The oracle: every trial's value as an exact Fraction, then one mean.
            values = [value for r in results if (value := getattr(r, name)) is not None]
            assert means[name] == (Fraction(sum(values)) / len(values) if values else None)
        for r, row in zip(results, rows, strict=True):
            assert type(row["key_size"]) is int and row["key_size"] == r.key_size
            assert type(row["matches"]) is bool and row["matches"] == r.matches
            for name in ("sift_fraction", "qber", "alice_knowledge", "bob_knowledge"):
                value = getattr(r, name)
                assert row[name] == (None if value is None else round(float(value), 4)), name

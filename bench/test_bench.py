"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = run.Workload(run.GRID, trials=3, raw_bits=8)


@pytest.fixture
def bench(tmp_path):
    bench = run.Bench(ROOT, SMALL, 5, tmp_path)
    yield bench
    bench.close()


def test_traced_and_untraced_passes_give_identical_digests(bench):
    untraced = bench.run_pass()
    recorder = spans.Recorder()
    patch = spans.install(recorder, run.TARGETS)
    try:
        traced = bench.run_pass(recorder)
    finally:
        patch.restore()
    assert patch.absent == []
    assert len(untraced.digests) == len(run.GRID)
    assert traced.digests == untraced.digests
    assert bench.tally.attempted > 0 and bench.tally.failed == 0

    # Exact counts: 4 streams per trial, one reference re-run per trial
    # except in the control/none cells, which reuse it.
    layers = run.pass_layers(traced)
    trials = SMALL.trials * len(run.GRID)
    runs = trials + SMALL.trials * (len(run.GRID) - 3)
    assert layers["protocols.run_trial.calls"] == runs
    assert layers["core.stream.calls"] == 4 * runs
    assert layers["protocols.trial_reuse"] == trials / runs
    assert layers["gates.catalog_fingerprint.calls"] == len(run.GRID)
    for layer in run.LAYERS:
        assert layers[f"layer.{layer}.self_s"] > 0


def test_metrics_match_benchmark_json(bench):
    untraced = bench.run_pass()
    recorder = spans.Recorder()
    patch = spans.install(recorder, run.TARGETS)
    try:
        traced = bench.run_pass(recorder)
    finally:
        patch.restore()
    probe = {"import_s": 0.1, "catalog_s": 0.01, "first_trial_s": 0.02}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for printed, section in (
        (run.end_to_end([probe], [untraced], bench.tally), "end_to_end"),
        (run.per_layer([probe], [untraced], [traced]), "per_layer"),
    ):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: run.unit(name) for name in printed
        }
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)


def test_planted_bad_result_is_counted(bench):
    done = bench.run_pass()
    assert bench.tally.failed == 0
    name = run.cell_name(("bb84", "control", "none"))
    doc = json.loads(done.docs[name])
    doc["trials"][0]["qber"] = 0.1
    done.docs[name] = json.dumps(doc)
    bench.check(done, {})
    assert bench.tally.failed == 1
    assert bench.tally.failures == ["bb84/control/none: qber 0"]


def test_paper_tables_are_checked_against_the_oracle():
    oracle = checks.load_oracle(ROOT)
    qber, alice, bob = oracle["bb84"]
    good = {"key_size": 2500.0, "sift_fraction": 0.5, "qber": qber,
            "alice_knowledge": alice, "bob_knowledge": bob, "matches": 0.0}
    tally = checks.Tally()
    cell = ("bb84", "control", "standard")
    assert checks.check_cell(tally, oracle, cell, [(25, good)], 200)
    assert not checks.check_cell(tally, oracle, cell, [(25, dict(good, qber=0.1))], 200)
    assert tally.failures == ["bb84/control/standard: qber 0.1000 vs 0.2500"]


def test_absent_target_is_recorded_not_fatal():
    recorder = spans.Recorder()
    patch = spans.install(
        recorder,
        [
            spans.Target("qkdlab.protocols", "no_such_function", "x"),
            spans.Target("qkdlab.no_such_module", "f", "x"),
            spans.Target("qkdlab.cli", "_RENDERERS", "x", key="no_such_format"),
        ],
    )
    patch.restore()
    assert patch.absent == [
        "qkdlab.protocols.no_such_function",
        "qkdlab.no_such_module.f",
        "qkdlab.cli._RENDERERS['no_such_format']",
    ]


def test_self_time_excludes_child_spans(tmp_path):
    recorder = spans.Recorder()
    inner = recorder.wrapper("inner", lambda: time.sleep(0.02))
    outer = recorder.wrapper("outer", lambda: (inner(), time.sleep(0.01)))
    with recorder.span("root"):
        outer()
        outer()
    summary = recorder.summary()
    assert {name: calls for name, (calls, _) in summary.items()} == {"root": 1, "outer": 2, "inner": 2}
    assert 0.04 <= summary["inner"][1] < 0.06
    assert 0.02 <= summary["outer"][1] < 0.035
    assert summary["root"][1] < 0.01
    recorder.write(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0

"""qkdlab benchmark.

Run from the root of a qkdlab checkout::

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

One run is one single-threaded process for one workload.  Set-up is first
timed in fresh interpreters (``bench/probe.py``, median of several).  The
process then sets up in-process and runs the workload in passes through the
public CLI entry point, ``qkdlab.cli.main``, until ``--seconds`` is spent.
Every output of every pass is checked (``bench/checks.py``); the workload
inputs follow from ``--seed`` alone.

Times are reported in reference seconds: each measured interval is scaled
by the machine speed sampled during it (``bench/clock.py``), because shared
machines change speed by up to 2x while a run lasts.  The report line gives
the unscaled medians too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on traced passes (``bench/spans.py``) and
prints the per-layer metrics, including the tracing overhead.  A report line
with document digests, versions and sample counts comes before the result,
which is the last line of stdout.  Spans and the report are also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import checks
import spans
from clock import Clock, interpreter_speed, numpy_speed
from probe import set_up

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 9
OUT_DIR = ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

GRID = tuple((p, s, e) for p in checks.BASES for s, e in checks.PAPER_ROWS.values())
PAPER_FILES = tuple(f"results_{p}.csv" for p in checks.BASES) + ("qber_with_eve.csv",)


@dataclass(frozen=True)
class Workload:
    cells: tuple
    trials: int
    raw_bits: int
    paper: bool = False  # one reproduce-paper call instead of one run per cell


WORKLOADS = {
    # The run users make: reproduce-paper, 18 cells x 25 trials x 200 raw
    # bits.  Per-particle cost mixed with per-trial cost and the reference
    # control re-run.  Its trials and raw bits are the CLI defaults.
    "paper-grid": Workload(GRID, trials=25, raw_bits=200, paper=True),
    # Per-particle work dominates and per-trial cost vanishes.  The four
    # cells reach every encode, channel and decode function, and both cells
    # that interleave draws on one stream (eve_standard, relabel).
    "long-key": Workload(
        (
            ("bb84", "control", "none"),
            ("bb84", "control", "standard"),
            ("hdbb84", "conv", "hd"),
            ("ssp", "relabel", "hd"),
        ),
        trials=2,
        raw_bits=10_000,
    ),
    # Fixed per-trial cost dominates: stream creation, transcripts, Fraction
    # aggregation and rendering.  Some hdbb84 and ssp trials sift to empty.
    "short-trials": Workload(GRID, trials=150, raw_bits=16),
}


def _count_kept(counts, args, result) -> None:
    """Kept and offered particles at the sift boundary."""
    try:
        kept, offered = len(result[0].positions), len(args[1].kept)
    except (AttributeError, IndexError, TypeError):
        return
    counts["sift.kept"] += kept
    counts["sift.particles"] += offered


_P, _A, _C = "qkdlab.protocols", "qkdlab.analysis", "qkdlab.cli"
# Names as the callers resolve them: protocols calls core's measure and
# _sample through its own namespace, and the CLI looks renderers up in a table.
TARGETS = (
    spans.Target(_P, "measure", "core.measure"),
    spans.Target(_P, "_sample", "core.sample"),
    spans.Target("qkdlab.core", "RandomSource.stream", "core.stream"),
    spans.Target("qkdlab.gates", "catalog_fingerprint", "gates.catalog_fingerprint"),
    spans.Target(_P, "alice_draws", "protocols.draw"),
    spans.Target(_P, "pack_values", "protocols.draw"),
    spans.Target(_P, "encode_particle_control", "protocols.encode"),
    spans.Target(_P, "encode_particle_hd", "protocols.encode"),
    spans.Target(_P, "eve_standard", "protocols.channel"),
    spans.Target(_P, "eve_hd", "protocols.channel"),
    spans.Target(_P, "bob_decode_control", "protocols.decode"),
    spans.Target(_P, "bob_decode_scenario1", "protocols.decode"),
    spans.Target(_P, "bob_decode_scenario2", "protocols.decode"),
    spans.Target(_P, "run_trial", "protocols.run_trial"),
    spans.Target(_P, "sift", "protocols.sift", hook=_count_kept),
    spans.Target(_P, "run_experiment", "protocols.run_experiment"),
    spans.Target(_A, "qber", "analysis.score"),
    spans.Target(_A, "knowledge", "analysis.score"),
    spans.Target(_A, "aggregate", "analysis.aggregate"),
    spans.Target(_C, "build_document", "cli.render"),
    *(spans.Target(_C, "_RENDERERS", "cli.render", key=k) for k in ("table", "csv", "json")),
)
LAYERS = ("core", "gates", "protocols", "analysis", "cli")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "us_per_particle" in name:
        return "us"
    if name.endswith("per_particle"):
        return "1/particle"
    if name.endswith((".calls", ".empty_sift")):
        return "count"
    return "ratio"


def cell_name(cell) -> str:
    return ".".join(cell)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe(root: Path, workload: Workload, seed: int) -> dict[str, float]:
    """Time a cold set-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), json.dumps(workload.cells), str(seed)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class CellTimer:
    """Times every ``protocols.run_experiment`` call, i.e. every cell run."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.samples: list[tuple] = []  # (cell, seconds, trials, particles)

    def wrap(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.clock.mark()
            result = fn(*args, **kwargs)
            elapsed = self.clock.mark()
            call = signature.bind(*args, **kwargs).arguments
            spec = call["spec"]
            cell = (
                spec.name,
                getattr(call["scenario"], "value", call["scenario"]),
                getattr(call["eve"], "value", call["eve"]),
            )
            # Alice's particles; the reference control re-run is not counted.
            particles = call["trials"] * call["raw_bits"] // spec.bits_per_particle
            self.samples.append((cell, elapsed, call["trials"], particles))
            return result

        return timed


@dataclass
class Pass:
    """One pass; times are in reference seconds (see ``clock.py``)."""

    wall: float
    raw_wall: float
    cells: list
    docs: dict[str, str]
    empty_sift: int
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    digests: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.digests = {n: hashlib.sha256(d.encode()).hexdigest() for n, d in sorted(self.docs.items())}


class Bench:
    """Runs and checks passes of one workload through ``qkdlab.cli.main``."""

    def __init__(self, root: Path, workload: Workload, seed: int, out_dir: Path) -> None:
        from qkdlab import analysis, cli

        self.cli = cli
        self.empty_sift = getattr(analysis, "EmptySiftWarning", None)
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.oracle = checks.load_oracle(root)
        self.tally = checks.Tally()
        self.clock = Clock(numpy_speed)
        self.timer = CellTimer(self.clock)
        self._patch = spans.Patcher()
        if not self._patch.wrap(spans.Target("qkdlab.protocols", "run_experiment", "cell"), self.timer.wrap):
            raise RuntimeError("qkdlab.protocols.run_experiment is needed to time cells")

    def close(self) -> None:
        self._patch.restore()

    def commands(self) -> list[tuple[str, list[str]]]:
        w, seed = self.workload, str(self.seed)
        if w.paper:
            return [("reproduce-paper", ["reproduce-paper", "--seed", seed, "--out-dir", str(self.out_dir / "paper-grid")])]
        return [
            (
                cell_name(cell),
                ["run", "--protocol", cell[0], "--scenario", cell[1], "--eve", cell[2],
                 "--trials", str(w.trials), "--raw-bits", str(w.raw_bits), "--seed", seed,
                 "--format", "json"],
            )
            for cell in w.cells
        ]

    def run_pass(self, recorder: spans.Recorder | None = None) -> Pass:
        if self.workload.paper:
            for name in PAPER_FILES:
                (self.out_dir / "paper-grid" / name).unlink(missing_ok=True)
        begin = 0 if recorder is None else len(recorder.end)
        outputs, codes = {}, {}
        self.clock.on_pause = None if recorder is None else recorder.exclude
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.clock.start()
            try:
                for name, argv in self.commands():
                    buffer = io.StringIO()
                    root_span = contextlib.nullcontext() if recorder is None else recorder.span("cli.main")
                    try:
                        with root_span, contextlib.redirect_stdout(buffer):
                            codes[name] = self.cli.main(argv)
                    except (Exception, SystemExit):
                        traceback.print_exc()
                        codes[name] = None
                    outputs[name] = buffer.getvalue()
                self.clock.mark()
            finally:
                self.clock.stop()
        empty = 0
        for w in caught:
            if self.empty_sift is not None and issubclass(w.category, self.empty_sift):
                empty += 1
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if self.workload.paper:
            folder = self.out_dir / "paper-grid"
            outputs = {n: (folder / n).read_text() for n in PAPER_FILES if (folder / n).is_file()}
        done = Pass(self.clock.scaled, self.clock.raw, self.timer.samples, outputs, empty)
        self.timer.samples = []
        if recorder is not None:
            scale = done.wall / done.raw_wall
            done.spans = {n: (c, t * scale) for n, (c, t) in recorder.summary(begin).items()}
            done.counts = dict(recorder.counts)
            recorder.counts.clear()
        self.check(done, codes)
        return done

    def check(self, done: Pass, codes: dict) -> None:
        tally, w = self.tally, self.workload
        for name, code in codes.items():
            tally.check(f"{name}: exit code {code}", code == 0)
        if w.paper:
            checks.check_paper(tally, self.oracle, done.docs, w.trials, w.raw_bits)
            return
        for cell in w.cells:
            name = cell_name(cell)
            try:
                doc = json.loads(done.docs.get(name, ""))
                particles = w.raw_bits // checks.BITS[cell[0]]
                checks.check_document(tally, self.oracle, cell, doc, particles)
            except (KeyError, TypeError, ValueError) as exc:
                tally.check(f"{name}: document readable ({exc!r})", False)

    def measure(self, seconds: float, recorder: spans.Recorder | None = None) -> list[Pass]:
        """Run passes while the next one is expected to end within ``seconds``."""
        passes = []
        start = perf_counter()
        while True:
            begin = perf_counter()
            done = self.run_pass(recorder)
            done.docs = {}  # checked and digested; memory must not grow with passes
            passes.append(done)
            now = perf_counter()
            if now - start + (now - begin) > seconds:
                return passes


def cell_us(passes: list[Pass]) -> dict[tuple, float]:
    """Median over passes of µs per Alice particle, per cell."""
    samples = defaultdict(list)
    for done in passes:
        for cell, seconds, _, particles in done.cells:
            samples[cell].append(seconds * 1e6 / particles)
    return {cell: median(values) for cell, values in samples.items()}


SETUP_STEPS = ("import_s", "catalog_s", "first_trial_s")


def end_to_end(probes, passes, tally) -> dict[str, float]:
    per_cell = cell_us(passes).values()
    return {
        "setup_s": median(sum(p[step] for step in SETUP_STEPS) for p in probes),
        "wall_s": median(p.wall for p in passes),
        "us_per_particle_p50": median(per_cell),
        "us_per_particle_max": max(per_cell),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "check_pass_ratio": 1 - tally.failed / tally.attempted,
    }


def pass_layers(done: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    calls = {n: c for n, (c, _) in done.spans.items()}
    own = {n: t for n, (_, t) in done.spans.items()}

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    particles = sum(sample[3] for sample in done.cells)
    trials = sum(sample[2] for sample in done.cells)
    offered = done.counts.get("sift.particles", 0)
    values = {
        "core.measure.calls": c("core.measure"),
        "core.measure.self_s": s("core.measure"),
        "core.measure.per_particle": (c("core.measure") + c("core.sample")) / particles,
        "core.sample.calls": c("core.sample"),
        "core.sample.self_s": s("core.sample"),
        "core.stream.calls": c("core.stream"),
        "core.stream.self_s": s("core.stream"),
        "gates.catalog_fingerprint.calls": c("gates.catalog_fingerprint"),
        "gates.catalog_fingerprint.self_s": s("gates.catalog_fingerprint"),
        "protocols.draw.self_s": s("protocols.draw"),
        "protocols.encode.self_s": s("protocols.encode"),
        "protocols.channel.self_s": s("protocols.channel"),
        "protocols.decode.self_s": s("protocols.decode"),
        "protocols.run_trial.calls": c("protocols.run_trial"),
        "protocols.run_trial.self_s": s("protocols.run_trial"),
        "protocols.trial_reuse": trials / c("protocols.run_trial") if c("protocols.run_trial") else 0.0,
        "protocols.sift.self_s": s("protocols.sift"),
        "protocols.sift.keep_ratio": done.counts.get("sift.kept", 0) / offered if offered else 0.0,
        "protocols.run_experiment.self_s": s("protocols.run_experiment"),
        "analysis.score.self_s": s("analysis.score"),
        "analysis.aggregate.self_s": s("analysis.aggregate"),
        "analysis.empty_sift": done.empty_sift,
        "cli.render.self_s": s("cli.render"),
        "cli.main.self_s": s("cli.main"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(t for n, t in own.items() if n.split(".")[0] == layer)
    return values


def per_layer(probes, untraced, traced) -> dict[str, float]:
    layered = [pass_layers(done) for done in traced]
    # median_low keeps counts whole numbers; they are the same in every pass.
    values = {
        name: (median_low if unit(name) == "count" else median)(v[name] for v in layered)
        for name in layered[0]
    }
    for step in SETUP_STEPS:
        values[f"setup.{step}"] = median(p[step] for p in probes)
    values["trace.overhead"] = median(p.wall for p in traced) / median(p.wall for p in untraced) - 1
    per_cell = cell_us(untraced)
    for cell in GRID:
        values[f"cell.{cell_name(cell)}.us_per_particle"] = per_cell.get(cell, 0.0)
    return values


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS threads before numpy is first imported (checks, spans and
    # qkdlab import it lazily); the probes inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    if not (root / "src" / "qkdlab" / "__init__.py").is_file() or not (root / "tests" / "oracle.py").is_file():
        print("error: run from the root of a qkdlab checkout (src/qkdlab and tests/oracle.py are needed)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    # The first probe compiles bytecode and warms file caches; it is not counted.
    probes = [probe(root, workload, args.seed) for _ in range(PROBES + 1)][1:]
    sys.path.insert(0, str(root / "src"))
    import numpy

    clock = Clock(interpreter_speed)
    clock.start()
    try:
        set_up(workload.cells, args.seed, clock)
    finally:
        clock.stop()
    bench = Bench(root, workload, args.seed, out_dir)
    traced, absent = [], []
    try:
        if args.trace:
            untraced = bench.measure(args.seconds / 2)
            recorder = spans.Recorder()
            patch = spans.install(recorder, TARGETS)
            absent = patch.absent
            try:
                traced = bench.measure(args.seconds / 2, recorder)
            finally:
                patch.restore()
            recorder.write(out_dir / f"spans-{args.workload}.npz")
            metrics = per_layer(probes, untraced, traced)
        else:
            untraced = bench.measure(args.seconds)
            metrics = end_to_end(probes, untraced, bench.tally)
    finally:
        bench.close()

    tally = bench.tally
    reference = untraced[0].digests
    changed = sorted({n for done in untraced + traced for n, d in done.digests.items() if reference.get(n) != d})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(root),
        },
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        # Unscaled medians, next to the reference-speed figures in the result.
        "raw": {
            "wall_s": median(p.raw_wall for p in untraced),
            "setup_s": median(p["raw_s"] for p in probes),
        },
        "setup_samples": len(probes),
        "cell_samples": {"cells": len(workload.cells), "passes": len(untraced)},
        "digests": reference,
        "digest_changes": changed,
        "absent": absent,
        "checks": {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_check_ratio": tally.failed / tally.attempted,
            "failures": tally.failures[:20],
        },
    }
    (out_dir / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

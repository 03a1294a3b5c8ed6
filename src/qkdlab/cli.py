"""Command-line front end: experiment runs, gate validation, result tables.

Exit codes: 0 on success, 1 when a validation suite fails, 2 for
configuration/usage errors and for output that cannot be written.

``main(argv)`` builds its parser once per process, on first use, so repeated
calls (tests, the benchmark harness) pay only the parse; a one-shot
``qkdlab`` command builds it once, as before.  ``--protocol`` reads the
registry ``protocols.PROTOCOLS`` when it parses, so a protocol registered
after that first call is accepted too, and usage lists the protocols in
registration order.

A result document (``build_document``) keeps its trial table as columns:
``doc["trials"]`` maps each of ``_CSV_FIELDS`` to a list, one value a trial:
ints for ``trial`` and ``key_size``, bools for ``matches``, and floats
rounded to four decimals, or None where undefined, for the other statistics.
No per-trial dict is built.  ``render_json`` writes, byte for byte,
``json.dumps`` of the document with row dicts for its trial table,
``indent=2, sort_keys=True``, plus a newline.  It looks each token up by
value, so this holds while every column has a value, all of one type or None
(a dict key cannot tell True from 1, or 0.0 from -0.0).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import __version__, analysis, gates, protocols
from .core import ConfigError, RandomSource, SimulationError

SEED_ENV = "QKDLAB_SEED"
DEFAULT_SEED = 7
DEFAULT_TRIALS = 25
DEFAULT_RAW_BITS = 200

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

def _resolve_seed(seed: int | None) -> int:
    """The ``--seed`` value, else ``QKDLAB_SEED``, else ``DEFAULT_SEED``;
    a negative seed is a ``ConfigError``."""
    if seed is None:
        raw = os.environ.get(SEED_ENV)
        try:
            seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc
    RandomSource(seed)  # raises ConfigError for a negative seed
    return seed


def _rounded(means: dict) -> dict:
    """``aggregate``'s Fractions to four decimals, by the one rounding rule of
    trial rows and means: ``round(n / d, 4)``, since ``n / d`` rounds
    correctly, as ``float(Fraction(n, d))`` does."""
    return {
        name: m if m is None else round(m.numerator / m.denominator, 4) for name, m in means.items()
    }


# The statistics a trial row writes to four decimals; key_size stays an int
# and matches a bool, as their numerators.
_ROUNDED = tuple(name for name in analysis.STATISTICS if name not in ("key_size", "matches"))


def build_document(config: dict, results) -> dict:
    """The result document of a run's counts: the trial table as columns
    (module docstring) and the means."""
    counts = analysis.RunCounts.of(results)
    columns = {"trial": counts.trial.tolist()}
    for name in analysis.STATISTICS:
        ratios = counts.ratio(name)
        if name not in _ROUNDED:
            columns[name] = list(ratios[0])
            continue
        # Rounded once per distinct (numerator, denominator, defined) triple.
        rounded = {r: round(r[0] / r[1], 4) if r[2] else None for r in set(zip(*ratios))}
        columns[name] = [rounded[r] for r in zip(*ratios)]
    return {
        "artifact_version": __version__,
        "catalog_fingerprint": gates.catalog_fingerprint(),
        "config": config,
        "trials": columns,
        "aggregate": {"trials": len(counts), **_rounded(analysis.aggregate(counts))},
    }


def _percent(value) -> str:
    return "" if value is None else f"{float(value) * 100:.2f}%"


def render_table(doc: dict) -> str:
    cfg = doc["config"]
    agg = doc["aggregate"]
    lines = [
        " ".join(f"{k}={cfg[k]}" for k in ("protocol", "scenario", "eve", "trials", "raw_bits", "seed")),
        f"catalog={doc['catalog_fingerprint'][:16]} version={doc['artifact_version']}",
        "",
        f"{'':12}{'Key Size':>16}{'QBER':>10}{'Alice Know.':>14}{'Bob Know.':>12}{'Matches':>10}",
    ]
    key_size = f"{agg['key_size']:.2f} ({_percent(agg['sift_fraction'])})"
    lines.append(
        f"{'mean':12}{key_size:>16}{_percent(agg['qber']):>10}"
        f"{_percent(agg['alice_knowledge']):>14}{_percent(agg['bob_knowledge']):>12}"
        f"{_percent(agg['matches']):>10}"
    )
    return "\n".join(lines) + "\n"


_CSV_FIELDS = ("trial", *analysis.STATISTICS)


def _csv_text(fields, rows) -> str:
    """A header line and one line per row of values in ``fields`` order,
    CRLF-terminated; None is written empty and a bool as 0 or 1."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(fields)
    writer.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)
    return buffer.getvalue()


def render_csv(doc: dict) -> str:
    trials, agg = doc["trials"], {**doc["aggregate"], "trial": "mean"}
    rows = zip(*(trials[field] for field in _CSV_FIELDS))
    return _csv_text(_CSV_FIELDS, [*rows, [agg[field] for field in _CSV_FIELDS]])


def _trial_rows(columns: dict) -> list[str]:
    """The trial rows at the depth and separators of ``indent=2``: each
    column's distinct values in one call of the C encoder, then one row
    template, its keys sorted, filled once a trial."""
    names = sorted(columns)
    template = "{\n      " + ",\n      ".join(f"{json.dumps(n)}: %s" for n in names) + "\n    }"
    tokens = []
    for name in names:
        distinct = list(dict.fromkeys(columns[name]))
        # A scalar's JSON token never holds ", ", the encoder's item separator.
        token = dict(zip(distinct, json.dumps(distinct)[1:-1].split(", ")))
        tokens.append(map(token.__getitem__, columns[name]))
    return list(map(template.__mod__, zip(*tokens)))


def render_json(doc: dict) -> str:
    """The bytes of ``json.dumps`` of the document with row dicts for its
    trial table, ``indent=2, sort_keys=True``, plus a newline (module docstring)."""
    text = json.dumps({**doc, "trials": None}, indent=2, sort_keys=True)
    # Only a top-level key starts a line indented by two spaces.
    slot = '\n  "trials": '
    head, _, tail = text.partition(slot + "null")
    # One join writes the whole text once: the head opens the first row and
    # the tail closes the last, so the row separator joins everything.
    rows = _trial_rows(doc["trials"])
    rows[0] = f"{head}{slot}[\n    {rows[0]}"
    rows[-1] = f"{rows[-1]}\n  ]{tail}\n"
    return ",\n    ".join(rows)


_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def _check_writable(*paths: str | Path | None) -> None:
    """Fail before any work when an output path is a directory, its
    directory is missing, or another output already names it."""
    seen = set()
    for out in paths:
        if out is None:
            continue
        if Path(out).is_dir():
            raise ConfigError(f"cannot write {out}: it is a directory")
        if not Path(out).parent.is_dir():
            raise ConfigError(f"cannot write {out}: {Path(out).parent} is not a directory")
        if Path(out).resolve() in seen:
            raise ConfigError(f"cannot write {out}: another output already writes it")
        seen.add(Path(out).resolve())


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the path ``out``, or to stdout when it is None; a
    failed write is a ``ConfigError``."""
    try:
        if out is not None:
            Path(out).write_text(text, encoding="utf-8", newline="")
            return
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if out is None:
            # The interpreter flushes stdout again at exit: send what is
            # still buffered to the null device, so it cannot fail twice.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {out or 'stdout'}: {exc.strerror}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    spec = protocols.PROTOCOLS[args.protocol]
    results = protocols.run_experiment(
        spec, args.scenario, args.eve, args.trials, args.raw_bits, args.seed
    )
    config = {
        "protocol": args.protocol,
        "scenario": args.scenario,
        "eve": args.eve,
        "trials": args.trials,
        "raw_bits": args.raw_bits,
        "seed": args.seed,
        "format": args.format,
    }
    doc = build_document(config, results)
    del results  # the document holds what the renderer reads; free the record first
    _emit(_RENDERERS[args.format](doc), args.out)
    return EXIT_OK


def cmd_validate_gates(args: argparse.Namespace) -> int:
    _check_writable(args.out, args.dump)
    checks = gates.validate_catalog()
    failures = 0
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failures += not check.passed
        detail = f"  ({check.detail})" if check.detail else ""
        lines.append(f"{status} {check.name}{detail}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    if args.dump is not None:
        _emit(json.dumps(gates.catalog_dump(), indent=2, sort_keys=True) + "\n", args.dump)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


_TABLE_FIELDS = ("scenario", *analysis.STATISTICS)


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc.strerror}") from exc
    table_paths = {name: out_dir / f"results_{name}.csv" for name in gates.PAPER_PROTOCOLS}
    figure_path = out_dir / "qber_with_eve.csv"
    _check_writable(*table_paths.values(), figure_path)
    qber_rows = []
    for name, table_path in table_paths.items():
        spec = protocols.PROTOCOLS[name]
        rows = []
        for (scenario, eve), label in protocols.CELLS.items():
            results = protocols.run_experiment(
                spec, scenario, eve, DEFAULT_TRIALS, DEFAULT_RAW_BITS, args.seed
            )
            means = _rounded(analysis.aggregate(results))
            rows.append([label, *means.values()])
            if eve is not protocols.EveModel.NONE:
                qber_rows.append([name, label, means["qber"]])
        _emit(_csv_text(_TABLE_FIELDS, rows), table_path)
        _emit(f"wrote {table_path}\n", None)
    _emit(_csv_text(("protocol", "scenario", "qber"), qber_rows), figure_path)
    _emit(f"wrote {figure_path}\n", None)
    return EXIT_OK


def cmd_hypothesis_table(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    lines = [f"{'protocol':10}{'d_ab':>6}{'bases':>7}{'d_e':>5}"]
    for name, spec in protocols.PROTOCOLS.items():
        lines.append(f"{name:10}{spec.d_ab:>6}{spec.basis_count:>7}{spec.d_e:>5}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description="Qudit QKD laboratory: protocol runs, gate validation, result tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment configuration")
    run.add_argument("--protocol", required=True, choices=protocols.PROTOCOLS)
    run.add_argument("--scenario", default="control", choices=[s.value for s in protocols.Scenario])
    run.add_argument("--eve", default="none", choices=[e.value for e in protocols.EveModel])
    run.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    run.add_argument("--raw-bits", type=int, default=DEFAULT_RAW_BITS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--format", default="table", choices=sorted(_RENDERERS))
    run.add_argument("--out", default=None, help="write the document to this path")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate-gates", help="run the gate property suite")
    validate.add_argument("--dump", default=None, help="also write the catalog as JSON")
    validate.add_argument("--out", default=None)
    validate.set_defaults(func=cmd_validate_gates)

    reproduce = sub.add_parser(
        "reproduce-paper",
        help="run the full protocol/scenario/eavesdropper grid and write CSV tables",
    )
    reproduce.add_argument("--seed", type=int, default=None)
    reproduce.add_argument("--out-dir", default="results")
    reproduce.set_defaults(func=cmd_reproduce_paper)

    hypothesis = sub.add_parser(
        "hypothesis-table",
        help="print the eavesdropper dimension rule d_e = d_ab * bases per protocol",
    )
    hypothesis.add_argument("--out", default=None)
    hypothesis.set_defaults(func=cmd_hypothesis_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Resolved and checked before any command writes or creates anything.
        if "seed" in vars(args):
            args.seed = _resolve_seed(args.seed)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SimulationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

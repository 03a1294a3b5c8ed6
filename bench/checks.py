"""Invariant checks on qkdlab result documents.

The checks test invariants, not bytes, so a declared change of stream layout
must still pass them:

* no eavesdropper: QBER 0 and matches 1;
* high-dimensional eavesdropper: QBER 0, both knowledges 1 and matches 1;
* standard eavesdropper: QBER and both knowledges inside a binomial band,
  sized from the sifted-bit count, around the independent intercept-resend
  oracle in ``tests/oracle.py``;
* every cell: the sift fraction inside a binomial band around 1/k.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
from pathlib import Path

# Band half-width in standard deviations: about 2e-9 false alarms per check,
# so thousands of checks per run never fail by chance.
Z = 6.0
# Documents round every statistic to four decimals.
ROUNDING = 1e-4

BASES = {"bb84": 2, "hdbb84": 2, "ssp": 3}
BITS = {"bb84": 1, "hdbb84": 2, "ssp": 1}

# reproduce-paper row labels -> (scenario, eve)
PAPER_ROWS = {
    "control": ("control", "none"),
    "scenario1": ("conv", "none"),
    "scenario2": ("relabel", "none"),
    "control_eve": ("control", "standard"),
    "scenario1_eve": ("conv", "hd"),
    "scenario2_eve": ("relabel", "hd"),
}
STATS = ("key_size", "sift_fraction", "qber", "alice_knowledge", "bob_knowledge", "matches")


def load_oracle(root: Path) -> dict[str, tuple[float, float, float]]:
    """Expected (qber, alice knowledge, bob knowledge) per protocol under the
    standard eavesdropper, from the repository's test oracle."""
    spec = importlib.util.spec_from_file_location("qkdlab_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.intercept_resend_oracle(name, BITS[name]) for name in BASES}


class Tally:
    """Checks attempted and failed, with the labels of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok


def _within(tally: Tally, label: str, value: float, expected: float, sigma: float) -> bool:
    return tally.check(
        f"{label} {value:.4f} vs {expected:.4f}",
        abs(value - expected) <= Z * sigma + ROUNDING,
    )


def check_cell(tally, oracle, cell, rows, particles_per_trial: int) -> bool:
    """Check one cell; ``rows`` is a list of (trials averaged, statistics).

    A result document gives one row per trial; a reproduce-paper table gives
    one row that averages all trials.  Returns True if every check passed.
    """
    protocol, scenario, eve = cell
    label = "/".join(cell)
    failed_before = tally.failed
    for _, row in rows:
        if eve != "standard":
            tally.check(f"{label}: qber 0", row["qber"] == 0)
            tally.check(f"{label}: matches 1", row["matches"] == 1)
        if eve == "hd" and row["key_size"] > 0:
            tally.check(
                f"{label}: knowledge 1",
                row["alice_knowledge"] == 1 and row["bob_knowledge"] == 1,
            )

    k = BASES[protocol]
    trials = sum(w for w, _ in rows)
    sift = sum(w * row["sift_fraction"] for w, row in rows) / trials
    sigma = math.sqrt((1 / k) * (1 - 1 / k) / (trials * particles_per_trial))
    _within(tally, f"{label}: sift fraction", sift, 1 / k, sigma)

    if eve == "standard":
        # Empty sifted keys score 0 by convention; leave them out of the band.
        kept = [(w, row) for w, row in rows if row["key_size"] > 0]
        if not tally.check(f"{label}: some key sifted", bool(kept)):
            return False
        weight = sum(w for w, _ in kept)
        inverse_bits = sum(w / row["key_size"] for w, row in kept)
        fields = ("qber", "alice_knowledge", "bob_knowledge")
        for field, expected in zip(fields, oracle[protocol]):
            mean = sum(w * row[field] for w, row in kept) / weight
            # Bits of one particle are correlated; bits_per_particle bounds
            # the variance inflation.
            var = BITS[protocol] * expected * (1 - expected) * inverse_bits / weight**2
            _within(tally, f"{label}: {field}", mean, expected, math.sqrt(var))
    return tally.failed == failed_before


def check_document(tally, oracle, cell, doc: dict, particles_per_trial: int) -> bool:
    """Check a ``qkdlab run --format json`` result document."""
    config = doc["config"]
    ok = tally.check(
        f"{'/'.join(cell)}: config",
        (config["protocol"], config["scenario"], config["eve"]) == tuple(cell),
    )
    rows = [(1, trial) for trial in doc["trials"]]
    return check_cell(tally, oracle, cell, rows, particles_per_trial) and ok


def _csv_rows(text: str) -> list[dict]:
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for field in STATS:
            value = row.get(field, "")
            row[field] = None if value in ("", None) else float(value)
        rows.append(row)
    return rows


def check_paper(tally, oracle, files: dict[str, str], trials: int, raw_bits: int) -> None:
    """Check the reproduce-paper CSVs: every grid cell, and the figure data
    against the tables."""
    table_qber = {}
    for protocol in BASES:
        rows = {row["scenario"]: row for row in _csv_rows(files.get(f"results_{protocol}.csv", ""))}
        for label, (scenario, eve) in PAPER_ROWS.items():
            cell = (protocol, scenario, eve)
            row = rows.get(label)
            if tally.check(f"{'/'.join(cell)}: row present", row is not None):
                table_qber[protocol, label] = row["qber"]
                check_cell(tally, oracle, cell, [(trials, row)], raw_bits // BITS[protocol])
    figure = list(csv.DictReader(io.StringIO(files.get("qber_with_eve.csv", ""))))
    tally.check("qber_with_eve: one row per eavesdropper cell", len(figure) == 9)
    for row in figure:
        key = (row["protocol"], row["scenario"])
        tally.check(
            f"qber_with_eve: {key} agrees with its table",
            key in table_qber and float(row["qber"]) == table_qber[key],
        )

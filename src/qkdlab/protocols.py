"""Key-exchange orchestration for BB84, its dim-4 variant, and the six-state
protocol, under three measurement scenarios and three eavesdropper models.

A protocol is a ``gates.ProtocolSpec``, its name and ordered basis matrices,
registered in ``gates.PROTOCOLS``.  Alice encodes value v in basis a as
``spec.encode(v, a)``, column v of ``bases[a]``; Bob decodes in basis b with
``spec.decode(b)``, ``bases[b]`` conjugate-transposed.  The dimensions
d_ab = len(column), k = len(bases) and d_e = d_ab * k follow from the matrices.

Scenarios
---------
control     The textbook protocol at the particle dimension d_ab.
conv        Alice's particle is carried by a qudit of the eavesdropper
            dimension d_e = d_ab * bases; a conversion circuit maps it back to
            a physical d_ab-dimensional state which Bob decodes as usual.
relabel     Alice's particle is the d_e basis state |v * k + a>.  Bob's gate
            for basis b permutes the basis digit a to (a - b) mod k, and he
            measures and relabels: an outcome with digit 0 (in his basis)
            gives the deterministic value, any other outcome (off-basis) is
            replaced by a uniformly random value.

Both high-dimensional scenarios are behaviourally equivalent to the control
run: with a fixed seed they produce identical sifted keys.  The high-
dimensional eavesdropper measures the d_e qudit in its computational basis,
which never disturbs the channel and reads off Alice's (value, basis) pair.

Outcome tables
--------------
Every channel state is one of the d_ab * k (value, basis) basis states, so
a scenario is its exact table: row [value, alice_basis, bob_basis] is the
cumulative distribution of the value Bob reads, d_ab entries in every
scenario, computed once per protocol.  Control decodes Alice's state
``spec.encode(value, basis)``; conv sums Bob's decode probabilities over the
rows of the conversion circuit's output, ``gates.conversion_output``;
relabel follows from the index convention alone: the point mass on the value
when the bases match, uniform over the d_ab values otherwise.  A trial
samples all of its kept particles at once by inverse CDF: a uniform draw u
picks the first value whose cumulative probability exceeds u.

The sampler reads the table flattened (``outcome_thresholds``): a read-only
``(d_ab - 1, d_ab * k * k)`` array whose column ``row =
spec.state_index(value, basis) * k + bob_basis``, the C-order flat index of
[value, basis, bob_basis], holds the first d_ab - 1 cumulative entries of
that table row.  A row is nondecreasing, so the number of those entries at
or below u is the sampled value, and the last entry (1 up to rounding) is
never needed.

Stream layout v3
----------------
A run opens one stream per (seed, role) once (``role_streams``), for the
roles its cell reads and no other: Alice's and Bob's four in every cell and
the two eavesdropper roles under the standard eavesdropper.  Each trial
reads the next block of exactly ``particles`` draws from every one of them:

alice-values  ``integers(0, d_ab, particles)``, one value per particle;
alice-bases   ``integers(0, bases, particles)`` encoding bases;
bob-bases     ``integers(0, bases, particles)``;
bob-measure   ``random(particles)``, one uniform per particle;
eve-bases     standard eavesdropper only: ``integers(0, bases, particles)``
              guessed bases;
eve-measure   standard eavesdropper only: ``random(particles)``.

The block size is fixed, so trial t reads elements [t * particles,
(t + 1) * particles) of each role's sequence.  Its draws do not depend on the
number of trials (the first T' trials of a T-trial run are a T'-trial run),
and one ``(trials, particles)`` draw per role gives the same arrays as the
trial-by-trial reads.  ``run_experiment`` reads each role that way, once per
block of at most ``BLOCK_PARTICLES`` (2**14) particles, at least one trial a
block, so its draws are the same as one call a trial.  Alice's and Bob's
roles are read the same way in every scenario and under every eavesdropper.

Sifting and scoring
-------------------
Every statistic is one of the sifted key, so a trial sifts first: ``sift``
returns the positions of the whole particles measured in matching bases, and
only those kept particles are sampled.  The trial takes Bob's uniforms and
the eavesdropper's bases and uniforms at the kept positions, and samples
Bob's value and the standard eavesdropper's intercept on the kept rows
alone.  Every role still reads its whole block, so no draw depends on which
particles were kept.

A trial returns the kept particles' values, Alice's, Bob's and the
eavesdropper's.  A block's trials are scored together: one
``analysis.score`` call counts every trial's sifted and differing bits as
ints, and the run returns all of its counts as one ``analysis.RunCounts``
record of int arrays, checked once.  No Fraction and no per-trial object is
built: ``analysis.aggregate`` builds the exact means from the arrays.

A trial "matches" when Bob's sifted key equals the key of the control run
without an eavesdropper on the same draws.  That key is Alice's: a kept
particle is decoded in the basis it was encoded in, and every such row of a
registered protocol's control table is exactly the step at the value sent,
so it samples the value sent whatever the uniform.  (In an unregistered
spec's table rounding may leave thresholds below the value sent, under
1e-30, which only a uniform of exactly 0.0 falls under.)  A trial therefore
matches when its key has no errors, and no reference is sampled.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import analysis, gates
from .core import ConfigError, ContractError, RandomSource, integral
from .gates import PROTOCOLS, ProtocolSpec, spec_cached


class Scenario(str, Enum):
    CONTROL = "control"
    CONVERSION = "conv"
    RELABEL = "relabel"


class EveModel(str, Enum):
    NONE = "none"
    STANDARD = "standard"
    HD = "hd"


# Upper bound on raw bits per trial.  A trial holds a few int64 and float64
# arrays per particle, its full blocks of draws, and the d_ab - 1 thresholds
# gathered for each kept particle, so its memory grows linearly with raw
# bits; at this bound a one-trial `run` peaks at 66-99 MB resident for the
# whole process (measured on numpy 2.4: hdbb84 conv/hd 66.0 MB, bb84
# control/none 86.9, bb84 control/standard 98.2, ssp relabel/hd 77.6),
# well under 1 GB.
MAX_RAW_BITS = 1_000_000

# Upper bound on trials per run.  A run's counts are a few int arrays, but
# every trial's document row and JSON text stay in memory until the document
# is written, about 1 KB each: `run --protocol bb84 --raw-bits 2 --format
# json` peaks at 57-60 MB resident with 20,000 trials and at 131 MB with
# 100,000 (numpy 2.4).
MAX_TRIALS = 100_000


BB84 = PROTOCOLS["bb84"]
HDBB84 = PROTOCOLS["hdbb84"]
SSP = PROTOCOLS["ssp"]


def _member(kind: type[Enum], name, what: str):
    try:
        return kind(name)
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(f"unknown {what} {name!r}; valid: {valid}") from None


# The (scenario, eavesdropper) cells that run, with their paper row labels, in
# `reproduce-paper` order: every scenario without an eavesdropper, plus
# intercept-resend in control and the high-dimensional attack in conv and
# relabel, which carry the d_e qudit.
CELLS = {
    (Scenario.CONTROL, EveModel.NONE): "control",
    (Scenario.CONVERSION, EveModel.NONE): "scenario1",
    (Scenario.RELABEL, EveModel.NONE): "scenario2",
    (Scenario.CONTROL, EveModel.STANDARD): "control_eve",
    (Scenario.CONVERSION, EveModel.HD): "scenario1_eve",
    (Scenario.RELABEL, EveModel.HD): "scenario2_eve",
}


def validate_pairing(scenario: Scenario, eve: EveModel) -> tuple[Scenario, EveModel]:
    """The scenario and eavesdropper for their names, if they form a cell of ``CELLS``."""
    scenario = _member(Scenario, scenario, "scenario")
    eve = _member(EveModel, eve, "eavesdropper")
    if (scenario, eve) not in CELLS:
        valid = ", ".join(f"{s.value}/{e.value}" for s, e in CELLS)
        raise ConfigError(
            f"eavesdropper {eve.value!r} does not pair with scenario {scenario.value!r}; "
            f"valid scenario/eavesdropper cells: {valid}"
        )
    return scenario, eve


@spec_cached
def outcome_table(spec: ProtocolSpec, scenario: Scenario) -> np.ndarray:
    """Cumulative outcome table [value, alice_basis, bob_basis, bob_value],
    read-only: each row is the distribution of the value Bob reads from one
    (value, basis) channel state.  The control table also serves the standard
    eavesdropper, who decodes in her guessed basis."""
    scenario = _member(Scenario, scenario, "scenario")
    k, d = spec.basis_count, spec.d_ab
    table = []
    for value, basis in np.ndindex(d, k):
        if scenario is Scenario.CONVERSION:
            output = gates.conversion_output(spec, spec.state_index(value, basis))
            rows = output[output.any(axis=1)]  # zero rows add nothing to what Bob reads
        else:
            rows = spec.encode(value, basis)[None]
        for bob_basis in range(k):
            if scenario is Scenario.RELABEL:
                # Bob's relabel gate for basis b sends |v * k + a> to the basis
                # state |v * k + (a - b) mod k>.  Digit 0, a = b, reads v; any
                # other digit is off-basis, replaced by a uniformly random value.
                p = np.eye(d)[value] if basis == bob_basis else np.full(d, 1.0 / d)
            else:
                p = sum(np.abs(spec.decode(bob_basis) @ row) ** 2 for row in rows)
            # Renormalizing keeps deterministic outcomes exact despite float residue.
            table.append(np.cumsum(p / float(p.sum())))
    return np.array(table).reshape(d, k, k, d)


@spec_cached
def outcome_thresholds(spec: ProtocolSpec, scenario: Scenario) -> np.ndarray:
    """``outcome_table`` flattened for ``_sample``, read-only (layout in the
    module docstring, Outcome tables)."""
    table = outcome_table(spec, scenario)
    return np.ascontiguousarray(table.reshape(-1, table.shape[-1])[:, :-1].T)


def _sample(thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of one outcome per particle from uniforms ``u``: the
    number of thresholds of column ``rows[i]`` at or below ``u[i]``."""
    return (u >= thresholds.take(rows, axis=1)).sum(0)


def role_streams(seed: int, scenario: Scenario, eve: EveModel) -> dict[str, np.random.Generator]:
    """One generator per role that the cell reads (stream layout v3), opened
    once per run."""
    scenario, eve = validate_pairing(scenario, eve)
    roles = ("alice-values", "alice-bases", "bob-bases", "bob-measure")
    if eve is EveModel.STANDARD:
        roles += ("eve-bases", "eve-measure")
    source = RandomSource(seed)
    return {role: source.stream(role) for role in roles}


def alice_draws(
    spec: ProtocolSpec, raw_bits: int, streams: dict[str, np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one value and one encoding basis per particle."""
    bits = spec.bits_per_particle
    particles = integral(raw_bits, "raw_bits", low=1, high=MAX_RAW_BITS, multiple=bits) // bits
    values = streams["alice-values"].integers(0, spec.d_ab, size=particles)
    bases = streams["alice-bases"].integers(0, spec.basis_count, size=particles)
    return values, bases


def sift(alice_bases: np.ndarray, bob_bases: np.ndarray) -> np.ndarray:
    """Positions of the whole particles measured in matching bases."""
    return np.flatnonzero(alice_bases == bob_bases)


# Particles per block of trials in ``run_experiment``: 2**14 int64 draws
# are 128 KB, glibc's default mmap threshold.  Larger blocks made long keys
# slower (bb84 control/standard at 20,000 particles a block).
BLOCK_PARTICLES = 2**14


class _BlockReader:
    """Stands in for one role's generator for the next ``trials`` equal
    draws.  The first ``integers`` or ``random`` call draws the whole
    ``(trials, size)`` block from the stream and returns row 0, each later
    call the next row; stream layout v3 makes these rows the draws that
    ``trials`` calls on the stream would return.  The block is dropped with
    its last row, so a one-trial block allocates and frees as the stream
    call does."""

    def __init__(self, stream: np.random.Generator, trials: int):
        self.stream, self.trials, self.row = stream, trials, 0
        self.call = self.block = None

    def integers(self, low, high, size):
        return self._next("integers", (low, high), size)

    def random(self, size):
        return self._next("random", (), size)

    def _next(self, name, bounds, size):
        call = (name, *bounds, size)
        if self.call is None:
            self.call = call
            self.block = getattr(self.stream, name)(*bounds, size=(self.trials, size))
        elif call != self.call or self.row == self.trials:
            raise ContractError(
                f"draw {self.row + 1} of a block of {self.trials} {self.call} asked for {call}"
            )
        row, self.row = self.block[self.row], self.row + 1
        if self.row == self.trials:
            self.block = None
        return row


def run_trial(
    spec: ProtocolSpec,
    scenario: Scenario,
    eve: EveModel,
    raw_bits: int,
    streams: dict[str, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Execute the next trial of a run: draw, sift, optional intercept,
    then Bob's value from the scenario's outcome table.  Returns the kept
    particles' ``(alice_values, bob_values, eve_values)``, ``eve_values``
    None without an eavesdropper.

    ``streams`` come from ``role_streams``; the trial reads the next block of
    each role its cell uses (stream layout v3, module docstring).  The kept
    particles are sampled at once.  The eavesdropper changes only the channel
    row Bob reads: the standard one replaces it by the state she resends, the
    high-dimensional one leaves it as it is and reads (value, basis) off it.
    Names are checked as ``validate_pairing`` does; a paired Scenario and
    EveModel, which ``run_experiment`` validated once, are taken as given.
    """
    if (type(scenario), type(eve)) != (Scenario, EveModel) or (scenario, eve) not in CELLS:
        scenario, eve = validate_pairing(scenario, eve)
    alice_values, alice_bases = alice_draws(spec, raw_bits, streams)
    particles, k = len(alice_bases), spec.basis_count
    bob_bases = streams["bob-bases"].integers(0, k, size=particles)
    u = streams["bob-measure"].random(particles)
    kept = sift(alice_bases, bob_bases)
    values, bases, u = alice_values.take(kept), alice_bases.take(kept), u.take(kept)

    # Flat outcome-table rows: one per (value, basis) sent, read in that basis.
    sent = spec.state_index(values, bases) * k
    eve_values = None
    if eve is EveModel.STANDARD:
        # Intercept-resend: Eve decodes in a guessed basis, then resends the
        # value she measured encoded in that basis.
        eve_bases = streams["eve-bases"].integers(0, k, size=particles).take(kept)
        eve_u = streams["eve-measure"].random(particles).take(kept)
        eve_values = _sample(outcome_thresholds(spec, Scenario.CONTROL), sent + eve_bases, eve_u)
        sent = spec.state_index(eve_values, eve_bases) * k
    elif eve is EveModel.HD:
        # The channel holds the basis state indexing (value, basis): the
        # measurement reads it deterministically and resends it unchanged.
        eve_values = values
    bob_values = _sample(outcome_thresholds(spec, scenario), sent + bases, u)
    return values, bob_values, eve_values


def run_experiment(
    spec: ProtocolSpec,
    scenario: Scenario,
    eve: EveModel,
    trials: int,
    raw_bits: int,
    seed: int,
) -> analysis.RunCounts:
    """Run several trials on one set of role streams and return their counts
    as one record; a trial's ``matches`` is defined in the module docstring
    (Sifting and scoring).  The trials run in blocks of at most
    ``BLOCK_PARTICLES`` particles, at least one trial a block; each role is
    read, and the block's kept values scored, once per block."""
    trials = integral(trials, "trials", low=1, high=MAX_TRIALS)
    scenario, eve = validate_pairing(scenario, eve)
    streams = role_streams(seed, scenario, eve)
    bits = spec.bits_per_particle
    raw_len = integral(raw_bits, "raw_bits", low=1, high=MAX_RAW_BITS, multiple=bits)
    per_block = max(1, BLOCK_PARTICLES // (raw_len // bits))
    blocks = []
    for start in range(0, trials, per_block):
        count = min(per_block, trials - start)
        readers = {role: _BlockReader(stream, count) for role, stream in streams.items()}
        kept = [run_trial(spec, scenario, eve, raw_bits, readers) for _ in range(count)]
        blocks.append(analysis.score(*_joined(kept), [len(values[0]) for values in kept], bits))
        del kept  # freed before the next block draws, as one trial's values were
    return analysis.RunCounts(np.arange(trials), np.full(trials, raw_len), *_joined(blocks))


def _joined(rows) -> list[np.ndarray | None]:
    """Each column of ``rows`` as one array, concatenated unless it holds one
    (or None); a trial as long as a block is not copied."""
    return [
        column[0] if len(column) == 1 or column[0] is None else np.concatenate(column)
        for column in zip(*rows)
    ]

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
when the bases match, uniform over the d_ab values otherwise.  A block of
trials samples all of its kept particles at once by inverse CDF: a uniform
draw u picks the first value whose cumulative probability exceeds u.  Where
every row Bob can read is certain, it samples nothing (Sifting and scoring).

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
roles its cell reads (``_channel_roles``): Alice's two and Bob's bases, Bob's
uniforms where his values are sampled (Sifting and scoring), and the
eavesdropper's two under the standard one.  Each trial reads the next block
of exactly ``particles`` draws from every role opened:

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
trial-by-trial reads.  ``run_experiment`` draws each role that way, once per
block of at most ``BLOCK_PARTICLES`` (2**14) particles, at least one trial a
block (``block_draws``); ``trial_draws`` gives a block's trials one at a
time, each role's row of its block, as ``run_trial`` takes them.  A role
not opened changes no other role's draws.

Integer roles are drawn with ``dtype=np.int32``.  For the bounds used here
numpy fills an int32 array with exactly the values of the int64 call and
consumes the same raw words, so the stream stays in step for the draws
that follow; ``test_int32_draws_equal_int64_draws_and_keep_the_stream_in_step``
pins this rule for every registered spec's d_ab and basis count.

Sifting and scoring
-------------------
Every statistic is one of the sifted key, so a block sifts first, in one
``sift`` call over its ``(trials, particles)`` bases (``_kept_draws``): the
flat C-order positions of the whole particles measured in matching bases,
which are each trial's positions, offset by its row's start, concatenated in
trial order.  One ``take`` a role at those positions gives the kept entries
of each role the channel reads, Alice's values always, her bases and Bob's
uniforms where Bob is sampled, and the eavesdropper's bases and uniforms
under the standard eavesdropper; each trial's kept count is the number of
positions in its row, one int array.  Only kept particles are sampled,
unless their rows are certain.  The block's draws are then freed, and the
channel (``_channel``) runs once on its kept entries: it samples the
standard eavesdropper's intercept and Bob's value, as int32 like the drawn
values, in one ``_sample`` call each.  The sampler is elementwise over
(row, uniform) pairs, which reach it in the order a trial-by-trial run
gives them, so every output is that of sifting and sampling each trial
alone.  Every role that is opened is drawn whole, so no draw depends on
which particles were kept or sampled.  ``run_trial`` runs the same two
functions on a block of one.

Without intercept-resend (eavesdropper none or hd) a kept particle reaches
Bob as the state sent and is read in the basis sent: column
``spec.state_index(v, a) * k + a`` of the thresholds.
``matched_rows_certain(spec, scenario)``, computed once per spec and
scenario, says whether every such column is exactly the step at the value
sent, threshold j equal to 1.0 for j >= v and 0.0 below, compared without
tolerance.  Where it holds the sampler returns the value sent for every
uniform in [0, 1), so the channel returns Alice's kept values as Bob's;
Bob's uniforms are not drawn and nothing is sampled.  It holds in all three
scenarios of every paper protocol.  A spec whose control or conv table keeps
rounding residue in such a row, below 1e-30, as most random-unitary specs
do, keeps sampling.  Under the standard eavesdropper, her guessed basis and
Bob's row after the resend are off-basis for some particles, so both are
sampled.

The channel returns the block's kept values, Alice's, Bob's and the
eavesdropper's.  With each trial's kept count, one ``analysis.score`` call
a block counts every trial's sifted and differing bits as ints, and the run
returns all of its counts as one ``analysis.RunCounts`` record of int
arrays, checked once.  No Fraction and no per-trial object is built:
``analysis.aggregate`` builds the exact means from the arrays.

A trial "matches" when Bob's sifted key equals the key of the control run
without an eavesdropper on the same draws.  That key is Alice's wherever
``matched_rows_certain(spec, Scenario.CONTROL)`` holds, as it does for every
registered protocol: a kept particle is decoded in the basis it was encoded
in, a row that samples the value sent whatever the uniform.  (Where it does
not, rounding leaves thresholds below the value sent, under 1e-30, which
only a uniform of exactly 0.0 falls under.)  A trial therefore matches when
its key has no errors, and no reference is sampled.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

import numpy as np

from . import analysis, gates
from .core import ConfigError, RandomSource, integral
from .gates import PROTOCOLS, ProtocolSpec, spec_cached


class Scenario(str, Enum):
    CONTROL = "control"
    CONVERSION = "conv"
    RELABEL = "relabel"


class EveModel(str, Enum):
    NONE = "none"
    STANDARD = "standard"
    HD = "hd"


# Upper bound on raw bits per trial.  A trial holds its full blocks of
# draws (int32 integers and float64 uniforms) while it sifts, and a few
# arrays per kept particle; the draws are freed before a cell that samples
# Bob's values gathers the d_ab - 1 thresholds of each kept particle.  Its
# memory grows linearly with raw bits; at this bound a one-trial `run` peaks
# at 49-84 MB resident for the whole process (measured on numpy 2.4:
# hdbb84 conv/hd 49.0 MB, ssp relabel/hd 59.5, bb84 control/none 61.4, and
# bb84 control/standard 84.1, which samples), well under 1 GB.
MAX_RAW_BITS = 1_000_000

# Upper bound on trials per run.  A run's counts are a few int arrays and the
# document's trial table a few lists, but its JSON text, a few hundred bytes a
# trial, is joined once in memory: `run --protocol bb84 --raw-bits 2 --format
# json` peaks at 49 MB resident with 20,000 trials and 99-101 MB with 100,000.
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


@spec_cached
def matched_rows_certain(spec: ProtocolSpec, scenario: Scenario) -> np.ndarray:
    """Whether every threshold column Bob reads in the basis sent is exactly
    the step at the value sent, as a read-only 0-d bool array (module
    docstring, Sifting and scoring)."""
    thresholds = outcome_thresholds(spec, scenario)
    states = np.arange(spec.d_e)
    values, bases = spec.value_basis(states)
    step = np.arange(spec.d_ab - 1)[:, None] >= values
    return np.array(np.array_equal(thresholds[:, states * spec.basis_count + bases], step))


def _sample(thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of one outcome per particle from uniforms ``u``: the
    number of thresholds of column ``rows[i]`` at or below ``u[i]``, as int32
    like the drawn values."""
    return (u >= thresholds.take(rows, axis=1)).sum(0, dtype=np.int32)


def _channel_roles(spec: ProtocolSpec, scenario: Scenario, eve: EveModel) -> tuple[str, ...]:
    """The roles whose kept entries ``_channel`` reads (module docstring)."""
    if eve is EveModel.STANDARD:
        return ("alice-values", "alice-bases", "bob-measure", "eve-bases", "eve-measure")
    if matched_rows_certain(spec, scenario):
        return ("alice-values",)
    return ("alice-values", "alice-bases", "bob-measure")


def role_streams(
    seed: int, scenario: Scenario, eve: EveModel, spec: ProtocolSpec
) -> dict[str, np.random.Generator]:
    """One generator per role that the cell reads for ``spec``, opened once
    per run: the sifted bases and ``_channel_roles`` (stream layout v3)."""
    scenario, eve = validate_pairing(scenario, eve)
    roles = ("alice-values", "alice-bases", "bob-bases", *_channel_roles(spec, scenario, eve))
    source = RandomSource(seed)
    return {role: source.stream(role) for role in dict.fromkeys(roles)}


def alice_draws(
    spec: ProtocolSpec, raw_bits: int, streams: dict[str, np.random.Generator], trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one value and one encoding basis per particle for the next
    ``trials`` trials, as two int32 ``(trials, particles)`` blocks."""
    bits = spec.bits_per_particle
    particles = integral(raw_bits, "raw_bits", low=1, high=MAX_RAW_BITS, multiple=bits) // bits
    shape = (trials, particles)
    values = streams["alice-values"].integers(0, spec.d_ab, size=shape, dtype=np.int32)
    bases = streams["alice-bases"].integers(0, spec.basis_count, size=shape, dtype=np.int32)
    return values, bases


def block_draws(
    spec: ProtocolSpec, raw_bits: int, streams: dict[str, np.random.Generator], trials: int
) -> dict[str, np.ndarray]:
    """Draw the next ``trials`` trials of every role in ``streams`` as one
    ``(trials, particles)`` block per role (stream layout v3)."""
    values, bases = alice_draws(spec, raw_bits, streams, trials)
    draws = {"alice-values": values, "alice-bases": bases}
    k, shape = spec.basis_count, values.shape
    for role, stream in streams.items():
        if role.endswith("-measure"):
            draws[role] = stream.random(shape)
        elif role not in draws:  # Bob's and the eavesdropper's bases
            draws[role] = stream.integers(0, k, shape, dtype=np.int32)
    return draws


def trial_draws(
    spec: ProtocolSpec, raw_bits: int, streams: dict[str, np.random.Generator], trials: int
) -> Iterator[dict[str, np.ndarray]]:
    """``block_draws`` as an iterator of one dict a trial, each role's 1-D
    row of its block, the draws ``run_trial`` takes."""
    draws = block_draws(spec, raw_bits, streams, trials)
    return (dict(zip(draws, rows)) for rows in zip(*draws.values()))


def sift(alice_bases: np.ndarray, bob_bases: np.ndarray) -> np.ndarray:
    """Flat C-order positions of the whole particles measured in matching
    bases, for one trial's 1-D arrays or a block's ``(trials, particles)``
    arrays: a block's are its trials' positions, each offset by its row's
    start, concatenated in trial order."""
    return np.flatnonzero(alice_bases == bob_bases)


# Particles per block of trials in ``run_experiment``: 2**14 float64 draws
# are 128 KB, glibc's default mmap threshold.  Larger blocks made long keys
# slower (bb84 control/standard at 20,000 particles a block).
BLOCK_PARTICLES = 2**14


def _kept_draws(
    spec: ProtocolSpec, scenario: Scenario, eve: EveModel, draws: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Sift a block at once, ``draws`` mapping each role to its ``(trials,
    particles)`` block: the kept entries of ``_channel_roles``, the trials'
    concatenated in trial order, and each trial's kept count, an int array."""
    kept = sift(draws["alice-bases"], draws["bob-bases"])
    # Trial t keeps the positions in [t * particles, (t + 1) * particles).  A
    # block of one, as every trial of over half a block is, needs no search.
    trials, particles = draws["alice-bases"].shape
    ends = np.arange(trials + 1) * particles
    counts = np.array([len(kept)]) if trials == 1 else np.diff(kept.searchsorted(ends))
    return {role: draws[role].take(kept) for role in _channel_roles(spec, scenario, eve)}, counts


def _channel(
    spec: ProtocolSpec, scenario: Scenario, eve: EveModel, kept: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The kept particles' ``(alice_values, bob_values, eve_values)`` from
    ``_kept_draws``'s entries, for any number of trials at once.  Pops each
    entry as it reads it, so that it is freed once used."""
    values = kept.pop("alice-values")
    # The hd eavesdropper reads (value, basis) off the basis state in the
    # channel deterministically and resends it unchanged.
    eve_values = values if eve is EveModel.HD else None
    if "bob-measure" not in kept:
        # Certain rows (``matched_rows_certain``): Bob reads the state sent in
        # the basis sent, a row that samples the value sent whatever the uniform.
        return values, values, eve_values
    k, bases = spec.basis_count, kept.pop("alice-bases")
    # Flat outcome-table rows: one per (value, basis) sent, read in that basis.
    sent = spec.state_index(values, bases) * k
    if eve is EveModel.STANDARD:
        # Intercept-resend: Eve decodes in a guessed basis, then resends the
        # value she measured encoded in that basis.
        eve_bases, eve_u = kept.pop("eve-bases"), kept.pop("eve-measure")
        eve_values = _sample(outcome_thresholds(spec, Scenario.CONTROL), sent + eve_bases, eve_u)
        del eve_u  # freed before Bob's sample, the peak of a long trial
        sent = spec.state_index(eve_values, eve_bases) * k
    bob_values = _sample(outcome_thresholds(spec, scenario), sent + bases, kept.pop("bob-measure"))
    return values, bob_values, eve_values


def run_trial(
    spec: ProtocolSpec, scenario: Scenario, eve: EveModel, draws: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Execute one trial on its draws: sift, optional intercept, then Bob's
    value from the scenario's outcome table.  Returns the kept particles'
    ``(alice_values, bob_values, eve_values)``, ``eve_values`` None without
    an eavesdropper.

    ``draws`` maps each role its cell reads to the trial's 1-D row of draws,
    as ``trial_draws`` yields them (stream layout v3, module docstring).
    The trial is a block of one for the code ``run_experiment`` runs: it is
    sifted, and its kept particles are sampled at once or, where
    ``matched_rows_certain`` holds without intercept-resend, Bob's values
    are Alice's (module docstring, Sifting and scoring).  The eavesdropper
    changes only the channel row Bob reads: the standard one replaces it by
    the state she resends, the high-dimensional one leaves it as it is and
    reads (value, basis) off it.  Names are checked as ``validate_pairing``
    does; a paired Scenario and EveModel are taken as given.
    """
    if (type(scenario), type(eve)) != (Scenario, EveModel) or (scenario, eve) not in CELLS:
        scenario, eve = validate_pairing(scenario, eve)
    kept, _ = _kept_draws(spec, scenario, eve, {role: row[None] for role, row in draws.items()})
    return _channel(spec, scenario, eve, kept)


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
    ``BLOCK_PARTICLES`` particles, at least one trial a block: each role is
    read once a block, and the block is sifted in one ``sift`` call and its
    kept particles sampled and scored together."""
    trials = integral(trials, "trials", low=1, high=MAX_TRIALS)
    scenario, eve = validate_pairing(scenario, eve)
    streams = role_streams(seed, scenario, eve, spec)
    bits = spec.bits_per_particle
    raw_len = integral(raw_bits, "raw_bits", low=1, high=MAX_RAW_BITS, multiple=bits)
    per_block = max(1, BLOCK_PARTICLES // (raw_len // bits))
    blocks = []
    for start in range(0, trials, per_block):
        draws = block_draws(spec, raw_bits, streams, min(per_block, trials - start))
        kept, counts = _kept_draws(spec, scenario, eve, draws)
        del draws  # freed before the channel runs
        blocks.append(analysis.score(*_channel(spec, scenario, eve, kept), counts, bits))
    # Each count column as one array; a run of one block is not copied.
    columns = [c[0] if len(c) == 1 or c[0] is None else np.concatenate(c) for c in zip(*blocks)]
    return analysis.RunCounts(np.arange(trials), np.full(trials, raw_len), *columns)

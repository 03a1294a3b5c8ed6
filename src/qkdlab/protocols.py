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
each scenario reduces to an exact table: row [value, alice_basis,
bob_basis] is the cumulative Born distribution of Bob's outcome, computed
once per protocol through the state-vector code (the encode and decode
matrices, the relabel permutations, and for conv the conversion circuit
applied as its two factors, ``gates.conversion_output``).  A trial
samples all of its particles at once by inverse CDF: a uniform draw u picks
the first outcome whose cumulative probability exceeds u.

The sampler reads the table flattened (``outcome_thresholds``): a read-only
``(d - 1, d_ab * k * k)`` array whose column ``row = spec.state_index(value,
basis) * k + bob_basis``, the C-order flat index of [value, basis, bob_basis],
holds the first d - 1 cumulative entries of that table row.  A row is
nondecreasing, so the number of those entries at or below u is the sampled
outcome, and the last entry (1 up to rounding) is never needed.

Stream layout v3
----------------
A run opens one stream per (seed, role) once (``role_streams``).  Each trial
reads the next block of exactly ``particles`` draws from every role its cell
uses, and from no other:

alice-values  ``integers(0, d_ab, particles)``, one value per particle;
alice-bases   ``integers(0, bases, particles)`` encoding bases;
bob-bases     ``integers(0, bases, particles)``;
bob-measure   ``random(particles)``, one uniform per particle;
relabel       relabel scenario only: ``integers(0, d_ab, particles)``
              replacement values, used where the outcome is off-basis;
eve-bases     standard eavesdropper only: ``integers(0, bases, particles)``
              guessed bases;
eve-measure   standard eavesdropper only: ``random(particles)``.

The block size is fixed, so trial t reads elements [t * particles,
(t + 1) * particles) of each role's sequence.  Its draws do not depend on the
number of trials (the first T' trials of a T-trial run are a T'-trial run),
and one ``(trials, particles)`` draw per role gives the same arrays as the
trial-by-trial reads.  Alice's and Bob's roles are read the same way in every
scenario and under every eavesdropper.

The reference for the cross-scenario "matches" flag, the control run without
an eavesdropper, reads the same alice, bob-bases and bob-measure draws, so it
is sampled from them instead of being run again.

Sifting and scoring
-------------------
A ``Transcript`` keeps the sampled arrays, read-only, one entry per particle.
Sifting keeps whole particles measured in matching bases and returns their
values; ``analysis.score`` counts the sifted bits and the differing bits of
those values directly, as ints, into the trial's ``TrialResult``.  No
Fraction is built per trial: ``analysis.aggregate`` builds the exact means.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analysis, gates
from .core import ConfigError, RandomSource, basis_state
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
# arrays per particle, the largest being the d - 1 thresholds gathered for
# each particle, so its memory grows linearly with raw bits; at this bound a
# one-trial `run` peaks at 77-133 MB resident for the whole process
# (measured on numpy 2.4: hdbb84 conv/hd 76.5 MB, bb84 control/none 90.6,
# bb84 control/standard 121.2, ssp relabel/hd 132.4), well under 1 GB.
MAX_RAW_BITS = 1_000_000

# Upper bound on trials per run.  Every trial's counts, document row and JSON
# text stay in memory until the document is written, about 1 KB each:
# `run --protocol bb84 --raw-bits 2 --format json` peaks at 58 MB resident
# with 20,000 trials and at 137 MB with 100,000 (numpy 2.4).
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


def validate_pairing(scenario: Scenario, eve: EveModel) -> tuple[Scenario, EveModel]:
    """The scenario and eavesdropper for their names, if they pair: standard
    intercept-resend runs only in the control scenario; the high-dimensional
    eavesdropper needs a d_e channel."""
    scenario = _member(Scenario, scenario, "scenario")
    eve = _member(EveModel, eve, "eavesdropper")
    if eve is EveModel.STANDARD and scenario is not Scenario.CONTROL:
        raise ConfigError("a standard eavesdropper only applies to the control scenario")
    if eve is EveModel.HD and scenario is Scenario.CONTROL:
        raise ConfigError("a high-dimensional eavesdropper needs the conv or relabel scenario")
    return scenario, eve


@spec_cached
def outcome_table(spec: ProtocolSpec, scenario: Scenario) -> np.ndarray:
    """Cumulative outcome table [value, alice_basis, bob_basis, outcome],
    read-only: each row is the Born distribution of Bob's outcome for one
    (value, basis) channel state.  The control table also serves the standard
    eavesdropper, who decodes in her guessed basis."""
    scenario = Scenario(scenario)
    k, d_e = spec.basis_count, spec.d_e
    rows = []
    for value, basis, bob_basis in np.ndindex(spec.d_ab, k, k):
        if scenario is Scenario.CONTROL:
            p = np.abs(spec.decode(bob_basis) @ spec.encode(value, basis)) ** 2
        elif scenario is Scenario.RELABEL:
            # Bob's relabel gate for basis b sends |v * k + a> to
            # |v * k + (a - b) mod k>: digit 0 marks an outcome in his basis.
            pairs = np.ndindex(spec.d_ab, k)
            targets = [spec.state_index(v, (a - bob_basis) % k) for v, a in pairs]
            relabel = np.eye(d_e, dtype=np.complex128)[:, targets]
            p = np.abs(relabel @ basis_state(d_e, spec.state_index(value, basis))) ** 2
        else:
            # Bob decodes the value ancilla; the other slots are traced out.
            output = gates.conversion_output(spec, spec.state_index(value, basis))
            p = np.sum(np.abs(spec.decode(bob_basis) @ output) ** 2, axis=1)
        # Renormalizing keeps deterministic outcomes exact despite float residue.
        rows.append(np.cumsum(p / float(p.sum())))
    table = np.array(rows).reshape(spec.d_ab, k, k, -1)
    table.setflags(write=False)
    return table


@spec_cached
def outcome_thresholds(spec: ProtocolSpec, scenario: Scenario) -> np.ndarray:
    """``outcome_table`` flattened for ``_sample``, read-only (layout in the
    module docstring, Outcome tables)."""
    table = outcome_table(spec, scenario)
    thresholds = np.ascontiguousarray(table.reshape(-1, table.shape[-1])[:, :-1].T)
    thresholds.setflags(write=False)
    return thresholds


def _sample(thresholds: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of one outcome per particle from uniforms ``u``: the
    number of thresholds of column ``rows[i]`` at or below ``u[i]``."""
    return (u >= thresholds.take(rows, axis=1)).sum(0)


def role_streams(seed: int) -> dict[str, np.random.Generator]:
    """One generator per role of stream layout v3, opened once per run."""
    source = RandomSource(seed)
    roles = (
        "alice-values", "alice-bases", "bob-bases", "bob-measure",
        "relabel", "eve-bases", "eve-measure",
    )
    return {role: source.stream(role) for role in roles}


def alice_draws(
    spec: ProtocolSpec, raw_bits: int, streams: dict[str, np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one value and one encoding basis per particle."""
    if raw_bits <= 0 or raw_bits % spec.bits_per_particle:
        raise ConfigError(
            f"raw_bits must be a positive multiple of {spec.bits_per_particle}"
        )
    if raw_bits > MAX_RAW_BITS:
        raise ConfigError(f"raw_bits must be at most {MAX_RAW_BITS}, got {raw_bits}")
    particles = raw_bits // spec.bits_per_particle
    values = streams["alice-values"].integers(0, spec.d_ab, size=particles)
    bases = streams["alice-bases"].integers(0, spec.basis_count, size=particles)
    return values, bases


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every random choice and measurement outcome of one trial, one
    read-only array entry per particle.

    ``kept`` is the mask ``alice_bases == bob_bases``.  ``control_values`` are
    Bob's outcomes for the same draws in the control scenario without an
    eavesdropper: the reference for cross-scenario matches.
    """

    spec: ProtocolSpec
    scenario: Scenario
    eve: EveModel
    alice_values: np.ndarray
    alice_bases: np.ndarray
    eve_values: np.ndarray | None
    eve_bases: np.ndarray | None
    bob_bases: np.ndarray
    bob_values: np.ndarray
    kept: np.ndarray
    control_values: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def sift(transcript: Transcript):
    """Keep whole particles measured in matching bases.

    Returns Alice's, Bob's and the eavesdropper's values at the kept
    particles (the eavesdropper's is None without one).
    """
    kept, eve = np.flatnonzero(transcript.kept), transcript.eve_values
    return (
        transcript.alice_values.take(kept),
        transcript.bob_values.take(kept),
        None if eve is None else eve.take(kept),
    )


def run_trial(
    spec: ProtocolSpec,
    scenario: Scenario,
    eve: EveModel,
    raw_bits: int,
    streams: dict[str, np.random.Generator],
) -> Transcript:
    """Execute the next trial of a run: draw, encode, optional intercept,
    decode.

    ``streams`` come from ``role_streams``; the trial reads the next block of
    each role its cell uses (stream layout v3, module docstring).  All
    particles are sampled at once from the protocol's outcome tables.
    """
    scenario, eve = validate_pairing(scenario, eve)
    alice_values, alice_bases = alice_draws(spec, raw_bits, streams)
    particles, k = len(alice_bases), spec.basis_count
    bob_bases = streams["bob-bases"].integers(0, k, size=particles)
    u = streams["bob-measure"].random(particles)

    # Flat outcome-table rows: one per (value, basis) sent and basis read.
    sent = spec.state_index(alice_values, alice_bases) * k
    rows = sent + bob_bases
    control = outcome_thresholds(spec, Scenario.CONTROL)
    control_values = _sample(control, rows, u)
    eve_values = eve_bases = None
    if eve is EveModel.STANDARD:
        # Intercept-resend: Eve decodes in a guessed basis, then resends the
        # value she measured encoded in that basis.
        eve_bases = streams["eve-bases"].integers(0, k, size=particles)
        eve_values = _sample(control, sent + eve_bases, streams["eve-measure"].random(particles))
        bob_values = _sample(control, spec.state_index(eve_values, eve_bases) * k + bob_bases, u)
    elif scenario is Scenario.CONTROL:
        bob_values = control_values
    else:
        if eve is EveModel.HD:
            # The channel holds the basis state indexing (value, basis): the
            # measurement reads it deterministically and resends it unchanged.
            eve_values, eve_bases = alice_values, alice_bases
        bob_values = _sample(outcome_thresholds(spec, scenario), rows, u)
        if scenario is Scenario.RELABEL:
            # A nonzero basis flag is an off-basis outcome, replaced by a
            # random value.
            bob_values, flags = spec.value_basis(bob_values)
            replacements = streams["relabel"].integers(0, spec.d_ab, size=particles)
            bob_values = np.where(flags != 0, replacements, bob_values)

    return Transcript(
        spec=spec,
        scenario=scenario,
        eve=eve,
        alice_values=alice_values,
        alice_bases=alice_bases,
        eve_values=eve_values,
        eve_bases=eve_bases,
        bob_bases=bob_bases,
        bob_values=bob_values,
        kept=alice_bases == bob_bases,
        control_values=control_values,
    )


def run_experiment(
    spec: ProtocolSpec,
    scenario: Scenario,
    eve: EveModel,
    trials: int,
    raw_bits: int,
    seed: int,
) -> list[analysis.TrialResult]:
    """Run several trials on one set of role streams and score each against
    its same-seed control run.

    The reference for the "matches" flag is the control-scenario trial without
    an eavesdropper, which shares Alice's and Bob's randomness by construction;
    each transcript carries it as ``control_values``.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    validate_pairing(scenario, eve)
    bits = spec.bits_per_particle
    streams = role_streams(seed)
    results = []
    for trial in range(trials):
        transcript = run_trial(spec, scenario, eve, raw_bits, streams)
        alice, bob, eve_values = sift(transcript)
        matches = not ((transcript.bob_values != transcript.control_values) & transcript.kept).any()
        results.append(analysis.score(trial, raw_bits, alice, bob, eve_values, bits, matches))
    return results

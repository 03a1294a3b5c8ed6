"""Full-length reference for one trial of stream layout v3.

``protocols.run_experiment`` sifts each trial first and samples only the
kept particles, those of a whole block of trials at once; ``run_trial`` runs
the same code on one trial.  This reference samples every particle, Bob's outcome and the standard
eavesdropper's intercept alike, and sifts nothing, so the tests can check
that the kernel's arrays are this reference's arrays masked by
``alice_bases == bob_bases``.  It also shows what the kernel never samples:
Bob's values off the kept particles, uniform in the relabel scenario, where
an off-basis outcome is replaced by a random value.  It keeps every
particle's bases, which the kernel does not return, and ``control_values``,
Bob's values in the control run without an eavesdropper on the same draws:
the reference that defines a trial's "matches" flag.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from qkdlab.core import RandomSource
from qkdlab.protocols import EveModel, Scenario, _sample, alice_draws, outcome_thresholds

ROLES = ("alice-values", "alice-bases", "bob-bases", "bob-measure", "eve-bases", "eve-measure")


class FullTranscript(NamedTuple):
    """Every random choice and outcome of one trial, one entry per particle."""

    alice_values: np.ndarray
    alice_bases: np.ndarray
    eve_values: np.ndarray | None
    eve_bases: np.ndarray | None
    bob_bases: np.ndarray
    bob_values: np.ndarray
    control_values: np.ndarray

    @property
    def mask(self) -> np.ndarray:
        return self.alice_bases == self.bob_bases


def full_streams(seed):
    """Every role of stream layout v3; a trial reads only those of its cell."""
    source = RandomSource(seed)
    return {role: source.stream(role) for role in ROLES}


def full_trial(spec, scenario, eve, raw_bits, streams) -> FullTranscript:
    """The next trial of a run, every particle sampled."""
    scenario, eve = Scenario(scenario), EveModel(eve)
    (alice_values,), (alice_bases,) = alice_draws(spec, raw_bits, streams, 1)
    particles, k = len(alice_bases), spec.basis_count
    bob_bases = streams["bob-bases"].integers(0, k, size=particles)
    u = streams["bob-measure"].random(particles)

    sent = spec.state_index(alice_values, alice_bases) * k
    control = outcome_thresholds(spec, Scenario.CONTROL)
    control_values = _sample(control, sent + bob_bases, u)
    eve_values = eve_bases = None
    if eve is EveModel.STANDARD:
        eve_bases = streams["eve-bases"].integers(0, k, size=particles)
        eve_values = _sample(control, sent + eve_bases, streams["eve-measure"].random(particles))
        sent = spec.state_index(eve_values, eve_bases) * k
    elif eve is EveModel.HD:
        eve_values, eve_bases = alice_values, alice_bases
    bob_values = _sample(outcome_thresholds(spec, scenario), sent + bob_bases, u)

    return FullTranscript(
        alice_values, alice_bases, eve_values, eve_bases, bob_bases, bob_values, control_values
    )


def masked(full: FullTranscript) -> tuple:
    """The reference's values at the kept particles, as ``run_trial``
    returns them: ``(alice_values, bob_values, eve_values)``."""
    mask = full.mask
    eve_values = None if full.eve_values is None else full.eve_values[mask]
    return full.alice_values[mask], full.bob_values[mask], eve_values

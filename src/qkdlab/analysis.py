"""Per-trial and aggregate statistics for key-exchange runs.

:data:`STATISTICS` names the six statistics a run is judged by, in the order
the result document and the CSV tables write them.  A :class:`TrialResult`
carries them under these names, and :func:`aggregate` returns their means
under the same names.  An empty sifted key scores QBER 0, as every trial
without an eavesdropper must, and knowledge None (undefined), which the
means skip, as they skip trials without an eavesdropper.

Fractions are kept exact (``fractions.Fraction``) so that repeated runs and
aggregations are bit-for-bit reproducible; rendering to percentages happens
only at the output layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ContractError

STATISTICS = ("key_size", "sift_fraction", "qber", "alice_knowledge", "bob_knowledge", "matches")


class EmptySiftWarning(UserWarning):
    """Raised when a statistic is computed over an empty sifted key."""


def _bit_errors(a, b, bits_per_particle: int, what: str, empty: str) -> tuple[int, int]:
    """Differing and total bits of two per-particle value arrays; the
    differing bits are the popcount of ``a ^ b``.  Warns on empty keys."""
    if not 1 <= bits_per_particle <= 8:
        raise ContractError(f"bits per particle must be 1..8, got {bits_per_particle}")
    if len(a) != len(b):
        raise ContractError(
            f"{what} lengths differ: {len(a) * bits_per_particle} vs {len(b) * bits_per_particle}"
        )
    if not len(a):
        warnings.warn(f"empty sifted key: {empty}", EmptySiftWarning)
        return 0, 0
    differing = int(np.count_nonzero(np.unpackbits((a ^ b).astype(np.uint8))))
    return differing, len(a) * bits_per_particle


def qber(alice, bob, bits_per_particle: int) -> Fraction:
    """Differing-bit fraction between the two sifted keys (0 on empty keys)."""
    errors, total = _bit_errors(alice, bob, bits_per_particle, "sifted key", "QBER treated as 0")
    return Fraction(errors, total) if total else Fraction(0)


def knowledge(eve_values, reference, bits_per_particle: int) -> Fraction | None:
    """Fraction of sifted bits where the eavesdropper's bit agrees (None on
    empty keys)."""
    errors, total = _bit_errors(
        eve_values, reference, bits_per_particle, "bit string", "knowledge undefined"
    )
    return Fraction(total - errors, total) if total else None


def intercept_resend_error(spec) -> Fraction:
    """Chance that an intercept-resend eavesdropper changes the value of a
    kept particle: she measures in a wrong basis with probability 1 - 1/k,
    and then Bob's outcome is uniform over the d_ab values."""
    return (1 - Fraction(1, spec.basis_count)) * (1 - Fraction(1, spec.d_ab))


def detection_probability(spec, compared_bits: int) -> float:
    """Chance that comparing K sifted bits exposes an intercept-resend
    eavesdropper: 1 - (1 - e)^(K / bits_per_particle), with e the
    per-particle :func:`intercept_resend_error`.  That is 1 - (3/4)^K for
    BB84, 1 - (2/3)^K for SSP and 1 - (5/8)^(K/2) for HD-BB84, whose bit
    pairs are compared whole."""
    if compared_bits < 0:
        raise ContractError("compared bit count must be non-negative")
    if compared_bits % spec.bits_per_particle:
        raise ContractError(
            f"compared bit count must be a multiple of {spec.bits_per_particle}"
        )
    particles = compared_bits // spec.bits_per_particle
    return 1.0 - float(1 - intercept_resend_error(spec)) ** particles


def _validate_fraction(name: str, value) -> None:
    if value is not None and not 0 <= value <= 1:
        raise ContractError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class TrialResult:
    """Statistics of a single key-exchange trial, named as in
    :data:`STATISTICS`; ``key_size`` counts sifted bits."""

    trial: int
    raw_len: int
    key_size: int
    qber: Fraction
    alice_knowledge: Fraction | None
    bob_knowledge: Fraction | None
    matches: bool

    def __post_init__(self) -> None:
        _validate_fraction("qber", self.qber)
        _validate_fraction("alice_knowledge", self.alice_knowledge)
        _validate_fraction("bob_knowledge", self.bob_knowledge)

    @property
    def sift_fraction(self) -> Fraction:
        return Fraction(self.key_size, self.raw_len)


def aggregate(results) -> dict[str, Fraction | None]:
    """Mean of each of :data:`STATISTICS` over the trials that have it, or
    None when no trial does."""
    results = list(results)
    if not results:
        raise ContractError("cannot aggregate an empty result list")
    means = {}
    for name in STATISTICS:
        present = [value for r in results if (value := getattr(r, name)) is not None]
        # Int and bool columns sum as ints, so each statistic builds one Fraction.
        means[name] = Fraction(sum(present)) / len(present) if present else None
    return means

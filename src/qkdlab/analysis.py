"""Per-trial and aggregate statistics for key-exchange runs.

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


class EmptySiftWarning(UserWarning):
    """Raised when a statistic is computed over an empty sifted key."""


def _bit_errors(a, b, bits_per_particle: int, what: str, statistic: str) -> tuple[int, int]:
    """Differing and total bits of two per-particle value arrays; the
    differing bits are the popcount of ``a ^ b``.  Warns on empty keys."""
    if not 1 <= bits_per_particle <= 8:
        raise ContractError(f"bits per particle must be 1..8, got {bits_per_particle}")
    if len(a) != len(b):
        raise ContractError(
            f"{what} lengths differ: {len(a) * bits_per_particle} vs {len(b) * bits_per_particle}"
        )
    if not len(a):
        warnings.warn(f"{statistic} of an empty sifted key treated as 0", EmptySiftWarning)
        return 0, 0
    differing = int(np.count_nonzero(np.unpackbits((a ^ b).astype(np.uint8))))
    return differing, len(a) * bits_per_particle


def qber(alice, bob, bits_per_particle: int) -> Fraction:
    """Differing-bit fraction between the two sifted keys (0 on empty keys)."""
    errors, total = _bit_errors(alice, bob, bits_per_particle, "sifted key", "QBER")
    return Fraction(errors, total) if total else Fraction(0)


def knowledge(eve_values, reference, bits_per_particle: int) -> Fraction:
    """Fraction of sifted bits where the eavesdropper's bit agrees."""
    errors, total = _bit_errors(
        eve_values, reference, bits_per_particle, "bit string", "knowledge"
    )
    return Fraction(total - errors, total) if total else Fraction(0)


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
    """Statistics of a single key-exchange trial."""

    trial: int
    raw_len: int
    sifted_len: int
    qber: Fraction
    knowledge_alice: Fraction | None
    knowledge_bob: Fraction | None
    matches_control: bool

    def __post_init__(self) -> None:
        _validate_fraction("qber", self.qber)
        _validate_fraction("knowledge_alice", self.knowledge_alice)
        _validate_fraction("knowledge_bob", self.knowledge_bob)

    @property
    def sift_fraction(self) -> Fraction:
        return Fraction(self.sifted_len, self.raw_len)


@dataclass(frozen=True)
class AggregateStats:
    """Arithmetic means over a list of trials plus the match rate."""

    trials: int
    mean_sifted_len: Fraction
    mean_sift_fraction: Fraction
    mean_qber: Fraction
    mean_knowledge_alice: Fraction | None
    mean_knowledge_bob: Fraction | None
    match_rate: Fraction


def _mean_optional(values) -> Fraction | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present, Fraction(0)) / len(present)


def aggregate(results) -> AggregateStats:
    results = list(results)
    if not results:
        raise ContractError("cannot aggregate an empty result list")
    n = len(results)
    return AggregateStats(
        trials=n,
        mean_sifted_len=Fraction(sum(r.sifted_len for r in results), n),
        mean_sift_fraction=sum((r.sift_fraction for r in results), Fraction(0)) / n,
        mean_qber=sum((r.qber for r in results), Fraction(0)) / n,
        mean_knowledge_alice=_mean_optional(r.knowledge_alice for r in results),
        mean_knowledge_bob=_mean_optional(r.knowledge_bob for r in results),
        match_rate=Fraction(sum(r.matches_control for r in results), n),
    )

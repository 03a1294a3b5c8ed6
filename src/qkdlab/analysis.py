"""Per-trial and aggregate statistics for key-exchange runs.

:data:`STATISTICS` names the six statistics a run is judged by, in the order
the result document and the CSV tables write them.  A :class:`TrialResult`
holds a trial's integer counts, and ``TrialResult.ratio`` states each
statistic once as a (numerator, denominator) pair of them; :func:`aggregate`
returns their means under the same names.  An empty sifted key scores QBER
0, as every trial without an eavesdropper must, and knowledge None
(undefined), which the means skip, as they skip trials without an
eavesdropper.  A trial matches when its sifted key has no errors, as the
``protocols`` module docstring argues (Sifting and scoring).

Trials are scored in integers (:func:`score`).  A ``fractions.Fraction`` is
built only for a mean, or when a trial's statistic is read as one; every mean
is exact, so repeated runs and aggregations are bit-for-bit reproducible.
Rendering to decimals happens only at the output layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ContractError


class EmptySiftWarning(UserWarning):
    """Raised when a statistic is computed over an empty sifted key."""


# Set bits of every byte: a value is below 2^8, so this counts the bits of one.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


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
    differing = int(_POPCOUNT.take(a ^ b).sum())
    return differing, len(a) * bits_per_particle


def _eve_errors(eve_values, reference, bits_per_particle: int) -> tuple[int, int]:
    return _bit_errors(eve_values, reference, bits_per_particle, "bit string", "knowledge undefined")


def _key_errors(alice, bob, bits_per_particle: int) -> tuple[int, int]:
    return _bit_errors(alice, bob, bits_per_particle, "sifted key", "QBER treated as 0")


# The QBER and the knowledge of a key of ``total`` bits with ``errors`` of
# them differing, as (numerator, denominator) pairs: QBER 0 on an empty key,
# and knowledge None there or without an eavesdropper (``errors`` None).
def _error_rate(errors: int, total: int) -> tuple[int, int]:
    return (errors, total) if total else (0, 1)


def _agreement(errors: int | None, total: int) -> tuple[int, int] | None:
    return None if errors is None or not total else (total - errors, total)


def _fraction(pair: tuple[int, int] | None) -> Fraction | None:
    return None if pair is None else Fraction(*pair)


def _checked(bits_per_particle: int, *keys) -> list[np.ndarray]:
    """``keys`` as arrays; raise unless each is one-dimensional and holds
    integers or bools, every one in [0, 2**bits_per_particle)."""
    bound = 2**bits_per_particle
    keys = [np.asarray(key) for key in keys]
    for key in keys:
        if key.ndim != 1:
            raise ContractError(f"a key must be one-dimensional, got shape {key.shape}")
        if key.size and key.dtype.kind not in "biu":
            raise ContractError(f"values must be integers, got dtype {key.dtype}")
        if key.size and not 0 <= int(key.min()) <= int(key.max()) < bound:
            raise ContractError(f"values must lie in [0, {bound}), got {key.min()}..{key.max()}")
    return keys


def qber(alice, bob, bits_per_particle: int) -> Fraction:
    """Differing-bit fraction between the two sifted keys (0 on empty keys)."""
    alice, bob = _checked(bits_per_particle, alice, bob)
    return Fraction(*_error_rate(*_key_errors(alice, bob, bits_per_particle)))


def knowledge(eve_values, reference, bits_per_particle: int) -> Fraction | None:
    """Fraction of sifted bits where the eavesdropper's bit agrees (None on
    empty keys)."""
    eve_values, reference = _checked(bits_per_particle, eve_values, reference)
    return _fraction(_agreement(*_eve_errors(eve_values, reference, bits_per_particle)))


def intercept_resend_error(spec) -> Fraction:
    """Chance that an intercept-resend eavesdropper changes the value of a
    kept particle: she measures in a wrong basis with probability 1 - 1/k,
    and then Bob's outcome is uniform over the d_ab values.  That holds only
    for mutually unbiased bases; any other spec is a ``ContractError``."""
    if not spec.mutually_unbiased:
        raise ContractError(f"{spec.name}: the closed form needs mutually unbiased bases")
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


# Each statistic of a trial as a (numerator, denominator) pair of its counts,
# or None where it is undefined; the keys, in order, are STATISTICS.
_RATIOS = {
    "key_size": lambda r: (r.key_size, 1),
    "sift_fraction": lambda r: (r.key_size, r.raw_len),
    "qber": lambda r: _error_rate(r.errors, r.key_size),
    "alice_knowledge": lambda r: _agreement(r.alice_errors, r.key_size),
    "bob_knowledge": lambda r: _agreement(r.bob_errors, r.key_size),
    "matches": lambda r: (int(r.matches), 1),
}
STATISTICS = tuple(_RATIOS)


@dataclass(frozen=True, slots=True)
class TrialResult:
    """Integer counts of a single key-exchange trial.

    ``key_size`` counts sifted bits and ``errors`` those where Bob's value
    differs from Alice's; ``alice_errors`` and ``bob_errors`` count those
    where the eavesdropper's differs from Alice's and from Bob's (None
    without one).  Each of :data:`STATISTICS` is an attribute of the same
    name: ``key_size`` as stored, ``matches`` as ``errors == 0`` (module
    docstring), the others as exact Fractions built from :meth:`ratio`.
    """

    trial: int
    raw_len: int
    key_size: int
    errors: int
    alice_errors: int | None
    bob_errors: int | None

    def __post_init__(self) -> None:
        if self.raw_len < 1:
            raise ContractError(f"raw_len must be at least 1, got {self.raw_len}")
        if not 0 <= self.key_size <= self.raw_len:
            raise ContractError(f"key_size must lie in [0, {self.raw_len}], got {self.key_size}")
        for name in ("errors", "alice_errors", "bob_errors"):
            count = getattr(self, name)
            if count is not None and not 0 <= count <= self.key_size:
                raise ContractError(f"{name} must lie in [0, {self.key_size}], got {count}")

    def ratio(self, name: str) -> tuple[int, int] | None:
        """Statistic ``name`` as a (numerator, denominator) pair of ints, or
        None where it is undefined."""
        return _RATIOS[name](self)

    @property
    def matches(self) -> bool:
        return self.errors == 0

    @property
    def sift_fraction(self) -> Fraction:
        return Fraction(*self.ratio("sift_fraction"))

    @property
    def qber(self) -> Fraction:
        return Fraction(*self.ratio("qber"))

    @property
    def alice_knowledge(self) -> Fraction | None:
        return _fraction(self.ratio("alice_knowledge"))

    @property
    def bob_knowledge(self) -> Fraction | None:
        return _fraction(self.ratio("bob_knowledge"))


def score(trial: int, raw_len: int, alice, bob, eve_values, bits_per_particle: int) -> TrialResult:
    """A trial's counts: its sifted bits, the bits where Bob's sifted values
    differ from Alice's and, with an eavesdropper, where hers differ from
    Alice's and from Bob's.  Warns on an empty key as :func:`qber` and
    :func:`knowledge` do."""
    errors, key_size = _key_errors(alice, bob, bits_per_particle)
    alice_errors = bob_errors = None
    if eve_values is not None:
        alice_errors = _eve_errors(eve_values, alice, bits_per_particle)[0]
        bob_errors = _eve_errors(eve_values, bob, bits_per_particle)[0]
    return TrialResult(trial, raw_len, key_size, errors, alice_errors, bob_errors)


def aggregate(results) -> dict[str, Fraction | None]:
    """Mean of each of :data:`STATISTICS` over the trials that have it, or
    None when no trial does."""
    results = list(results)
    if not results:
        raise ContractError("cannot aggregate an empty result list")
    means = {}
    for name, ratio in _RATIOS.items():
        # Numerators add as ints per denominator, so each mean builds one
        # Fraction per distinct denominator.
        sums, count = {}, 0
        for r in results:
            pair = ratio(r)
            if pair is not None:
                sums[pair[1]] = sums.get(pair[1], 0) + pair[0]
                count += 1
        means[name] = sum(Fraction(n, d) for d, n in sums.items()) / count if count else None
    return means

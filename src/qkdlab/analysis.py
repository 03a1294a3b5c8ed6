"""Per-trial and aggregate statistics for key-exchange runs.

:data:`STATISTICS` names the six statistics a run is judged by, in the order
the result document and the CSV tables write them.  :func:`score` counts a
block of trials at once, and a run's counts are one :class:`RunCounts`
record of int arrays, one entry a trial, whose items are each trial's
:class:`TrialResult`.  Each statistic is stated once, as numerator and
denominator counts of a trial's ints or a record's arrays (``_RATIOS``), and
:func:`aggregate` returns their means under the same names.  An empty sifted
key scores QBER 0, as every trial without an eavesdropper must, and
knowledge None (undefined), which the means skip, as they skip trials
without an eavesdropper.  A trial matches when its sifted key has no errors,
as the ``protocols`` module docstring argues (Sifting and scoring).

Trials are scored in integers.  A ``fractions.Fraction`` is built only for a
mean, one per statistic, or when a trial's statistic is read as one; every
mean is exact, so repeated runs and aggregations are bit-for-bit
reproducible.  Rendering to decimals happens only at the output layer.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from itertools import accumulate
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import ContractError, integral


class EmptySiftWarning(UserWarning):
    """Raised when a statistic is computed over an empty sifted key."""


# Set bits of every byte: a value is below 2^8, so this counts the bits of one.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def _warn_empty(what: str) -> None:
    warnings.warn(f"empty sifted key: {what}", EmptySiftWarning)


def _bit_errors(a, b, bits_per_particle: int, what: str, empty: str) -> tuple[int, int]:
    """Differing and total bits of two value arrays of checked width; the
    differing bits are the popcount of ``a ^ b``.  Warns on empty keys."""
    if len(a) != len(b):
        raise ContractError(
            f"{what} lengths differ: {len(a) * bits_per_particle} vs {len(b) * bits_per_particle}"
        )
    if not len(a):
        _warn_empty(empty)
        return 0, 0
    differing = int(_POPCOUNT.take(a ^ b).sum())
    return differing, len(a) * bits_per_particle


def _checked(bits_per_particle: int, *keys) -> tuple[int, list[np.ndarray]]:
    """``bits_per_particle`` (1..8) as an int and ``keys`` as arrays; raise unless
    each is one-dimensional and holds integers or bools, all in [0, 2**bits)."""
    bits = integral(bits_per_particle, "bits per particle", low=1, high=8, error=ContractError)
    bound = 2**bits
    keys = [np.asarray(key) for key in keys]
    for key in keys:
        if key.ndim != 1:
            raise ContractError(f"a key must be one-dimensional, got shape {key.shape}")
        if key.size and key.dtype.kind not in "biu":
            raise ContractError(f"values must be integers, got dtype {key.dtype}")
        if key.size and not 0 <= int(key.min()) <= int(key.max()) < bound:
            raise ContractError(f"values must lie in [0, {bound}), got {key.min()}..{key.max()}")
    return bits, keys


def qber(alice, bob, bits_per_particle: int) -> Fraction:
    """Differing-bit fraction between the two sifted keys (0 on empty keys)."""
    bits, (alice, bob) = _checked(bits_per_particle, alice, bob)
    errors, total = _bit_errors(alice, bob, bits, "sifted key", "QBER treated as 0")
    return Fraction(errors, max(total, 1))


def knowledge(eve_values, reference, bits_per_particle: int) -> Fraction | None:
    """Fraction of sifted bits where the eavesdropper's bit agrees (None on
    empty keys)."""
    bits, (eve_values, reference) = _checked(bits_per_particle, eve_values, reference)
    errors, total = _bit_errors(eve_values, reference, bits, "bit string", "knowledge undefined")
    return Fraction(total - errors, total) if total else None


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
    pairs are compared whole.  A K beyond the float range gives the limit."""
    compared_bits = integral(
        compared_bits, "compared bits", low=0, multiple=spec.bits_per_particle, error=ContractError
    )
    error = intercept_resend_error(spec)
    try:
        return 1.0 - float(1 - error) ** (compared_bits // spec.bits_per_particle)
    except OverflowError:  # float ** int converts the int: the power is its limit
        return 1.0 if error else 0.0


# Each statistic as numerator and denominator counts and whether it is
# defined, for one trial's ints and a record's arrays alike: QBER 0 on an
# empty key, and knowledge undefined there or without an eavesdropper
# (``errors`` None).  The keys, in order, are STATISTICS.
def _agreement(errors, total):
    return (0, 1, False) if errors is None else (total - errors, np.maximum(total, 1), total > 0)


_RATIOS = {
    "key_size": lambda r: (r.key_size, 1, True),
    "sift_fraction": lambda r: (r.key_size, r.raw_len, True),
    "qber": lambda r: (r.errors, np.maximum(r.key_size, 1), True),
    "alice_knowledge": lambda r: _agreement(r.alice_errors, r.key_size),
    "bob_knowledge": lambda r: _agreement(r.bob_errors, r.key_size),
    "matches": lambda r: (r.errors == 0, 1, True),
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
    docstring), the others as exact Fractions, None where undefined.
    """

    trial: int
    raw_len: int
    key_size: int
    errors: int
    alice_errors: int | None
    bob_errors: int | None

    def __post_init__(self) -> None:
        integral(self.raw_len, "raw_len", low=1, error=ContractError)
        integral(self.key_size, "key_size", low=0, high=self.raw_len, error=ContractError)
        integral(self.errors, "errors", low=0, high=self.key_size, error=ContractError)
        for name in ("alice_errors", "bob_errors"):
            if getattr(self, name) is not None:
                integral(getattr(self, name), name, low=0, high=self.key_size, error=ContractError)

    @property
    def matches(self) -> bool:
        return self.errors == 0

    sift_fraction = property(lambda self: _statistic(self, "sift_fraction"))
    qber = property(lambda self: _statistic(self, "qber"))
    alice_knowledge = property(lambda self: _statistic(self, "alice_knowledge"))
    bob_knowledge = property(lambda self: _statistic(self, "bob_knowledge"))


def _statistic(r: TrialResult, name: str) -> Fraction | None:
    """A trial's statistic ``name`` as an exact Fraction, None where undefined."""
    numerator, denominator, defined = _RATIOS[name](r)
    return Fraction(int(numerator), int(denominator)) if defined else None


@dataclass(frozen=True, eq=False)
class RunCounts(Sequence):
    """A run's counts as int arrays, one entry a trial, with the names and
    meaning of :class:`TrialResult`'s fields, checked once as arrays.
    Indexing and iterating give each trial's TrialResult, built when read,
    and a record equals any sequence of the same TrialResults."""

    trial: np.ndarray
    raw_len: np.ndarray
    key_size: np.ndarray
    errors: np.ndarray
    alice_errors: np.ndarray | None
    bob_errors: np.ndarray | None

    def __post_init__(self) -> None:
        eve = [c for c in (self.alice_errors, self.bob_errors) if c is not None]
        columns = [self.trial, self.raw_len, self.key_size, self.errors, *eve]
        counts = np.array(columns) if len({np.shape(c) for c in columns}) == 1 else None
        # Every count of every trial: 0 <= errors <= key_size <= raw_len, 1 <= raw_len.
        if counts is None or counts.ndim != 2 or counts.dtype.kind not in "iu" or counts.size and (
            counts.min() < 0 or counts[1].min() < 1 or (counts[2] > counts[1]).any()
            or (counts[3:] > counts[2]).any()
        ):
            raise ContractError("a run's counts must be one-dimensional int arrays, one entry a "
                                "trial, with 0 <= errors <= key_size <= raw_len and raw_len >= 1")

    @classmethod
    def of(cls, results) -> RunCounts:
        """``results`` if it is a record, else the record of its TrialResults
        (an eavesdropper's count is None where any trial's is)."""
        if isinstance(results, cls):
            return results
        results = list(results)
        columns = [[getattr(r, f.name) for r in results] for f in fields(cls)]
        return cls(*(None if None in c else np.array(c, dtype=np.int64) for c in columns))

    def ratio(self, name: str) -> tuple[tuple, tuple, tuple]:
        """Statistic ``name`` of every trial as numerator, denominator and
        defined tuples, one entry a trial."""
        return self._ratios[name]

    @cached_property
    def _ratios(self) -> dict[str, tuple[tuple, tuple, tuple]]:
        # Built once a record: the document's rows and aggregate both read it.
        trials = len(self.trial)
        return {
            name: tuple(
                tuple(p.tolist()) if isinstance(p, np.ndarray) else (p,) * trials for p in ratio(self)
            )
            for name, ratio in _RATIOS.items()
        }

    def __len__(self) -> int:
        return len(self.trial)

    def __getitem__(self, index):
        columns = [getattr(self, f.name) for f in fields(self)]
        if isinstance(index, slice):
            return RunCounts(*(c if c is None else c[index] for c in columns))
        index = range(len(self))[index]
        return TrialResult(*(c if c is None else c[index].item() for c in columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


# Kept values a trial from which ``score`` sums each trial's values alone: a
# running sum costs about 4 ns a value and a sum about 1 ns plus 2 us a call.
_LONG_TRIAL = 1024


def score(alice, bob, eve_values, kept, bits_per_particle: int) -> tuple:
    """The counts of a block of trials from their kept values, concatenated
    in trial order, trial i keeping ``kept[i]`` particles: each trial's
    sifted bits, and the bits where Bob's values differ from Alice's and
    where the eavesdropper's differ from Alice's and from Bob's (None
    without one).  Each pair is XORed and popcounted once; a trial's sum is
    the difference of the running sum at its two ends, or, for trials of
    ``_LONG_TRIAL`` values or more, the sum of its slice.  Warns for each
    empty key as :func:`qber` and :func:`knowledge` do."""
    bits = integral(bits_per_particle, "bits per particle", low=1, high=8, error=ContractError)
    total = sum(kept)
    keys = (alice, bob) if eve_values is None else (alice, bob, eve_values)
    if any(len(key) != total for key in keys):
        raise ContractError(f"a block keeps {total} values, got {[len(key) for key in keys]}")
    ends = [0, *accumulate(kept)]

    def differing(a, b):
        # A one-bit value is its own popcount.
        popcounts = a ^ b if bits == 1 else _POPCOUNT.take(a ^ b)
        if total >= _LONG_TRIAL * len(kept):  # long trials: a sum per trial
            return np.array([popcounts[i:j].sum() for i, j in zip(ends, ends[1:])], dtype=np.int64)
        # At most 8 bits a value: an int32 running sum holds 2**28 values.
        running = np.cumsum(np.concatenate(([0], popcounts)), dtype=np.int32)
        return np.diff(running.take(ends)).astype(np.int64)

    for _ in range(sum(1 for count in kept if not count)):
        _warn_empty("QBER treated as 0")
        if eve_values is not None:
            _warn_empty("knowledge undefined")
            _warn_empty("knowledge undefined")
    eve = [None, None] if eve_values is None else [differing(eve_values, key) for key in keys[:2]]
    return np.array([count * bits for count in kept], dtype=np.int64), differing(alice, bob), *eve


def aggregate(results) -> dict[str, Fraction | None]:
    """Mean of each of :data:`STATISTICS` over the trials that have it, or
    None when no trial does; ``results`` is a :class:`RunCounts` or an
    iterable of TrialResults."""
    counts = RunCounts.of(results)
    if not len(counts):
        raise ContractError("cannot aggregate an empty result list")
    means = dict.fromkeys(STATISTICS)
    for name in STATISTICS:
        # Numerators add as ints per distinct denominator, and each mean is
        # one Fraction over the least common multiple of the denominators.
        sums, count = {}, 0
        for n, d, defined in zip(*counts.ratio(name)):
            if defined:
                sums[d] = sums.get(d, 0) + n
                count += 1
        if count:
            lcm = math.lcm(*sums)
            means[name] = Fraction(sum(n * (lcm // d) for d, n in sums.items()), lcm * count)
    return means

"""Per-trial and aggregate statistics for key-exchange runs.

:data:`STATISTICS` names the six statistics a run is judged by, in the order
the result document and the CSV tables write them.  :func:`score` counts a
block of trials at once, and a run's counts are one :class:`RunCounts`
record of int arrays, one entry a trial, whose items are each trial's
:class:`TrialResult`.  Each statistic is stated once, as every trial's int
numerator and denominator (``RunCounts.ratios``, built once a record) that
the document's rows and :func:`aggregate`'s means read.  An empty sifted key
scores QBER 0, as every trial without an eavesdropper must, and knowledge
None (undefined), which the means skip, as they skip trials without an
eavesdropper.  A trial matches when its sifted key has no errors, as the
``protocols`` module docstring argues (Sifting and scoring).

Trials are scored in integers.  A ``fractions.Fraction`` is built only for a
mean, one per statistic, or when a trial's statistic is read as one; every
mean is exact, so repeated runs and aggregations are bit-for-bit
reproducible.  Rendering to decimals happens only at the output layer.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, pairwise

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


STATISTICS = ("key_size", "sift_fraction", "qber", "alice_knowledge", "bob_knowledge", "matches")


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
        integral(self.raw_len, "raw_len", low=1, high=_MAX_RAW_LEN, error=ContractError)
        integral(self.key_size, "key_size", low=0, high=self.raw_len, error=ContractError)
        integral(self.errors, "errors", low=0, high=self.key_size, error=ContractError)
        for name in ("alice_errors", "bob_errors"):
            if getattr(self, name) is not None:
                integral(getattr(self, name), name, low=0, high=self.key_size, error=ContractError)

    @property
    def matches(self) -> bool:
        return self.errors == 0

    sift_fraction = property(lambda self: aggregate([self])["sift_fraction"])
    qber = property(lambda self: aggregate([self])["qber"])
    alice_knowledge = property(lambda self: aggregate([self])["alice_knowledge"])
    bob_knowledge = property(lambda self: aggregate([self])["bob_knowledge"])


# Raw bits a trial of a record at most, so a document's int64 codes hold.
_MAX_RAW_LEN = 2**30 - 1


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
            counts.min() < 0 or counts[1].min() < 1 or counts[1].max() > _MAX_RAW_LEN
            or (counts[2] > counts[1]).any() or (counts[3:] > counts[2]).any()
        ):
            raise ContractError("a run's counts must be one-dimensional int arrays, one entry a "
                                "trial, with 0 <= errors <= key_size <= raw_len and "
                                f"1 <= raw_len <= {_MAX_RAW_LEN}")

    @classmethod
    def of(cls, results) -> RunCounts:
        """``results`` if it is a record, else the record of its TrialResults
        (an eavesdropper's count is None where any trial's is)."""
        if isinstance(results, cls):
            return results
        results = list(results)
        columns = [[getattr(r, f.name) for r in results] for f in fields(cls)]
        return cls(*(None if None in c else np.array(c, dtype=np.int64) for c in columns))

    @cached_property
    def ratios(self) -> np.ndarray:
        """Every trial's statistics as int numerators and denominators, a
        ``(2, len(STATISTICS), trials)`` array.  Without errors QBER is 0 / 1
        and knowledge 1 / 1 whatever the key size; undefined is 0 / 0."""
        ratios = np.zeros((2, len(STATISTICS), len(self)), dtype=np.int64)
        (numerators, denominators), key_size, errors = ratios, self.key_size, self.errors
        numerators[0] = numerators[1] = key_size
        numerators[2], numerators[5] = errors, errors == 0
        denominators[0] = denominators[5] = 1
        denominators[1], denominators[2] = self.raw_len, np.where(errors, key_size, 1)
        for row, eve in ((3, self.alice_errors), (4, self.bob_errors)):
            if eve is not None:  # agreeing bits over all, or 1 / 1 without errors
                denominators[row] = np.where(eve, key_size, key_size > 0)
                numerators[row] = denominators[row] - eve
        return ratios

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


# Mean kept values a trial from which ``score`` sums each trial alone: a
# running sum costs about 4 ns a value and a sum about 1 ns plus 2 us a call.
_LONG_TRIAL = 1024


def score(alice, bob, eve_values, kept, bits_per_particle: int) -> tuple:
    """The counts of a block of trials from their kept values, concatenated
    in trial order, trial i keeping ``kept[i]`` particles: each trial's
    sifted bits, and the bits where Bob's values differ from Alice's and
    where the eavesdropper's differ from Alice's and from Bob's (None
    without one).  Each pair is XORed and popcounted once; a trial's sum is
    the difference of the running sum at its two ends, or, where the
    block's trials keep ``_LONG_TRIAL`` values a trial or more on average,
    the sum of its slice.  Warns for each empty key as :func:`qber` and
    :func:`knowledge` do."""
    bits = integral(bits_per_particle, "bits per particle", low=1, high=8, error=ContractError)
    kept = np.asarray(kept, dtype=np.int64)
    # A long trial sums its slice between Python-int ends; short ones read a running sum.
    long = len(alice) >= _LONG_TRIAL * len(kept)
    ends = [0, *accumulate(kept.tolist())] if long else np.concatenate(([0], np.cumsum(kept)))
    keys = (alice, bob) if eve_values is None else (alice, bob, eve_values)
    if any(len(key) != ends[-1] for key in keys):
        raise ContractError(f"a block keeps {ends[-1]} values, got {[len(key) for key in keys]}")

    def differing(a, b):
        # A one-bit value is its own popcount.
        popcounts = a ^ b if bits == 1 else _POPCOUNT.take(a ^ b)
        if long:
            return np.array([popcounts[i:j].sum() for i, j in pairwise(ends)], np.int64)
        # At most 8 bits a value: an int32 running sum holds 2**28 values.
        running = np.cumsum(np.concatenate(([0], popcounts)), dtype=np.int32)
        return np.diff(running.take(ends)).astype(np.int64)

    empty = ["QBER treated as 0", *["knowledge undefined"] * 2 * (eve_values is not None)]
    for what in empty * (len(kept) - np.count_nonzero(kept)):
        _warn_empty(what)
    eve = [None, None] if eve_values is None else [differing(eve_values, key) for key in keys[:2]]
    return kept * bits, differing(alice, bob), *eve


def aggregate(results) -> dict[str, Fraction | None]:
    """Mean of each of :data:`STATISTICS` over the trials that have it, or
    None when no trial does; ``results`` is a :class:`RunCounts` or an
    iterable of TrialResults."""
    counts = RunCounts.of(results)
    if not len(counts):
        raise ContractError("cannot aggregate an empty result list")
    numerators, denominators = counts.ratios
    # Numerators add as ints per distinct denominator, in one sum where a
    # row's trials share one; 0, undefined, adds none.
    uniform = (denominators == denominators[:, :1]).all(1).tolist()
    totals = numerators.sum(1).tolist()
    means, scales = dict.fromkeys(STATISTICS), {}
    for name, one, total, row, trials in zip(STATISTICS, uniform, totals, numerators, denominators):
        trials, sums = trials.tolist(), {}
        for n, d in [(total, trials[0])] if one else zip(row.tolist(), trials):
            sums[d] = sums.get(d, 0) + n
        sums.pop(0, None)
        if sums:
            # One Fraction over the denominators' least common multiple, found
            # once for rows of the same ones, as QBER's and knowledge's mostly.
            if (key := tuple(sums)) not in scales:
                lcm = math.lcm(*key)
                scales[key] = lcm, [lcm // d for d in key]
            lcm, scale = scales[key]
            total = sum(map(operator.mul, sums.values(), scale))
            means[name] = Fraction(total, lcm * (len(trials) - trials.count(0)))
    return means

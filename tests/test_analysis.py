from fractions import Fraction

import numpy as np
import pytest

from qkdlab.analysis import (
    EmptySiftWarning,
    TrialResult,
    aggregate,
    detection_probability,
    intercept_resend_error,
    knowledge,
    qber,
)
from qkdlab.core import ContractError
from qkdlab.gates import PROTOCOLS, ProtocolSpec, validate_catalog
from qkdlab.protocols import BB84, HDBB84, SSP

from oracle import intercept_resend_symbol_error


def _key(bits):
    """One-bit values, one per character of ``bits``."""
    return np.array([int(bit) for bit in bits], dtype=np.int64)


def test_qber_identical_keys():
    assert qber(_key("010101"), _key("010101"), 1) == 0


def test_qber_complementary_keys():
    assert qber(_key("0000"), _key("1111"), 1) == 1


def test_qber_counts_hamming_fraction():
    assert qber(_key("0011"), _key("0010"), 1) == Fraction(1, 4)


def test_qber_counts_bits_of_multi_bit_values():
    # 0b11 vs 0b10 differ in one of two bits; 0b01 vs 0b10 in both.
    assert qber(np.array([0b11]), np.array([0b10]), 2) == Fraction(1, 2)
    assert qber(np.array([0b11, 0b01]), np.array([0b10, 0b10]), 2) == Fraction(3, 4)
    assert knowledge(np.array([0b11]), np.array([0b10]), 2) == Fraction(1, 2)


def test_qber_is_symmetric():
    a, b = _key("001101"), _key("101001")
    assert qber(a, b, 1) == qber(b, a, 1)


def test_qber_rejects_length_mismatch():
    with pytest.raises(ContractError, match="2 vs 3"):
        qber(_key("01"), _key("010"), 1)
    with pytest.raises(ContractError, match="4 vs 6"):
        qber(np.array([0, 1]), np.array([0, 1, 2]), 2)


@pytest.mark.parametrize(
    "statistic,a,b,bits",
    [
        (qber, [3], [0], 1),
        (qber, [-1], [0], 1),
        (qber, [0], [2], 1),
        (qber, [300], [0], 8),
        (qber, [4, 0], [0, 0], 2),
        (knowledge, [3, 3], [0, 0], 1),
        (knowledge, [0], [-1], 2),
    ],
    ids=["above", "negative", "second-key", "above-a-byte", "two-bit", "knowledge", "knowledge-ref"],
)
def test_qber_and_knowledge_reject_values_outside_the_bit_width(statistic, a, b, bits):
    # A value of b bits lies in [0, 2**b); anything else has no bit string to
    # compare, so it fails instead of scoring a QBER above 1 or a knowledge
    # below 0.
    with pytest.raises(ContractError, match=rf"values must lie in \[0, {2**bits}\)"):
        statistic(np.array(a), np.array(b), bits)


def test_qber_rejects_unsupported_value_width():
    with pytest.raises(ContractError, match="bits per particle"):
        qber(_key("01"), _key("01"), 9)


@pytest.mark.parametrize("statistic", [qber, knowledge])
@pytest.mark.parametrize("bits", [1.5, "4", 0])
def test_key_statistics_reject_bit_widths_that_are_not_counts(statistic, bits):
    # 1.5 used to score 1/3.0 into a TypeError from Fraction, "4" a TypeError
    # from 2 ** "4".
    with pytest.raises(ContractError, match="^bits per particle must be"):
        statistic(_key("01"), _key("00"), bits)


def test_qber_empty_keys_warn_and_return_zero():
    with pytest.warns(EmptySiftWarning):
        assert qber(_key(""), _key(""), 1) == 0


def test_knowledge_full_agreement():
    assert knowledge(_key("0110"), _key("0110"), 1) == 1


def test_knowledge_no_agreement():
    assert knowledge(_key("1111"), _key("0000"), 1) == 0


def test_knowledge_empty_reference_warns():
    with pytest.warns(EmptySiftWarning):
        assert knowledge(_key(""), _key(""), 1) is None


def test_detection_probability_spot_values():
    assert detection_probability(BB84, 0) == 0
    assert detection_probability(BB84, 1) == 0.25
    assert abs(detection_probability(BB84, 10) - 0.943686) < 1e-4
    assert detection_probability(SSP, 1) == pytest.approx(1 / 3, abs=1e-15)
    assert detection_probability(SSP, 10) == pytest.approx(1 - (2 / 3) ** 10, abs=1e-15)
    assert detection_probability(HDBB84, 2) == 0.375
    assert detection_probability(HDBB84, 10) == pytest.approx(1 - (5 / 8) ** 5, abs=1e-15)


@pytest.mark.parametrize("spec", [BB84, HDBB84, SSP], ids=lambda s: s.name)
def test_intercept_resend_error_equals_oracle(spec):
    expected = {"bb84": Fraction(1, 4), "hdbb84": Fraction(3, 8), "ssp": Fraction(1, 3)}
    assert intercept_resend_error(spec) == expected[spec.name]
    oracle = intercept_resend_symbol_error(spec.name)
    assert float(intercept_resend_error(spec)) == pytest.approx(oracle, abs=1e-12)


def test_closed_form_refuses_bases_that_are_not_mutually_unbiased():
    # A random (2, 2) spec: its exact intercept-resend error, the overlap sum
    # 1 - sum |<e_j|a_v>|^4 / (k^2 d) over both bases pairs, is 0.09, well
    # below the closed form's 1/4, so the closed form must not answer.
    rng = np.random.default_rng(0)
    shape = (2, 2, 2)
    bases = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    spec = ProtocolSpec("random", tuple(bases))
    overlaps = sum(np.sum(np.abs(spec.decode(e) @ basis) ** 4) for e in range(2) for basis in bases)
    assert 1 - overlaps / 8 == pytest.approx(0.09, abs=1e-3)
    assert not spec.mutually_unbiased
    assert all(paper.mutually_unbiased for paper in (BB84, HDBB84, SSP))
    with pytest.raises(ContractError, match="mutually unbiased"):
        intercept_resend_error(spec)
    with pytest.raises(ContractError, match="mutually unbiased"):
        detection_probability(spec, 1)
    # validate-gates' mub line reads the same property.
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(PROTOCOLS, spec.name, spec)
        passed = {check.name: check.passed for check in validate_catalog()}
    assert not passed["mub[random]"] and passed["mub[bb84]"]


def test_detection_probability_monotone_to_one():
    values = [detection_probability(BB84, k) for k in range(60)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > 1 - 1e-7


def test_detection_probability_rejects_negative():
    with pytest.raises(ContractError):
        detection_probability(BB84, -1)


def test_detection_probability_rejects_partial_particles():
    with pytest.raises(ContractError, match="multiple of 2"):
        detection_probability(HDBB84, 3)


@pytest.mark.parametrize("bad", [4.0, "4", None])
def test_detection_probability_rejects_counts_that_are_not_integers(bad):
    # 4.0 used to return 0.68359375, "4" to raise TypeError.
    with pytest.raises(ContractError, match="^compared bits must be an integer"):
        detection_probability(BB84, bad)


def test_detection_probability_beyond_the_float_range_is_its_limit():
    # (1 - e) ** K converts K to a float, which overflows past about 1.8e308.
    assert detection_probability(BB84, 10**400) == 1.0
    assert detection_probability(HDBB84, 2 * 10**400) == 1.0
    # One basis: the eavesdropper always guesses it, so e = 0 and nothing shows.
    one_basis = ProtocolSpec("one-basis", (np.eye(2),))
    assert intercept_resend_error(one_basis) == 0
    assert detection_probability(one_basis, 10**400) == 0.0


def _trial(i, errors, sifted=100):
    return TrialResult(
        trial=i,
        raw_len=200,
        key_size=sifted,
        errors=errors,
        alice_errors=None,
        bob_errors=None,
    )


def test_aggregate_means_and_match_rate():
    # A trial matches exactly when its sifted key has no errors.
    assert _trial(0, 0).matches is True and _trial(1, 1).matches is False
    stats = aggregate([_trial(0, 0), _trial(1, 50)])
    assert stats["qber"] == Fraction(1, 4)
    assert stats["matches"] == Fraction(1, 2)
    assert stats["sift_fraction"] == Fraction(1, 2)
    assert stats["alice_knowledge"] is None


def test_aggregate_identical_no_eve_trials():
    stats = aggregate([_trial(i, 0) for i in range(25)])
    assert stats["qber"] == 0
    assert stats["matches"] == 1


def test_aggregate_mean_stays_within_trial_range():
    trials = [_trial(i, 10 * i, sifted=100 + i) for i in range(5)]
    stats = aggregate(trials)
    assert min(t.qber for t in trials) <= stats["qber"] <= max(t.qber for t in trials)
    assert 100 <= stats["key_size"] <= 104


def test_aggregate_rejects_empty_list():
    with pytest.raises(ContractError):
        aggregate([])


def test_trial_result_validates_fractions():
    with pytest.raises(ContractError):
        TrialResult(0, 200, 100, 150, None, None)


@pytest.mark.parametrize(
    "raw_len,key_size,bad",
    [
        (4, 9, "key_size"),
        (4, -1, "key_size"),
        (0, 0, "raw_len"),
        (-2, 0, "raw_len"),
        (2.5, 1, "raw_len"),
        (4, 1.0, "key_size"),
    ],
)
def test_trial_result_rejects_impossible_counts(raw_len, key_size, bad):
    # More sifted bits than raw bits, or no raw bits, is checked before the
    # error counts, which would otherwise name a misleading bound; so is a
    # count that is not an integer.
    with pytest.raises(ContractError, match=f"^{bad} must"):
        TrialResult(0, raw_len, key_size, 0, None, None)


@pytest.mark.parametrize("name", ["errors", "alice_errors", "bob_errors"])
def test_trial_result_rejects_error_counts_that_are_not_integers(name):
    counts = {"errors": 0, "alice_errors": 0, "bob_errors": 0, name: 1.0}
    with pytest.raises(ContractError, match=f"^{name} must be an integer, got 1.0"):
        TrialResult(0, 4, 2, **counts)
    # Only the eavesdropper's counts may be None (no eavesdropper); Bob's
    # errors always exist, and None used to fail later, in the QBER.
    counts[name] = None
    if name == "errors":
        with pytest.raises(ContractError, match="^errors must be an integer, got None"):
            TrialResult(0, 4, 2, **counts)
    else:
        assert getattr(TrialResult(0, 4, 2, **counts), name) is None


@pytest.mark.parametrize("statistic", [qber, knowledge])
def test_key_statistics_take_lists_and_bools_but_not_floats(statistic):
    assert statistic([1, 0], [0, 0], 1) == Fraction(1, 2)
    assert statistic(np.array([True, True]), np.array([True, False]), 1) == Fraction(1, 2)
    with pytest.raises(ContractError, match="integers"):
        statistic(np.array([1.0]), np.array([0.0]), 1)
    with pytest.raises(ContractError, match="integers"):
        statistic([1, 0], [0.5, 0], 1)


@pytest.mark.parametrize("statistic", [qber, knowledge])
def test_key_statistics_reject_keys_that_are_not_one_dimensional(statistic):
    # The bit total counts rows, the popcount every element: a 2-D key would
    # read one differing bit of four as 1/2.
    with pytest.raises(ContractError, match=r"one-dimensional, got shape \(2, 2\)"):
        statistic(np.array([[1, 0], [0, 0]]), np.zeros((2, 2), int), 1)
    with pytest.raises(ContractError, match=r"one-dimensional, got shape \(\)"):
        statistic(1, 0, 1)
    with pytest.raises(ContractError, match="one-dimensional"):
        statistic([1, 0], np.zeros((2, 1), int), 1)


def test_sift_fraction_property():
    assert _trial(0, 0, sifted=109).sift_fraction == Fraction(109, 200)

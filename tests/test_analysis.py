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


def test_qber_rejects_unsupported_value_width():
    with pytest.raises(ContractError, match="bits per particle"):
        qber(_key("01"), _key("01"), 9)


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


def _trial(i, errors, matches, sifted=100):
    return TrialResult(
        trial=i,
        raw_len=200,
        key_size=sifted,
        errors=errors,
        alice_errors=None,
        bob_errors=None,
        matches=matches,
    )


def test_aggregate_means_and_match_rate():
    stats = aggregate([_trial(0, 0, True), _trial(1, 50, False)])
    assert stats["qber"] == Fraction(1, 4)
    assert stats["matches"] == Fraction(1, 2)
    assert stats["sift_fraction"] == Fraction(1, 2)
    assert stats["alice_knowledge"] is None


def test_aggregate_identical_no_eve_trials():
    stats = aggregate([_trial(i, 0, True) for i in range(25)])
    assert stats["qber"] == 0
    assert stats["matches"] == 1


def test_aggregate_mean_stays_within_trial_range():
    trials = [_trial(i, 10 * i, True, sifted=100 + i) for i in range(5)]
    stats = aggregate(trials)
    assert min(t.qber for t in trials) <= stats["qber"] <= max(t.qber for t in trials)
    assert 100 <= stats["key_size"] <= 104


def test_aggregate_rejects_empty_list():
    with pytest.raises(ContractError):
        aggregate([])


def test_trial_result_validates_fractions():
    with pytest.raises(ContractError):
        TrialResult(0, 200, 100, 150, None, None, True)


def test_sift_fraction_property():
    assert _trial(0, 0, True, sifted=109).sift_fraction == Fraction(109, 200)

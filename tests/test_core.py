import numpy as np
import pytest

from qkdlab.core import (
    ConfigError,
    ContractError,
    RandomSource,
    basis_state,
    equal_up_to_global_phase,
    integral,
)
from qkdlab.gates import catalog, gate
from qkdlab.protocols import _sample

RNG = RandomSource(1234)


def _random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _measure(state, rng, shots):
    """Computational-basis outcomes of ``shots`` copies of a state, drawn by
    the trial sampler from the state's cumulative Born distribution."""
    probabilities = np.abs(state) ** 2
    cdf = np.cumsum(probabilities / float(probabilities.sum()))
    return _sample(cdf[:-1, None], np.zeros(shots, dtype=np.intp), rng.random(shots))


def test_basis_state_examples():
    np.testing.assert_array_equal(basis_state(2, 0), [1, 0])
    np.testing.assert_array_equal(basis_state(4, 3), [0, 0, 0, 1])
    circ = basis_state(6, 2)
    assert circ[2] == 1 and np.count_nonzero(circ) == 1


def test_basis_state_out_of_range():
    with pytest.raises(IndexError):
        basis_state(4, 4)
    with pytest.raises(IndexError):
        basis_state(4, -1)
    with pytest.raises(ContractError):
        basis_state(0, 0)


@pytest.mark.parametrize("dim,k,error", [
    (2.5, 1, ContractError),
    ("2", 0, ContractError),
    (2, 1.0, IndexError),
    (2, "1", IndexError),
])
def test_basis_state_rejects_a_non_integer_dimension_or_index(dim, k, error):
    with pytest.raises(error, match="must be an integer"):
        basis_state(dim, k)


def test_apply_hadamard_prepares_plus():
    plus = gate("H").matrix @ basis_state(2, 0)
    np.testing.assert_allclose(plus, [2**-0.5, 2**-0.5], atol=1e-9)


def test_apply_identity_is_noop():
    rng = RNG.stream("core")
    state = _random_state(6, rng)
    np.testing.assert_allclose(np.eye(6) @ state, state, atol=1e-12)


def test_apply_fixed_phi_twice_restores_state():
    phi = gate("Phi").matrix
    gamma = basis_state(4, 2)
    np.testing.assert_allclose(phi @ phi @ gamma, gamma, atol=1e-9)


def test_apply_preserves_norm_for_all_catalog_gates():
    rng = RNG.stream("norms")
    for entry in catalog():
        for _ in range(5):
            state = _random_state(entry.dim, rng)
            out = entry.matrix @ state
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9, entry.name


def test_measure_basis_state_is_deterministic():
    rng = RNG.stream("det")
    assert _measure(basis_state(4, 3), rng, 50).tolist() == [3] * 50


def test_measure_plus_state_statistics():
    rng = RNG.stream("plus")
    plus = np.array([2**-0.5, 2**-0.5])
    zeros = np.count_nonzero(_measure(plus, rng, 10_000) == 0)
    assert 0.48 <= zeros / 10_000 <= 0.52


def test_measure_circular_state_statistics():
    rng = RNG.stream("circ")
    encoded = gate("J").matrix @ basis_state(2, 0)
    zeros = np.count_nonzero(_measure(encoded, rng, 10_000) == 0)
    assert abs(zeros / 10_000 - 0.5) <= 0.02


def test_measure_frequencies_match_born_rule():
    rng = RNG.stream("born")
    state = _random_state(5, rng)
    samples = 100_000
    counts = np.bincount(_measure(state, rng, samples), minlength=5)
    np.testing.assert_allclose(counts / samples, np.abs(state) ** 2, atol=0.01)


def test_equal_up_to_global_phase():
    three = basis_state(4, 3)
    assert equal_up_to_global_phase(three, -three)
    assert equal_up_to_global_phase(1j * three, three)
    assert not equal_up_to_global_phase(basis_state(2, 0), basis_state(2, 1))
    j = gate("J").matrix
    assert equal_up_to_global_phase(j @ j @ basis_state(2, 1), basis_state(2, 1))
    with pytest.raises(ContractError):
        equal_up_to_global_phase(basis_state(2, 0), basis_state(3, 0))
    zeros = np.zeros(2)
    assert equal_up_to_global_phase(zeros, zeros)
    assert not equal_up_to_global_phase(basis_state(2, 0), zeros)


def test_random_source_is_reproducible():
    a = RandomSource(99).stream("bob-measure").random(10)
    b = RandomSource(99).stream("bob-measure").random(10)
    np.testing.assert_array_equal(a, b)


def test_random_source_streams_are_disjoint():
    base = RandomSource(99)
    role = base.stream("alice-values").random(8)
    other_role = base.stream("alice-bases").random(8)
    other_seed = RandomSource(100).stream("alice-values").random(8)
    assert not np.array_equal(role, other_role)
    assert not np.array_equal(role, other_seed)


def test_random_source_string_party_tags():
    # A role is any string; equal strings name the same stream.
    a = RandomSource(5).stream("alice").random(4)
    b = RandomSource(5).stream("alice").random(4)
    c = RandomSource(5).stream("bob").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_source_rejects_negative_seed():
    with pytest.raises(ConfigError):
        RandomSource(-1)


def test_integral_checks_the_integer_then_low_high_and_multiple():
    assert integral(6, "n", low=0, high=6, multiple=3) == 6
    assert type(integral(np.int64(6), "n")) is int and integral(True, "n") == 1
    cases = [
        (6.0, "n must be an integer, got 6.0"),
        ("6", "n must be an integer, got '6'"),
        # low before high before multiple: -1 breaks low and multiple.
        (-1, "n must be at least 0, got -1"),
        (9, "n must be at most 8, got 9"),
        (np.int64(5), "n must be a multiple of 2, got 5"),
    ]
    for value, message in cases:
        with pytest.raises(ConfigError) as excinfo:
            integral(value, "n", low=0, high=8, multiple=2)
        assert str(excinfo.value) == message
    with pytest.raises(ContractError, match="^n must be at most 1, got 2$"):
        integral(2, "n", high=1, error=ContractError)


def test_measurement_sequence_is_bit_for_bit_reproducible():
    state = np.array([0.5, 0.5, 0.5, 0.5])
    first = _measure(state, RandomSource(7).stream("sequence"), 1)
    runs = [_measure(state, RandomSource(7).stream("sequence"), 100) for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])
    assert first[0] == runs[0][0]

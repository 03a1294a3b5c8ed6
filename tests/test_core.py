import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.core import (
    ConfigError,
    ContractError,
    RandomSource,
    Register,
    apply_to_slot,
    basis_state,
    equal_up_to_global_phase,
    product_register,
)
from qkdlab.gates import catalog, gate
from qkdlab.protocols import _sample

RNG = RandomSource(1234)


def _random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _apply(gate, state):
    """A gate on a one-slot register holding the whole state."""
    return apply_to_slot(gate, Register((len(state),), state), 0).state


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


def test_apply_hadamard_prepares_plus():
    plus = _apply(gate("H").matrix, basis_state(2, 0))
    np.testing.assert_allclose(plus, [2**-0.5, 2**-0.5], atol=1e-9)


def test_apply_identity_is_noop():
    rng = RNG.stream("core")
    state = _random_state(6, rng)
    np.testing.assert_allclose(_apply(np.eye(6), state), state, atol=1e-12)


def test_apply_fixed_phi_twice_restores_state():
    phi = gate("Phi").matrix
    gamma = basis_state(4, 2)
    np.testing.assert_allclose(_apply(phi, _apply(phi, gamma)), gamma, atol=1e-9)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ContractError):
        _apply(np.eye(2), basis_state(4, 0))


def test_apply_preserves_norm_for_all_catalog_gates():
    rng = RNG.stream("norms")
    for entry in catalog():
        for _ in range(5):
            state = _random_state(entry.dim, rng)
            out = _apply(entry.matrix, state)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9, entry.name


def test_apply_to_slot_bit_flip():
    reg = product_register([basis_state(2, 0), basis_state(2, 0)])
    flipped = apply_to_slot(np.array([[0, 1], [1, 0]]), reg, 1)
    np.testing.assert_array_equal(flipped.state, [0, 1, 0, 0])


def test_apply_to_slot_chj_on_middle_slots():
    reg = product_register([basis_state(6, 0), basis_state(3, 1), basis_state(2, 0)])
    out = apply_to_slot(gate("CHJ").matrix, reg, (1, 2))
    expected = product_register(
        [basis_state(6, 0), basis_state(3, 1), np.array([2**-0.5, 2**-0.5])]
    )
    np.testing.assert_allclose(out.state, expected.state, atol=1e-9)


def test_apply_to_slot_then_inverse_roundtrips():
    rng = RNG.stream("roundtrip")
    reg = Register((2, 3, 4), _random_state(24, rng))
    gate = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    back = apply_to_slot(gate.conj().T, apply_to_slot(gate, reg, 1), 1)
    np.testing.assert_allclose(back.state, reg.state, atol=1e-9)


def test_apply_to_slot_disjoint_slots_commute():
    rng = RNG.stream("commute")
    reg = Register((2, 3, 2), _random_state(12, rng))
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    one = apply_to_slot(v, apply_to_slot(u, reg, 2), 1)
    other = apply_to_slot(u, apply_to_slot(v, reg, 1), 2)
    np.testing.assert_allclose(one.state, other.state, atol=1e-9)


def test_apply_to_slot_rejects_mismatched_gate():
    reg = product_register([basis_state(2, 0), basis_state(3, 0)])
    with pytest.raises(ContractError):
        apply_to_slot(np.eye(2), reg, 1)


@st.composite
def _slot_layouts(draw):
    """Slot dims, ordered distinct target slots and a numpy seed."""
    slots = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(slots))))
    targets = tuple(order[: draw(st.integers(1, len(slots)))])
    return slots, targets, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, derandomize=True, database=None)
@given(_slot_layouts())
def test_apply_to_slot_equals_kron_on_permuted_register(case):
    slots, targets, seed = case
    rng = np.random.default_rng(seed)
    block = math.prod(slots[t] for t in targets)
    gate = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    reg = Register(slots, _random_state(math.prod(slots), rng))
    # Reference: bring the targets to the front in gate order, act with
    # gate (x) identity on the rest, and put the slots back.
    order = list(targets) + [s for s in range(len(slots)) if s not in targets]
    front = reg.state.reshape(slots).transpose(order).reshape(-1)
    front = np.kron(gate, np.eye(len(front) // block)) @ front
    expected = front.reshape([slots[s] for s in order]).transpose(np.argsort(order))
    got = apply_to_slot(gate, reg, targets)
    assert got.slots == slots
    np.testing.assert_allclose(got.state, expected.reshape(-1), atol=1e-12)


def test_register_slot_product_invariant():
    with pytest.raises(ContractError):
        Register((2, 3), np.zeros(5, dtype=np.complex128))


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


def test_measurement_sequence_is_bit_for_bit_reproducible():
    state = np.array([0.5, 0.5, 0.5, 0.5])
    first = _measure(state, RandomSource(7).stream("sequence"), 1)
    runs = [_measure(state, RandomSource(7).stream("sequence"), 100) for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])
    assert first[0] == runs[0][0]

import gc
import itertools
import tracemalloc
import weakref
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import analysis, cli, gates, protocols
from qkdlab.core import (
    ConfigError,
    ContractError,
    RandomSource,
    basis_state,
    equal_up_to_global_phase,
)
from qkdlab.protocols import (
    BB84,
    HDBB84,
    MAX_RAW_BITS,
    PROTOCOLS,
    SSP,
    EveModel,
    ProtocolSpec,
    Scenario,
    Transcript,
    _sample,
    alice_draws,
    outcome_table,
    outcome_thresholds,
    role_streams,
    run_experiment,
    run_trial,
    sift,
    validate_pairing,
)

from oracle import BASES as ORACLE_BASES
from oracle import _sample as _oracle_sample
from oracle import intercept_resend_oracle
from paper_gates import PSI_SYMBOLS, hdbb84_psi_prep, on_slots

SEED = 2
TRIAL_COUNTS = (1, 7, 25)
SQRT2 = 2**-0.5
ALL_SPECS = (BB84, HDBB84, SSP)
GRID_CELLS = [
    (spec, scenario, eve) for spec in ALL_SPECS for _, scenario, eve in cli.GRID_ROWS
]


def _rng(tag, seed=SEED):
    return RandomSource(seed).stream(tag)


def _trial(spec, scenario, eve, raw_bits, trial=0, seed=SEED):
    """Trial ``trial`` of a run: the earlier trials read their blocks first."""
    streams = role_streams(seed)
    for _ in range(trial):
        run_trial(spec, scenario, eve, raw_bits, streams)
    return run_trial(spec, scenario, eve, raw_bits, streams)


def _assert_same_transcript(first, second):
    for field in fields(Transcript):
        a, b = getattr(first, field.name), getattr(second, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _probs(spec, scenario, value, basis, bob_basis):
    """Outcome probabilities of one row of the protocol's outcome table."""
    cdf = outcome_table(spec, scenario)[value, basis, bob_basis]
    return np.diff(cdf, prepend=0.0)


def _delta(dim, k):
    return np.eye(dim)[k]


class PaperGates(NamedTuple):
    """A protocol's gates as the paper writes them out by hand.

    ``values[v]`` is the gate sequence preparing value v from |0> and
    ``bases[a]`` the basis gate applied after it (self-inverse up to a global
    phase, so it also decodes); ``hd_values`` and ``hd_bases`` are the Qid
    gates doing the same on the d_e qudit.  ``conv`` is the conversion
    circuit as (slots, steps, output slot).  The engine derives all of these
    from the specs in ``gates.PROTOCOLS`` instead; the tests compare the two.
    """

    values: list
    bases: list
    hd_values: list
    hd_bases: list
    conv: tuple


def _paper_gates():
    entry = {e.name: e for e in gates.catalog()}
    m = {name: e.matrix for name, e in entry.items()}
    psi = PSI_SYMBOLS
    split = (0, 1, 2)
    return {
        "bb84": PaperGates(
            [(), (m["X"],)],
            [np.eye(2), m["H"]],
            [(), (m["QidX1"],)],
            [np.eye(4), m["QidH1"]],
            # A fresh qubit gets X from the value ancilla, then H from the
            # basis ancilla.
            (
                (4, 2, 2, 2),
                ((entry["QidConv1"], split), (entry["CX"], (2, 3)), (entry["CH"], (1, 3))),
                3,
            ),
        ),
        "hdbb84": PaperGates(
            [tuple(e.matrix for e in hdbb84_psi_prep(symbol)) for symbol in psi],
            [np.eye(4), m["Phi"]],
            [(m[f"Qid{symbol.capitalize()}"],) for symbol in psi],
            [np.eye(8), m["QidPhi"]],
            ((8, 2, 4), ((entry["QidConv2"], split), (entry["CPhi"], (1, 2))), 2),
        ),
        "ssp": PaperGates(
            [(), (m["X"],)],
            [np.eye(2), m["H"], m["J"]],
            [(), (m["QidX2"],)],
            [np.eye(6), m["QidH2"], m["QidJ"]],
            ((6, 3, 2), ((entry["QidConv3"], split), (entry["CHJ"], (1, 2))), 2),
        ),
    }


PAPER = _paper_gates()


def _prepare(sequence, basis_gate):
    state = basis_state(basis_gate.shape[0], 0)
    for gate in sequence:
        state = gate @ state
    return basis_gate @ state


def _paper_encode(spec, value, basis):
    paper = PAPER[spec.name]
    return _prepare(paper.values[value], paper.bases[basis])


def _paper_hd_encode(spec, value, basis):
    paper = PAPER[spec.name]
    return _prepare(paper.hd_values[value], paper.hd_bases[basis])


# --- protocol specs ----------------------------------------------------------------


def test_eavesdropper_dimension_rule():
    assert (BB84.d_ab, BB84.basis_count, BB84.d_e) == (2, 2, 4)
    assert (HDBB84.d_ab, HDBB84.basis_count, HDBB84.d_e) == (4, 2, 8)
    assert (SSP.d_ab, SSP.basis_count, SSP.d_e) == (2, 3, 6)
    for spec in ALL_SPECS:
        assert spec.d_e == spec.d_ab * spec.basis_count


def test_protocol_spec_stores_read_only_copies_of_its_bases():
    identity = np.eye(2, dtype=np.complex128)
    spec = ProtocolSpec("copy", (identity, BB84.bases[1]))
    assert identity.flags.writeable
    assert all(not basis.flags.writeable for basis in spec.bases)
    np.testing.assert_array_equal(spec.bases[0], identity)


def test_state_index_round_trips():
    for spec in ALL_SPECS:
        seen = set()
        for value in range(spec.d_ab):
            for basis in range(spec.basis_count):
                index = spec.state_index(value, basis)
                assert spec.value_basis(index) == (value, basis)
                seen.add(index)
        assert seen == set(range(spec.d_e))


def test_protocol_spec_rejects_non_power_of_two_dimension():
    # Keys are scored in bits, so a qutrit basis list (identity and the
    # 3-point Fourier matrix) must be refused rather than run with values
    # that do not fit bits_per_particle.
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    with pytest.raises(ContractError, match="power of two"):
        ProtocolSpec("qutrit", (np.eye(3), fourier))


@pytest.mark.parametrize(
    "bases",
    [
        (np.eye(2), np.ones((2, 2))),  # not unitary: its columns are no states
        (np.eye(2), np.eye(4)),  # unitary, but not of bases[0]'s shape
        (np.eye(3)[:2],),  # 2 x 3
        (),
        (np.eye(1),),  # one state carries no bit
        (np.eye(512),),  # nine bits a particle: a key value is one byte
    ],
    ids=["non-unitary", "mixed-shapes", "non-square", "empty", "one-dimensional", "too-wide"],
)
def test_protocol_spec_rejects_malformed_bases(bases):
    with pytest.raises(ContractError):
        ProtocolSpec("malformed", bases)


def test_pairing_rules():
    validate_pairing(Scenario.CONTROL, EveModel.STANDARD)
    validate_pairing(Scenario.CONVERSION, EveModel.HD)
    validate_pairing(Scenario.RELABEL, EveModel.NONE)
    with pytest.raises(ConfigError):
        validate_pairing(Scenario.CONVERSION, EveModel.STANDARD)
    with pytest.raises(ConfigError):
        validate_pairing(Scenario.CONTROL, EveModel.HD)


@pytest.mark.parametrize("scenario,eve", [("bogus", "none"), ("control", "nobody")])
def test_unknown_names_raise_config_error_listing_valid_values(scenario, eve, monkeypatch):
    valid = "control, conv, relabel" if scenario == "bogus" else "none, standard, hd"
    with pytest.raises(ConfigError, match=valid):
        validate_pairing(scenario, eve)
    with pytest.raises(ConfigError, match=valid):
        run_trial(BB84, scenario, eve, 2, role_streams(SEED))

    # A bad cell fails before any stream opens.
    def no_streams(seed):
        raise AssertionError("streams opened for an invalid cell")

    monkeypatch.setattr(protocols, "role_streams", no_streams)
    with pytest.raises(ConfigError, match=valid):
        run_experiment(BB84, scenario, eve, 1, 2, 1)


def test_validate_pairing_converts_names():
    assert validate_pairing("relabel", "hd") == (Scenario.RELABEL, EveModel.HD)


# --- alice -----------------------------------------------------------------------------


def test_alice_draws_is_deterministic():
    values_a, bases_a = alice_draws(BB84, 200, role_streams(SEED))
    values_b, bases_b = alice_draws(BB84, 200, role_streams(SEED))
    np.testing.assert_array_equal(values_a, values_b)
    np.testing.assert_array_equal(bases_a, bases_b)


def test_alice_draws_ssp_uses_three_bases():
    _, bases = alice_draws(SSP, 200, role_streams(SEED))
    assert set(bases) == {0, 1, 2}


def test_alice_draws_hdbb84_packs_two_bits_per_particle():
    # Two raw bits per particle: 100 values, each one of the four 2-bit values.
    values, bases = alice_draws(HDBB84, 200, role_streams(SEED))
    assert len(values) == len(bases) == 100
    assert set(values.tolist()) == {0, 1, 2, 3}


def test_alice_draws_rejects_indivisible_length():
    with pytest.raises(ConfigError):
        alice_draws(HDBB84, 201, role_streams(SEED))
    with pytest.raises(ConfigError):
        alice_draws(BB84, 0, role_streams(SEED))


def test_alice_draws_rejects_oversized_length():
    with pytest.raises(ConfigError, match="at most"):
        alice_draws(BB84, MAX_RAW_BITS + 1, role_streams(SEED))


# --- encoding ---------------------------------------------------------------------------


def _encode(spec):
    """Alice's control states as the outcome tables read them: column v of
    ``bases[a]``."""
    return {
        (value, basis): spec.bases[basis][:, value]
        for value, basis in np.ndindex(spec.d_ab, spec.basis_count)
    }


def test_encode_control_examples():
    encode = {spec.name: _encode(spec) for spec in ALL_SPECS}
    np.testing.assert_allclose(encode["bb84"][1, 1], [SQRT2, -SQRT2], atol=1e-12)
    np.testing.assert_allclose(encode["ssp"][0, 2], [1j * SQRT2, SQRT2], atol=1e-12)
    np.testing.assert_allclose(encode["hdbb84"][0, 0], basis_state(4, 0), atol=1e-12)
    # Conjugate-basis column for value 01.
    np.testing.assert_allclose(encode["hdbb84"][1, 1], [0.5, 0.5, -0.5, -0.5], atol=1e-12)
    # Every derived state is the paper's gate-prepared one.
    for spec in ALL_SPECS:
        for (value, basis), state in encode[spec.name].items():
            paper = _paper_encode(spec, value, basis)
            assert equal_up_to_global_phase(state, paper), (spec.name, value, basis)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_hd_encoding_lands_on_indexed_basis_state(spec):
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            # The d_e channel state is |value * bases + basis>.
            index = spec.state_index(value, basis)
            assert index == value * spec.basis_count + basis
            expected = basis_state(spec.d_e, index)
            # The paper's Qid preparation gates land on the same state.
            paper = _paper_hd_encode(spec, value, basis)
            assert equal_up_to_global_phase(paper, expected), (spec.name, value, basis)


def test_hd_encoding_examples():
    assert BB84.state_index(1, 0) == 2
    assert HDBB84.state_index(3, 1) == 7
    assert SSP.state_index(1, 2) == 5


# --- outcome tables ------------------------------------------------------------------


def _paper_probs(spec, scenario, value, basis, bob_basis):
    """Bob's outcome distribution through the paper's gates."""
    paper = PAPER[spec.name]
    decode = paper.bases[bob_basis]
    if scenario is Scenario.CONTROL:
        return np.abs(decode @ _paper_encode(spec, value, basis)) ** 2
    if scenario is Scenario.RELABEL:
        hd_decode = paper.hd_bases[bob_basis]
        return np.abs(hd_decode @ _paper_hd_encode(spec, value, basis)) ** 2
    slots, steps, output_slot = paper.conv
    state = _paper_hd_encode(spec, value, basis)
    for dim in slots[1:]:
        state = np.kron(state, basis_state(dim, 0))
    for gate, targets in steps:
        state = on_slots(gate.matrix, state, slots, targets)
    state = on_slots(decode, state, slots, (output_slot,))
    others = tuple(s for s in range(len(slots)) if s != output_slot)
    return np.sum(np.abs(state.reshape(slots)) ** 2, axis=others)


def _relabel_view(spec, probs):
    """What relabel keeps of an outcome distribution: the value read in Bob's
    basis (basis digit 0), and the total off-basis mass, whose value is
    replaced by random bits."""
    in_basis = probs[:: spec.basis_count]
    return np.append(in_basis, probs.sum() - in_basis.sum())


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_outcome_table_rows_equal_state_vector_born_probabilities(spec, scenario):
    # The reference is the paper's hand-written circuit.  Its relabel gates
    # send off-basis outcomes to other nonzero digits (and values) than the
    # derived permutation, so relabel rows agree on what relabel keeps.
    dim = spec.d_e if scenario is Scenario.RELABEL else spec.d_ab
    table = outcome_table(spec, scenario)
    assert table.shape == (
        spec.d_ab, spec.basis_count, spec.basis_count, dim
    )
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            for bob_basis in range(spec.basis_count):
                got = _probs(spec, scenario, value, basis, bob_basis)
                expected = _paper_probs(spec, scenario, value, basis, bob_basis)
                if scenario is Scenario.RELABEL:
                    got, expected = _relabel_view(spec, got), _relabel_view(spec, expected)
                np.testing.assert_allclose(got, expected, atol=1e-12)
                assert table[value, basis, bob_basis, -1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("scenario", [Scenario.CONTROL, Scenario.CONVERSION], ids=lambda s: s.value)
def test_outcome_table_rows_equal_oracle_born_rule(spec, scenario):
    # |B_b^dagger B_a e_v|^2 from the oracle's literal bases, which share no
    # code with the basis data that drives the engine.
    bases = ORACLE_BASES[spec.name]
    for value, basis, bob_basis in np.ndindex(
        spec.d_ab, spec.basis_count, spec.basis_count
    ):
        expected = np.abs(bases[bob_basis].conj().T @ bases[basis][:, value]) ** 2
        np.testing.assert_allclose(
            _probs(spec, scenario, value, basis, bob_basis), expected, atol=1e-12
        )


_SPEC_NAMES = (f"random-{n}" for n in itertools.count())


@settings(deadline=None, derandomize=True, database=None, max_examples=30)
@given(st.tuples(st.sampled_from((2, 4)), st.integers(1, 3), st.integers(0, 2**32 - 1)))
def test_conversion_table_equals_control_for_random_specs(case):
    # Any spec's conversion circuit, applied as its split and its bases,
    # must deliver Alice's particle state; registered, the spec also passes
    # validate-gates' conversion checks.
    d_ab, k, seed = case
    rng = np.random.default_rng(seed)
    shape = (k, d_ab, d_ab)
    bases = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    spec = ProtocolSpec(next(_SPEC_NAMES), tuple(bases))
    np.testing.assert_allclose(
        outcome_table(spec, Scenario.CONVERSION),
        outcome_table(spec, Scenario.CONTROL),
        rtol=0,
        atol=1e-12,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(PROTOCOLS, spec.name, spec)
        checks = [
            check for check in gates.validate_catalog()
            if check.name.startswith("conversion-") and check.name.endswith(f"[{spec.name}]")
        ]
    assert len(checks) == 3 and all(check.passed for check in checks), checks


def test_conversion_table_never_builds_the_register_matrix():
    # (I, F16) has a register of k^2 * d_ab^2 = 1024 states: its dense
    # circuit matrix alone would take 16 MB.
    d = 16
    fourier = np.exp(2j * np.pi * np.outer(range(d), range(d)) / d) / np.sqrt(d)
    spec = ProtocolSpec("fourier-16", (np.eye(d), fourier))
    tracemalloc.start()
    try:
        table = outcome_table(spec, Scenario.CONVERSION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    np.testing.assert_allclose(
        table, outcome_table(spec, Scenario.CONTROL), rtol=0, atol=1e-12
    )


def test_outcome_tables_are_cached_and_read_only():
    for spec in ALL_SPECS:
        for scenario in Scenario:
            table = outcome_table(spec, scenario)
            assert outcome_table(spec, scenario) is table
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0, 0] = 0.5


def test_outcome_tables_belong_to_the_spec_not_its_name():
    # BB84's name with the second basis's states swapped: value 0 in basis 1
    # is |1>, which Bob's basis 0 reads as 1 with certainty.
    impostor = ProtocolSpec("bb84", (np.eye(2), np.eye(2)[:, ::-1]))
    np.testing.assert_allclose(_probs(BB84, Scenario.CONTROL, 0, 1, 0), [0.5, 0.5])
    table = outcome_table(impostor, Scenario.CONTROL)
    assert table is not outcome_table(BB84, Scenario.CONTROL)
    np.testing.assert_array_equal(_probs(impostor, Scenario.CONTROL, 0, 1, 0), [0, 1])
    # Its conversion circuit follows from its own bases, not its name's.
    np.testing.assert_allclose(
        outcome_table(impostor, Scenario.CONVERSION), table, rtol=0, atol=1e-12
    )


def test_a_dropped_spec_frees_its_tables():
    spec = ProtocolSpec("dropped", BB84.bases)
    outcome_thresholds(spec, Scenario.CONTROL)
    outcome_thresholds(spec, Scenario.RELABEL)
    outcome_table(spec, Scenario.CONVERSION)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_rows_matches_core_sample():
    # The reference is the original per-particle sampler, now in the oracle.
    # Rows with float residue, uniforms on and next to every cumulative edge,
    # and 1 - 2**-53 past a last entry below 1 (the clamp: ten 0.1 steps sum
    # to 0.9999999999999999).
    rows = [
        np.full(10, 0.1),
        np.array([0.5, 0.5]),
        np.array([1e-33, 0.9999999999999998]),
        np.array([0.25, 0.25, 0.25, 0.2499999999999999]),
        np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ]
    for probs in rows:
        cdf = np.cumsum(probs / float(probs.sum()))
        edges = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)])
        u = np.concatenate([[0.0, 1 - 2**-53], edges[edges < 1], _rng("rows").random(200)])
        sampled = _sample(cdf[:-1, None], np.zeros(len(u), dtype=np.intp), u)
        assert sampled.tolist() == [_oracle_sample(probs, _FixedDraw(x)) for x in u]


@pytest.mark.parametrize("spec", list(PROTOCOLS.values()), ids=lambda s: s.name)
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_sampler_equals_outcome_table_definition_on_every_row(spec, scenario):
    # One column of thresholds per table row, the row's first d - 1
    # cumulative entries; uniforms on and next to every cumulative edge.
    table = outcome_table(spec, scenario)
    thresholds = outcome_thresholds(spec, scenario)
    k, d = spec.basis_count, table.shape[-1]
    assert thresholds.shape == (d - 1, spec.d_ab * k * k)
    assert outcome_thresholds(spec, scenario) is thresholds
    assert not thresholds.flags.writeable
    for value, basis, bob_basis in np.ndindex(spec.d_ab, k, k):
        row = spec.state_index(value, basis) * k + bob_basis
        assert row == np.ravel_multi_index((value, basis, bob_basis), (spec.d_ab, k, k))
        cdf = table[value, basis, bob_basis]
        edges = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)])
        u = np.concatenate([[0.0, 1 - 2**-53], edges[edges < 1]])
        expected = np.minimum((u[:, None] >= cdf).sum(-1), d - 1)
        sampled = _sample(thresholds, np.full(len(u), row), u)
        np.testing.assert_array_equal(sampled, expected)


# --- eavesdroppers ------------------------------------------------------------------------


def test_standard_eve_is_transparent_when_bases_match():
    # Decoding in Alice's basis reads her value with certainty, and the resent
    # state is the one Alice sent.
    for spec in ALL_SPECS:
        for value in range(spec.d_ab):
            for basis in range(spec.basis_count):
                np.testing.assert_allclose(
                    _probs(spec, Scenario.CONTROL, value, basis, basis),
                    _delta(spec.d_ab, value),
                    atol=1e-12,
                )
        transcript = _trial(spec, Scenario.CONTROL, EveModel.STANDARD, 200)
        hits = [
            i for i, (a, e) in enumerate(zip(transcript.alice_bases, transcript.eve_bases))
            if a == e
        ]
        assert hits
        for i in hits:
            assert transcript.eve_values[i] == transcript.alice_values[i]
            assert transcript.bob_values[i] == transcript.control_values[i]


def test_standard_eve_wrong_basis_fraction():
    for spec, expect in ((BB84, 0.5), (SSP, 2 / 3)):
        transcript = _trial(spec, Scenario.CONTROL, EveModel.STANDARD, 3000)
        wrong = np.mean(np.array(transcript.eve_bases) != np.array(transcript.alice_bases))
        assert abs(wrong - expect) < 0.05


def test_standard_eve_wrong_basis_outcome_is_uniform():
    for value in range(2):
        for basis in range(2):
            np.testing.assert_allclose(
                _probs(BB84, Scenario.CONTROL, value, basis, 1 - basis), [0.5, 0.5], atol=1e-12
            )


def test_hd_eve_reads_state_and_resends_it():
    assert BB84.value_basis(3) == (1, 1)
    assert HDBB84.value_basis(4) == (2, 0)
    for spec in ALL_SPECS:
        for scenario in (Scenario.CONVERSION, Scenario.RELABEL):
            tapped = _trial(spec, scenario, EveModel.HD, 200)
            clean = _trial(spec, scenario, EveModel.NONE, 200)
            assert np.array_equal(tapped.eve_values, tapped.alice_values)
            assert np.array_equal(tapped.eve_bases, tapped.alice_bases)
            # The resent state is unchanged, so Bob sees exactly what he sees
            # without the tap, off-basis outcomes included.
            assert np.array_equal(tapped.bob_values, clean.bob_values)


# --- bob --------------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_bob_control_decode_matching_basis_is_exact(spec):
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            np.testing.assert_allclose(
                _probs(spec, Scenario.CONTROL, value, basis, basis),
                _delta(spec.d_ab, value),
                atol=1e-12,
            )


def test_bob_control_decode_mismatched_basis_is_uniform():
    np.testing.assert_allclose(_probs(BB84, Scenario.CONTROL, 0, 0, 1), [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_bob_scenario1_matching_basis_is_exact(spec):
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            np.testing.assert_allclose(
                _probs(spec, Scenario.CONVERSION, value, basis, basis),
                _delta(spec.d_ab, value),
                atol=1e-12,
            )


def test_bob_scenario1_mismatched_basis_is_uniform():
    for value in range(2):
        for basis in range(2):
            np.testing.assert_allclose(
                _probs(BB84, Scenario.CONVERSION, value, basis, 1 - basis), [0.5, 0.5], atol=1e-12
            )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_bob_scenario2_matching_basis_is_exact(spec):
    # In Bob's basis the outcome has basis flag 0 and carries the value.
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            np.testing.assert_allclose(
                _probs(spec, Scenario.RELABEL, value, basis, basis),
                _delta(spec.d_e, spec.state_index(value, 0)),
                atol=1e-12,
            )


def _off_basis_mass(spec, value, basis, bob_basis):
    probs = _probs(spec, Scenario.RELABEL, value, basis, bob_basis)
    return sum(p for k, p in enumerate(probs) if spec.value_basis(k)[1] != 0)


def test_bob_scenario2_concrete_relabel_rows():
    # In-basis outcomes are read out deterministically.
    np.testing.assert_allclose(_probs(BB84, Scenario.RELABEL, 0, 1, 1), _delta(4, 0), atol=1e-12)
    np.testing.assert_allclose(_probs(BB84, Scenario.RELABEL, 1, 0, 0), _delta(4, 2), atol=1e-12)
    np.testing.assert_allclose(_probs(SSP, Scenario.RELABEL, 1, 2, 2), _delta(6, 3), atol=1e-12)
    # Off-basis outcomes are always relabelled as random bits.
    for spec in ALL_SPECS:
        for value in range(spec.d_ab):
            for basis in range(spec.basis_count):
                for bob_basis in range(spec.basis_count):
                    if bob_basis != basis:
                        assert _off_basis_mass(spec, value, basis, bob_basis) == pytest.approx(1)


def test_bob_scenario2_off_basis_hdbb84_draws_two_bits():
    transcript = _trial(HDBB84, Scenario.RELABEL, EveModel.NONE, 8000)
    off = transcript.bob_values[~transcript.kept]
    counts = np.bincount(off, minlength=4) / len(off)
    np.testing.assert_allclose(counts, 0.25, atol=0.03)


# --- sifting ----------------------------------------------------------------------------


def _forced_transcript(bob_bases):
    n = len(bob_bases)
    alice_bases = np.zeros(n, dtype=np.int64)
    bob_bases = np.array(bob_bases, dtype=np.int64)
    return Transcript(
        spec=BB84,
        scenario=Scenario.CONTROL,
        eve=EveModel.NONE,
        alice_values=np.ones(n, dtype=np.int64),
        alice_bases=alice_bases,
        eve_values=None,
        eve_bases=None,
        bob_bases=bob_bases,
        bob_values=np.ones(n, dtype=np.int64),
        kept=alice_bases == bob_bases,
        control_values=np.ones(n, dtype=np.int64),
    )


def test_sift_all_bases_equal_keeps_everything():
    alice, bob, _ = sift(_forced_transcript((0,) * 6))
    assert len(alice) == 6
    assert np.array_equal(alice, [1] * 6)
    assert np.array_equal(bob, [1] * 6)


def test_sift_all_bases_different_keeps_nothing():
    alice, bob, _ = sift(_forced_transcript((1,) * 6))
    assert len(alice) == len(bob) == 0


def test_sift_keeps_only_matching_bases():
    transcript = _trial(BB84, Scenario.CONTROL, EveModel.NONE, 200)
    alice, bob, eve = sift(transcript)
    assert eve is None
    pairs = zip(transcript.alice_bases, transcript.bob_bases)
    kept = [i for i, (a, b) in enumerate(pairs) if a == b]
    assert np.array_equal(transcript.kept.nonzero()[0], kept)
    assert np.array_equal(alice, transcript.alice_values[kept])
    assert np.array_equal(alice, bob)


def test_sift_discards_two_bit_chunks():
    transcript = _trial(HDBB84, Scenario.CONTROL, EveModel.NONE, 200)
    alice, bob, _ = sift(transcript)
    # Whole two-bit values are kept or dropped together.
    assert len(alice) == np.count_nonzero(transcript.kept)
    assert set(alice.tolist()) == {0, 1, 2, 3}
    assert np.array_equal(alice, bob)


def _masked_sift(transcript):
    kept, eve = transcript.kept, transcript.eve_values
    return (
        transcript.alice_values[kept],
        transcript.bob_values[kept],
        None if eve is None else eve[kept],
    )


def _assert_sift_equals_masked_forms(transcript, monkeypatch):
    for got, expected in zip(sift(transcript), _masked_sift(transcript)):
        if expected is None:
            assert got is None
        else:
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
    # The run's matches flag for this transcript.
    monkeypatch.setattr(protocols, "run_trial", lambda *args: transcript)
    (result,) = run_experiment(
        transcript.spec, transcript.scenario, transcript.eve, 1, 2, SEED
    )
    kept = transcript.kept
    expected = np.array_equal(transcript.bob_values[kept], transcript.control_values[kept])
    assert result.matches is expected
    return expected


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize(
    "bob_bases", [(0,) * 6, (1,) * 6, (0, 1) * 3], ids=["all", "none", "alternating"]
)
def test_sift_and_matches_equal_masked_forms_on_forced_transcripts(bob_bases, monkeypatch):
    transcript = _forced_transcript(bob_bases)
    assert _assert_sift_equals_masked_forms(transcript, monkeypatch)
    # Bob differs from the reference at every particle: matches fails where
    # anything is kept and holds where nothing is.
    differing = replace(transcript, bob_values=np.zeros(6, dtype=np.int64))
    assert _assert_sift_equals_masked_forms(differing, monkeypatch) is not any(
        transcript.kept
    )


@pytest.mark.parametrize(
    "spec,scenario,eve", GRID_CELLS, ids=lambda p: getattr(p, "value", getattr(p, "name", p))
)
def test_sift_and_matches_equal_masked_forms_on_trials(spec, scenario, eve, monkeypatch):
    transcript = _trial(spec, scenario, eve, 200)
    matches = _assert_sift_equals_masked_forms(transcript, monkeypatch)
    assert matches is (eve is not EveModel.STANDARD)


def test_mean_sifted_length_near_half_raw():
    lengths = []
    streams = role_streams(SEED)
    for _ in range(25):
        transcript = run_trial(BB84, Scenario.CONTROL, EveModel.NONE, 200, streams)
        alice, _, _ = sift(transcript)
        lengths.append(len(alice))
    assert abs(np.mean(lengths) - 100) <= 10


# --- trials -----------------------------------------------------------------------------


def test_run_trial_control_without_eve_is_error_free():
    transcript = _trial(BB84, Scenario.CONTROL, EveModel.NONE, 200)
    alice, bob, _ = sift(transcript)
    assert analysis.qber(alice, bob, 1) == 0


def test_run_trial_relabel_with_hd_eve_is_invisible_and_fully_known():
    transcript = _trial(SSP, Scenario.RELABEL, EveModel.HD, 200)
    alice, bob, eve = sift(transcript)
    assert analysis.qber(alice, bob, 1) == 0
    assert analysis.knowledge(eve, alice, 1) == 1
    assert analysis.knowledge(eve, bob, 1) == 1


def test_run_trial_rejects_invalid_pairing():
    with pytest.raises(ConfigError):
        run_trial(BB84, Scenario.RELABEL, EveModel.STANDARD, 200, role_streams(SEED))


def test_run_trial_is_deterministic():
    first = _trial(SSP, Scenario.CONTROL, EveModel.STANDARD, 200)
    second = _trial(SSP, Scenario.CONTROL, EveModel.STANDARD, 200)
    _assert_same_transcript(first, second)


@pytest.mark.parametrize("eve", [EveModel.NONE, EveModel.HD], ids=lambda e: e.value)
def test_transcript_arrays_are_read_only(eve):
    transcript = _trial(HDBB84, Scenario.RELABEL, eve, 200)
    arrays = [getattr(transcript, f.name) for f in fields(Transcript)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == (8 if eve is EveModel.HD else 6)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_scenarios_share_sifted_keys_without_eve(spec):
    for trials in TRIAL_COUNTS:
        keys = []
        for scenario in Scenario:
            streams = role_streams(SEED)
            keys.append([
                sift(run_trial(spec, scenario, EveModel.NONE, 200, streams))[1]
                for _ in range(trials)
            ])
        for control, conv, relabel in zip(*keys):
            assert np.array_equal(control, conv)
            assert np.array_equal(control, relabel)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_control_reference_equals_separate_control_run(spec):
    reference = _trial(spec, Scenario.CONTROL, EveModel.NONE, 200, trial=4)
    for scenario, eve in (
        (Scenario.CONTROL, EveModel.STANDARD),
        (Scenario.CONVERSION, EveModel.NONE),
        (Scenario.RELABEL, EveModel.HD),
    ):
        transcript = _trial(spec, scenario, eve, 200, trial=4)
        assert np.array_equal(transcript.control_values, reference.bob_values)


def test_alice_randomness_is_scenario_independent():
    control = _trial(BB84, Scenario.CONTROL, EveModel.STANDARD, 200)
    relabel = _trial(BB84, Scenario.RELABEL, EveModel.HD, 200)
    assert np.array_equal(control.alice_values, relabel.alice_values)
    assert np.array_equal(control.alice_bases, relabel.alice_bases)
    assert np.array_equal(control.bob_bases, relabel.bob_bases)


# --- stream layout v3 ---------------------------------------------------------------------

ZERO_QBER_CELLS = [(scenario, EveModel.NONE) for scenario in Scenario] + [
    (Scenario.CONVERSION, EveModel.HD),
    (Scenario.RELABEL, EveModel.HD),
]


def _role_bounds(spec):
    """Each role's draw: ``integers(0, bound, n)``, or ``random(n)`` for None."""
    k = spec.basis_count
    return {
        "alice-values": spec.d_ab,
        "alice-bases": k,
        "bob-bases": k,
        "bob-measure": None,
        "relabel": spec.d_ab,
        "eve-bases": k,
        "eve-measure": None,
    }


class _BatchRows:
    """Stands in for one role's generator: hands out the rows of a single
    ``(trials, particles)`` draw, one row per call, and checks that each call
    asks for exactly that draw."""

    def __init__(self, batch, bound):
        self.rows, self.bound = iter(batch), bound

    def integers(self, low, high, size):
        assert (low, high) == (0, self.bound)
        return self._next(size)

    def random(self, size):
        assert self.bound is None
        return self._next(size)

    def _next(self, size):
        row = next(self.rows)
        assert len(row) == size
        return row


@pytest.mark.parametrize(
    "spec,scenario,eve,raw_bits",
    [
        (SSP, Scenario.CONTROL, EveModel.STANDARD, 13),
        (BB84, Scenario.CONTROL, EveModel.STANDARD, 200),
        (HDBB84, Scenario.RELABEL, EveModel.HD, 14),
        (SSP, Scenario.RELABEL, EveModel.NONE, 200),
    ],
    ids=lambda p: getattr(p, "value", getattr(p, "name", p)),
)
def test_batched_role_draws_reproduce_trial_transcripts(spec, scenario, eve, raw_bits):
    trials, particles = 7, raw_bits // spec.bits_per_particle
    batched = {}
    for role, rng in role_streams(SEED).items():
        bound = _role_bounds(spec)[role]
        shape = (trials, particles)
        batch = rng.random(shape) if bound is None else rng.integers(0, bound, shape)
        batched[role] = _BatchRows(batch, bound)
    streams = role_streams(SEED)
    for _ in range(trials):
        _assert_same_transcript(
            run_trial(spec, scenario, eve, raw_bits, streams),
            run_trial(spec, scenario, eve, raw_bits, batched),
        )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_first_trials_of_a_longer_run_equal_a_shorter_run(spec):
    for scenario, eve in ZERO_QBER_CELLS + [(Scenario.CONTROL, EveModel.STANDARD)]:
        longer = run_experiment(spec, scenario, eve, 25, 16, SEED)
        for count in TRIAL_COUNTS:
            assert run_experiment(spec, scenario, eve, count, 16, SEED) == longer[:count]


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_zero_qber_without_eve_and_under_hd_at_every_trial_count(spec, trials):
    for scenario, eve in ZERO_QBER_CELLS:
        results = run_experiment(spec, scenario, eve, trials, 200, SEED)
        assert len(results) == trials
        for result in results:
            assert result.qber == 0
            assert result.matches
            if eve is EveModel.HD:
                assert result.alice_knowledge == result.bob_knowledge == 1


# --- experiment-level statistics ----------------------------------------------------------


def test_oracle_matches_closed_form():
    qber, alice_know, bob_know = intercept_resend_oracle("bb84", 1)
    assert abs(qber - 0.25) < 1e-12
    assert abs(alice_know - 0.75) < 1e-12
    assert abs(bob_know - 0.75) < 1e-12
    qber, _, _ = intercept_resend_oracle("hdbb84", 2)
    assert abs(qber - 0.25) < 1e-12
    qber, alice_know, _ = intercept_resend_oracle("ssp", 1)
    assert abs(qber - 1 / 3) < 1e-12
    assert abs(alice_know - 2 / 3) < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_standard_eve_statistics_match_oracle(spec):
    expected_qber, expected_ka, expected_kb = intercept_resend_oracle(
        spec.name, spec.bits_per_particle
    )
    stats = analysis.aggregate(
        run_experiment(spec, Scenario.CONTROL, EveModel.STANDARD, 25, 200, SEED)
    )
    assert abs(float(stats["qber"]) - expected_qber) <= 0.03
    assert abs(float(stats["alice_knowledge"]) - expected_ka) <= 0.04
    assert abs(float(stats["bob_knowledge"]) - expected_kb) <= 0.04
    assert float(stats["matches"]) == 0.0


def test_hd_knowledge_skips_empty_sifted_keys():
    # Trial 130 of this run sifts to an empty key.  Its knowledge is
    # undefined, not 0, so the hd attack still reads the whole key.
    with pytest.warns(analysis.EmptySiftWarning) as caught:
        results = run_experiment(HDBB84, Scenario.CONVERSION, EveModel.HD, 150, 16, 1)
    assert any("undefined" in str(w.message) for w in caught)
    # One warning for the QBER of the empty key, one for each knowledge.
    assert sorted(str(w.message) for w in caught) == [
        "empty sifted key: QBER treated as 0", *2 * ["empty sifted key: knowledge undefined"]
    ]
    empty = results[130]
    assert (empty.key_size, empty.qber) == (0, 0)
    assert empty.alice_knowledge is None and empty.bob_knowledge is None
    stats = analysis.aggregate(results)
    assert stats["alice_knowledge"] == stats["bob_knowledge"] == 1


def test_run_experiment_scores_trials_without_fractions(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built while scoring trials")

    monkeypatch.setattr(analysis, "Fraction", no_fraction)
    with pytest.warns(analysis.EmptySiftWarning):
        runs = [run_experiment(spec, scenario, eve, 150, 16, 1) for spec, scenario, eve in GRID_CELLS]
    monkeypatch.undo()
    for results in runs:
        assert analysis.aggregate(results)["qber"] is not None


@pytest.mark.parametrize("spec,low,high", [(BB84, 0.45, 0.55), (SSP, 0.28, 0.39)])
def test_sift_fraction_bands(spec, low, high):
    stats = analysis.aggregate(
        run_experiment(spec, Scenario.CONTROL, EveModel.NONE, 25, 200, SEED)
    )
    assert low <= float(stats["sift_fraction"]) <= high


def test_run_experiment_rejects_bad_trial_count():
    with pytest.raises(ConfigError):
        run_experiment(BB84, Scenario.CONTROL, EveModel.NONE, 0, 200, SEED)


def test_protocol_registry():
    assert set(PROTOCOLS) == {"bb84", "hdbb84", "ssp"}
    assert PROTOCOLS["hdbb84"].bits_per_particle == 2

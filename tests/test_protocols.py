import gc
import itertools
import tracemalloc
import warnings
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import analysis, gates, protocols
from qkdlab.core import (
    ATOL,
    ConfigError,
    ContractError,
    RandomSource,
    basis_state,
    equal_up_to_global_phase,
)
from qkdlab.protocols import (
    BB84,
    CELLS,
    HDBB84,
    MAX_RAW_BITS,
    PROTOCOLS,
    SSP,
    EveModel,
    ProtocolSpec,
    Scenario,
    _sample,
    alice_draws,
    matched_rows_certain,
    outcome_table,
    outcome_thresholds,
    role_streams,
    run_experiment,
    run_trial,
    sift,
    trial_draws,
    validate_pairing,
)

from oracle import BASES as ORACLE_BASES
from oracle import _sample as _oracle_sample
from oracle import intercept_resend_oracle
from paper_gates import PSI_SYMBOLS, hdbb84_psi_prep, on_slots
from reference_trial import FullTranscript, full_streams, full_trial, masked

SEED = 2
TRIAL_COUNTS = (1, 7, 25)
SQRT2 = 2**-0.5
ALL_SPECS = (BB84, HDBB84, SSP)
GRID_CELLS = [(spec, scenario, eve) for spec in ALL_SPECS for scenario, eve in CELLS]


def _rng(tag, seed=SEED):
    return RandomSource(seed).stream(tag)


def _scored(trial, raw_bits, values, bits):
    """Trial ``trial``'s counts from its kept values, scored as a block of one."""
    scores = analysis.score(*values, [len(values[0])], bits)
    return analysis.RunCounts(np.array([trial]), np.array([raw_bits]), *scores)[0]


def _draws(spec, raw_bits, streams):
    """The next trial's rows of every role in ``streams``, drawn as a block of one."""
    return next(trial_draws(spec, raw_bits, streams, 1))


def _next_trial(spec, scenario, eve, raw_bits, streams):
    """The next trial of a run, drawn as a block of one."""
    return run_trial(spec, scenario, eve, _draws(spec, raw_bits, streams))


def _trial(spec, scenario, eve, raw_bits, trial=0, seed=SEED):
    """Trial ``trial`` of a run, on its rows of one block of ``trial + 1`` trials."""
    draws = trial_draws(spec, raw_bits, role_streams(seed, scenario, eve), trial + 1)
    return run_trial(spec, scenario, eve, list(draws)[trial])


def _full(spec, scenario, eve, raw_bits, trial=0, seed=SEED):
    """Trial ``trial`` of a run as the full-length reference samples it."""
    streams = full_streams(seed)
    for _ in range(trial):
        full_trial(spec, scenario, eve, raw_bits, streams)
    return full_trial(spec, scenario, eve, raw_bits, streams)


# The arrays ``run_trial`` returns, in order.
TRIAL_ARRAYS = ("alice_values", "bob_values", "eve_values")


def _assert_same_trial(first, second):
    """Two trials' arrays are equal, dtypes included; None matches only None."""
    for name, a, b in zip(TRIAL_ARRAYS, first, second, strict=True):
        if a is None or b is None:
            assert a is b, name
        else:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


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
        run_trial(BB84, scenario, eve, _draws(BB84, 2, full_streams(SEED)))
    with pytest.raises(ConfigError, match=valid):
        role_streams(SEED, scenario, eve)

    # A bad cell fails before any stream opens.
    def no_stream(*args):
        raise AssertionError("a stream opened for an invalid cell")

    monkeypatch.setattr(RandomSource, "stream", no_stream)
    with pytest.raises(ConfigError, match=valid):
        run_experiment(BB84, scenario, eve, 1, 2, 1)


@pytest.mark.parametrize("table", [outcome_table, outcome_thresholds])
def test_outcome_tables_reject_unknown_scenarios_listing_valid_values(table):
    with pytest.raises(ConfigError, match="^unknown scenario 'bogus'; valid: control, conv, relabel$"):
        table(BB84, "bogus")


# The paper's six (scenario, eavesdropper) cells, written out here rather
# than read from CELLS.
PAPER_CELLS = [
    ("control", "none"),
    ("conv", "none"),
    ("relabel", "none"),
    ("control", "standard"),
    ("conv", "hd"),
    ("relabel", "hd"),
]


@pytest.mark.parametrize("scenario", [s.value for s in Scenario])
@pytest.mark.parametrize("eve", [e.value for e in EveModel])
def test_exactly_the_paper_cells_pair(scenario, eve):
    if (scenario, eve) in PAPER_CELLS:
        assert validate_pairing(scenario, eve) == (Scenario(scenario), EveModel(eve))
        return
    with pytest.raises(ConfigError, match="eavesdropper") as excinfo:
        validate_pairing(scenario, eve)
    message = str(excinfo.value)
    assert repr(scenario) in message and repr(eve) in message
    for cell in PAPER_CELLS:
        assert "/".join(cell) in message


@pytest.mark.parametrize("bad", [1.5, 4.0, "4", None])
def test_non_integral_run_sizes_and_seeds_are_config_errors(bad):
    with pytest.raises(ConfigError, match="trials must be an integer"):
        run_experiment(BB84, "control", "none", bad, 200, 1)
    with pytest.raises(ConfigError, match="raw_bits must be an integer"):
        run_experiment(BB84, "control", "none", 2, bad, 1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        run_experiment(BB84, "control", "none", 2, 200, bad)


def test_numpy_integer_run_sizes_and_seeds_are_accepted():
    results = run_experiment(BB84, "control", "none", np.int64(3), np.int32(8), np.uint8(1))
    assert [r.raw_len for r in results] == [8, 8, 8]
    assert results == run_experiment(BB84, "control", "none", 3, 8, 1)
    # Every other count checked by core.integral takes numpy integers too.
    a, b = np.array([1, 0, 3]), np.array([1, 2, 3])
    assert analysis.qber(a, b, np.int64(2)) == analysis.qber(a, b, 2)
    assert analysis.knowledge(a, b, np.uint8(2)) == analysis.knowledge(a, b, 2)
    assert [c.tolist() for c in analysis.score(a, b, a, [np.int64(3)], np.int32(2))] == [
        c.tolist() for c in analysis.score(a, b, a, [3], 2)
    ]
    assert analysis.detection_probability(HDBB84, np.int64(10)) == analysis.detection_probability(
        HDBB84, 10
    )
    counts = analysis.TrialResult(0, np.int64(6), np.int32(6), np.uint8(1), np.int16(0), None)
    assert counts.qber == analysis.TrialResult(0, 6, 6, 1, 0, None).qber


def test_validate_pairing_converts_names():
    assert validate_pairing("relabel", "hd") == (Scenario.RELABEL, EveModel.HD)


# --- alice -----------------------------------------------------------------------------


def test_alice_draws_is_deterministic():
    values_a, bases_a = alice_draws(BB84, 200, full_streams(SEED), 3)
    values_b, bases_b = alice_draws(BB84, 200, full_streams(SEED), 3)
    np.testing.assert_array_equal(values_a, values_b)
    np.testing.assert_array_equal(bases_a, bases_b)


def test_alice_draws_ssp_uses_three_bases():
    _, bases = alice_draws(SSP, 200, full_streams(SEED), 1)
    assert set(bases.ravel().tolist()) == {0, 1, 2}


def test_alice_draws_hdbb84_packs_two_bits_per_particle():
    # Two raw bits per particle: 100 values a trial, each one of the four
    # 2-bit values, one int32 row a trial.
    values, bases = alice_draws(HDBB84, 200, full_streams(SEED), 3)
    assert values.shape == bases.shape == (3, 100)
    assert values.dtype == bases.dtype == np.int32
    assert set(values.ravel().tolist()) == {0, 1, 2, 3}


def test_alice_draws_rejects_indivisible_length():
    with pytest.raises(ConfigError):
        alice_draws(HDBB84, 201, full_streams(SEED), 1)
    with pytest.raises(ConfigError):
        alice_draws(BB84, 0, full_streams(SEED), 1)


def test_alice_draws_rejects_oversized_length():
    with pytest.raises(ConfigError, match="at most"):
        alice_draws(BB84, MAX_RAW_BITS + 1, full_streams(SEED), 1)


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


def _relabel_values(spec, probs):
    """Bob's value distribution from a relabel outcome distribution over the
    d_e states: an outcome in his basis (basis digit 0) reads its value, and
    the off-basis mass is replaced by a uniformly random value."""
    in_basis = probs[:: spec.basis_count]
    return in_basis + (probs.sum() - in_basis.sum()) / spec.d_ab


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_outcome_table_rows_equal_state_vector_born_probabilities(spec, scenario):
    # The reference is the paper's hand-written circuit.  Its relabel gates
    # send off-basis outcomes to other nonzero digits (and values) than the
    # derived permutation; folded to the value Bob keeps, the two agree.
    table = outcome_table(spec, scenario)
    assert table.shape == (spec.d_ab, spec.basis_count, spec.basis_count, spec.d_ab)
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            for bob_basis in range(spec.basis_count):
                got = _probs(spec, scenario, value, basis, bob_basis)
                expected = _paper_probs(spec, scenario, value, basis, bob_basis)
                if scenario is Scenario.RELABEL:
                    expected = _relabel_values(spec, expected)
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


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_the_three_scenario_tables_of_a_paper_protocol_agree(spec):
    # The conversion circuit delivers Alice's state itself, and the paper's
    # bases are mutually unbiased, so relabel's point masses and uniform rows
    # are the control rows too.
    control = outcome_table(spec, Scenario.CONTROL)
    assert np.array_equal(outcome_table(spec, Scenario.CONVERSION), control)
    np.testing.assert_allclose(outcome_table(spec, Scenario.RELABEL), control, rtol=0, atol=ATOL)


_SPEC_NAMES = (f"random-{n}" for n in itertools.count())


def _random_spec(d_ab, k, seed):
    """A spec of ``k`` random unitary bases in dimension ``d_ab``."""
    rng = np.random.default_rng(seed)
    shape = (k, d_ab, d_ab)
    bases = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    return ProtocolSpec(next(_SPEC_NAMES), tuple(bases))


# Rounding leaves this spec's control and conv rows off the step by less
# than 1e-30, so its cells without intercept-resend sample Bob's values there.
RESIDUE_SPEC = _random_spec(4, 2, 0)


@settings(deadline=None, derandomize=True, database=None, max_examples=30)
@given(st.tuples(st.sampled_from((2, 4)), st.integers(1, 3), st.integers(0, 2**32 - 1)))
def test_conversion_table_equals_control_for_random_specs(case):
    # Any spec's conversion circuit, applied as its split and its bases,
    # must deliver Alice's particle state on the value ancilla; registered,
    # the spec also passes validate-gates' conversion checks.
    d_ab, k, seed = case
    spec = _random_spec(d_ab, k, seed)
    assert np.array_equal(
        outcome_table(spec, Scenario.CONVERSION), outcome_table(spec, Scenario.CONTROL)
    )
    ancillas = basis_state(k * d_ab, 0)
    for source in range(spec.d_e):
        basis = spec.value_basis(source)[1]
        rows = gates.conversion_output(spec, source)
        filled = source * k + basis
        assert np.flatnonzero(rows.any(axis=1)).tolist() == [filled]
        np.testing.assert_array_equal(
            gates.conversion_circuit(spec, np.kron(basis_state(spec.d_e, source), ancillas)),
            np.kron(np.kron(basis_state(spec.d_e, source), basis_state(k, basis)), rows[filled]),
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
        full = _full(spec, Scenario.CONTROL, EveModel.STANDARD, 200)
        hits = full.mask & (full.eve_bases == full.alice_bases)
        assert hits.any()
        np.testing.assert_array_equal(full.eve_values[hits], full.alice_values[hits])
        np.testing.assert_array_equal(full.bob_values[hits], full.control_values[hits])


def test_standard_eve_wrong_basis_fraction():
    # Over the kept particles, about 1500 for BB84 and 1000 for SSP.
    for spec, expect in ((BB84, 0.5), (SSP, 2 / 3)):
        full = _full(spec, Scenario.CONTROL, EveModel.STANDARD, 3000)
        wrong = np.mean(full.eve_bases[full.mask] != full.alice_bases[full.mask])
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
            alice, bob, eve = _trial(spec, scenario, EveModel.HD, 200)
            clean = _trial(spec, scenario, EveModel.NONE, 200)
            assert np.array_equal(eve, alice)
            assert np.array_equal(bob, clean[1])
            # The resent state is unchanged, so Bob sees exactly what he sees
            # without the tap, off-basis outcomes included (the full-length
            # reference samples those).
            full_tapped = _full(spec, scenario, EveModel.HD, 200)
            full_clean = _full(spec, scenario, EveModel.NONE, 200)
            assert np.array_equal(full_tapped.eve_values, full_tapped.alice_values)
            assert np.array_equal(full_tapped.eve_bases, full_tapped.alice_bases)
            assert np.array_equal(full_tapped.bob_values, full_clean.bob_values)


# --- bob --------------------------------------------------------------------------------


@pytest.mark.parametrize("spec", list(PROTOCOLS.values()), ids=lambda s: s.name)
def test_bob_control_decode_matching_basis_is_exact(spec):
    # Every matching-basis row of every scenario table is exactly the step at
    # the value sent, so without intercept-resend Bob reads Alice's value
    # whatever the uniform: ``run_trial`` returns her kept values as his, and
    # the control run's sifted key is hers, which ``matches`` relies on.
    for scenario in Scenario:
        table = outcome_table(spec, scenario)
        for value in range(spec.d_ab):
            step = (np.arange(spec.d_ab) >= value).astype(float)
            for basis in range(spec.basis_count):
                assert np.array_equal(table[value, basis, basis], step), (scenario, value, basis)
        assert matched_rows_certain(spec, scenario)
    # Rounding leaves this random-unitary spec's control and conv rows off the
    # step by less than 1e-30; the relabel rows are exact by construction.
    other = RESIDUE_SPEC
    assert [bool(matched_rows_certain(other, s)) for s in Scenario] == [False, False, True]
    residue = [
        np.abs(outcome_table(other, scenario)[value, basis, basis]
               - (np.arange(4) >= value)).max()
        for scenario in (Scenario.CONTROL, Scenario.CONVERSION)
        for value in range(4)
        for basis in range(2)
    ]
    assert 0 < max(residue) < 1e-30


def _count_sample_calls(monkeypatch):
    """Make the channel's sampler list the length of every call; returns the list."""
    calls = []

    def counted(thresholds, rows, u):
        calls.append(len(rows))
        return _sample(thresholds, rows, u)

    monkeypatch.setattr(protocols, "_sample", counted)
    return calls


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize(
    "spec,scenario,eve", GRID_CELLS, ids=lambda p: getattr(p, "value", getattr(p, "name", p))
)
def test_only_uncertain_rows_are_sampled(spec, scenario, eve, monkeypatch):
    # Timing-free guard on the shortcut: without intercept-resend a paper
    # cell reads certain rows and samples nothing; the standard eavesdropper
    # samples her intercept and Bob's reading once a block, each call on all
    # of the block's kept particles.  150 x 16 is one block, 200 x 200 is
    # three or two (SCORED_BLOCKS).
    calls = _count_sample_calls(monkeypatch)
    bits = spec.bits_per_particle
    for trials, raw_bits in ((150, 16), (200, 200)):
        calls.clear()
        results = run_experiment(spec, scenario, eve, trials, raw_bits, SEED)
        per_block = protocols.BLOCK_PARTICLES // (raw_bits // bits)
        kept = [
            int(results.key_size[start:start + per_block].sum()) // bits
            for start in range(0, trials, per_block)
        ]
        assert len(calls) == (2 * len(kept) if eve is EveModel.STANDARD else 0)
        if eve is EveModel.STANDARD:
            assert calls == [count for count in kept for _ in range(2)]


def test_a_residue_spec_keeps_sampling(monkeypatch):
    # The relabel rows alone are certain for this random-unitary spec.  Five
    # trials of 20 particles are one block, and 3 trials of 2**14 particles three.
    spec = RESIDUE_SPEC
    calls = _count_sample_calls(monkeypatch)
    for trials, blocks in ((5, 1), (3, 3)):
        per_block = {}
        for scenario, eve in CELLS:
            calls.clear()
            run_experiment(spec, scenario, eve, trials, 40 if blocks == 1 else 2**15, SEED)
            per_block[scenario.value, eve.value] = len(calls) / blocks
        assert per_block == {
            ("control", "none"): 1, ("conv", "none"): 1, ("relabel", "none"): 0,
            ("control", "standard"): 2, ("conv", "hd"): 1, ("relabel", "hd"): 0,
        }


def test_a_broken_scenario_table_is_sampled_not_hidden(monkeypatch):
    # A conversion circuit that delivers |0> sent in basis 0 as a mixture
    # breaks one matched-basis row of a fresh copy's conv table: the fact
    # reads False, Bob's values are sampled, and the errors show.
    spec = ProtocolSpec("bb84-broken", BB84.bases)
    conversion_output = gates.conversion_output

    def broken(target, source):
        rows = np.array(conversion_output(target, source))
        if target is spec and source == spec.state_index(0, 0):
            rows[rows.any(axis=1)] = [np.sqrt(0.75), np.sqrt(0.25)]
        return rows

    monkeypatch.setattr(gates, "conversion_output", broken)
    assert not matched_rows_certain(spec, Scenario.CONVERSION)
    assert matched_rows_certain(spec, Scenario.CONTROL)
    calls = _count_sample_calls(monkeypatch)
    results = run_experiment(spec, Scenario.CONVERSION, EveModel.NONE, 25, 200, SEED)
    # 25 trials of 200 particles are one block: one call on all their kept rows.
    assert calls == [int(results.key_size.sum()) // spec.bits_per_particle]
    assert analysis.aggregate(results)["qber"] > 0
    assert not all(result.matches for result in results)


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
    # In Bob's basis the outcome has basis digit 0 and carries the value.
    for value in range(spec.d_ab):
        for basis in range(spec.basis_count):
            np.testing.assert_array_equal(
                _probs(spec, Scenario.RELABEL, value, basis, basis), _delta(spec.d_ab, value)
            )


def test_bob_scenario2_concrete_relabel_rows():
    # In-basis outcomes are read out deterministically.
    np.testing.assert_allclose(_probs(BB84, Scenario.RELABEL, 0, 1, 1), _delta(2, 0), atol=1e-12)
    np.testing.assert_allclose(_probs(BB84, Scenario.RELABEL, 1, 0, 0), _delta(2, 1), atol=1e-12)
    np.testing.assert_allclose(_probs(SSP, Scenario.RELABEL, 1, 2, 2), _delta(2, 1), atol=1e-12)
    # Off-basis outcomes are always relabelled as uniformly random values.
    for spec in ALL_SPECS:
        for value in range(spec.d_ab):
            for basis in range(spec.basis_count):
                for bob_basis in range(spec.basis_count):
                    if bob_basis != basis:
                        np.testing.assert_allclose(
                            _probs(spec, Scenario.RELABEL, value, basis, bob_basis),
                            np.full(spec.d_ab, 1 / spec.d_ab),
                            atol=1e-12,
                        )


def test_bob_scenario2_off_basis_hdbb84_draws_two_bits():
    # The kernel samples no off-basis outcome: the full-length reference
    # samples Bob's values there from the uniform rows.
    full = _full(HDBB84, Scenario.RELABEL, EveModel.NONE, 8000)
    off = full.bob_values[~full.mask]
    counts = np.bincount(off, minlength=4) / len(off)
    np.testing.assert_allclose(counts, 0.25, atol=0.03)


# --- sifting ----------------------------------------------------------------------------


def _forced(bob_bases):
    """A full-length BB84 trial with Alice's bases all 0 and Bob's forced."""
    n = len(bob_bases)
    ones = np.ones(n, dtype=np.int64)
    return FullTranscript(
        alice_values=ones,
        alice_bases=np.zeros(n, dtype=np.int64),
        eve_values=None,
        eve_bases=None,
        bob_bases=np.array(bob_bases, dtype=np.int64),
        bob_values=ones,
        control_values=ones,
    )


def _kept_values(full):
    """The kernel's arrays of full-length ones: sift, then take every value
    array at the kept positions, as ``run_trial`` does."""
    kept = sift(full.alice_bases, full.bob_bases)
    eve_values = None if full.eve_values is None else full.eve_values.take(kept)
    return full.alice_values.take(kept), full.bob_values.take(kept), eve_values


def test_sift_all_bases_equal_keeps_everything():
    full = _forced((0,) * 6)
    assert np.array_equal(sift(full.alice_bases, full.bob_bases), range(6))
    alice, bob, _ = _kept_values(full)
    assert len(alice) == 6
    assert np.array_equal(alice, [1] * 6)
    assert np.array_equal(bob, [1] * 6)


def test_sift_all_bases_different_keeps_nothing():
    full = _forced((1,) * 6)
    alice, bob, _ = _kept_values(full)
    assert len(sift(full.alice_bases, full.bob_bases)) == len(alice) == len(bob) == 0


def test_sift_keeps_only_matching_bases():
    alice, bob, eve = _trial(BB84, Scenario.CONTROL, EveModel.NONE, 200)
    full = _full(BB84, Scenario.CONTROL, EveModel.NONE, 200)
    assert eve is None
    pairs = zip(full.alice_bases, full.bob_bases)
    kept = [i for i, (a, b) in enumerate(pairs) if a == b]
    assert np.array_equal(sift(full.alice_bases, full.bob_bases), kept)
    assert np.array_equal(alice, full.alice_values[kept])
    assert np.array_equal(alice, bob)


def test_sift_discards_two_bit_chunks():
    alice, bob, _ = _trial(HDBB84, Scenario.CONTROL, EveModel.NONE, 200)
    full = _full(HDBB84, Scenario.CONTROL, EveModel.NONE, 200)
    # Whole two-bit values are kept or dropped together.
    assert len(alice) == np.count_nonzero(full.mask)
    assert set(alice.tolist()) == {0, 1, 2, 3}
    assert np.array_equal(alice, bob)


def _assert_kernel_and_matches_equal_masked_forms(cell, trial, full, monkeypatch):
    _assert_same_trial(trial, masked(full))
    # The run's matches flag for this trial, against the reference's
    # definition: Bob's sifted key equals the control run's.  The run's block
    # of one keeps this trial's particles and its channel returns this trial.
    monkeypatch.setattr(protocols, "_kept_draws", lambda *args: ({}, [len(trial[0])]))
    monkeypatch.setattr(protocols, "_channel", lambda *args: trial)
    raw_bits = len(full.alice_values) * cell[0].bits_per_particle
    (result,) = run_experiment(*cell, 1, raw_bits, SEED)
    mask = full.mask
    expected = np.array_equal(full.bob_values[mask], full.control_values[mask])
    assert result.matches is expected
    return expected


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize(
    "bob_bases", [(0,) * 6, (1,) * 6, (0, 1) * 3], ids=["all", "none", "alternating"]
)
def test_sift_and_matches_equal_masked_forms_on_forced_transcripts(bob_bases, monkeypatch):
    cell = (BB84, Scenario.CONTROL, EveModel.NONE)
    full = _forced(bob_bases)
    assert _assert_kernel_and_matches_equal_masked_forms(
        cell, _kept_values(full), full, monkeypatch
    )
    # Bob differs from the reference at every particle: matches fails where
    # anything is kept and holds where nothing is.
    differing = full._replace(bob_values=np.zeros(6, dtype=np.int64))
    assert _assert_kernel_and_matches_equal_masked_forms(
        cell, _kept_values(differing), differing, monkeypatch
    ) is not any(full.mask)


@pytest.mark.parametrize(
    "spec,scenario,eve", GRID_CELLS, ids=lambda p: getattr(p, "value", getattr(p, "name", p))
)
def test_sift_and_matches_equal_masked_forms_on_trials(spec, scenario, eve, monkeypatch):
    trial = _trial(spec, scenario, eve, 200)
    full = _full(spec, scenario, eve, 200)
    matches = _assert_kernel_and_matches_equal_masked_forms(
        (spec, scenario, eve), trial, full, monkeypatch
    )
    assert matches is (eve is not EveModel.STANDARD)


def test_mean_sifted_length_near_half_raw():
    lengths = []
    for draws in trial_draws(BB84, 200, full_streams(SEED), 25):
        alice, _, _ = run_trial(BB84, Scenario.CONTROL, EveModel.NONE, draws)
        lengths.append(len(alice))
    assert abs(np.mean(lengths) - 100) <= 10


# --- trials -----------------------------------------------------------------------------


def test_run_trial_control_without_eve_is_error_free():
    alice, bob, _ = _trial(BB84, Scenario.CONTROL, EveModel.NONE, 200)
    assert analysis.qber(alice, bob, 1) == 0


def test_run_trial_relabel_with_hd_eve_is_invisible_and_fully_known():
    alice, bob, eve = _trial(SSP, Scenario.RELABEL, EveModel.HD, 200)
    assert analysis.qber(alice, bob, 1) == 0
    assert analysis.knowledge(eve, alice, 1) == 1
    assert analysis.knowledge(eve, bob, 1) == 1


def test_run_trial_rejects_invalid_pairing():
    with pytest.raises(ConfigError):
        run_trial(BB84, Scenario.RELABEL, EveModel.STANDARD, _draws(BB84, 200, full_streams(SEED)))


def test_run_trial_is_deterministic():
    first = _trial(SSP, Scenario.CONTROL, EveModel.STANDARD, 200)
    second = _trial(SSP, Scenario.CONTROL, EveModel.STANDARD, 200)
    _assert_same_trial(first, second)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_scenarios_share_sifted_keys_without_eve(spec):
    for trials in TRIAL_COUNTS:
        keys = []
        for scenario in Scenario:
            streams = role_streams(SEED, scenario, EveModel.NONE)
            keys.append([
                run_trial(spec, scenario, EveModel.NONE, draws)[1]
                for draws in trial_draws(spec, 200, streams, trials)
            ])
        for control, conv, relabel in zip(*keys):
            assert np.array_equal(control, conv)
            assert np.array_equal(control, relabel)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_control_reference_equals_separate_control_run(spec):
    # A trial matches when Bob's sifted key equals that of the same-seed
    # control run without an eavesdropper, here run on its own.
    _, reference, _ = _trial(spec, Scenario.CONTROL, EveModel.NONE, 200, trial=4)
    for scenario, eve in CELLS:
        _, bob, _ = _trial(spec, scenario, eve, 200, trial=4)
        result = run_experiment(spec, scenario, eve, 5, 200, SEED)[4]
        assert result.matches is np.array_equal(bob, reference)
        assert result.matches is (eve is not EveModel.STANDARD)


def test_alice_randomness_is_scenario_independent():
    # Alice's and Bob's roles draw alike in every cell, so the kept positions
    # and their bases agree too (the full-length reference returns them).
    cells = [(Scenario.CONTROL, EveModel.STANDARD), (Scenario.RELABEL, EveModel.HD)]
    control, relabel = (
        full_trial(BB84, scenario, eve, 200, role_streams(SEED, scenario, eve))
        for scenario, eve in cells
    )
    for name in ("alice_values", "alice_bases", "bob_bases"):
        assert np.array_equal(getattr(control, name), getattr(relabel, name)), name
    control_alice, relabel_alice = (_trial(BB84, *cell, 200)[0] for cell in cells)
    assert np.array_equal(control_alice, relabel_alice)


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
        "eve-bases": k,
        "eve-measure": None,
    }


@pytest.mark.parametrize(
    "bound", sorted({m for spec in PROTOCOLS.values() for m in (spec.d_ab, spec.basis_count)})
)
def test_int32_draws_equal_int64_draws_and_keep_the_stream_in_step(bound):
    # Stream layout v3 draws integer roles as int32; numpy fills them with
    # the values of the int64 call and consumes the same raw words.
    for size in (1, 7, 16, 201, (3, 5), (7, 9)):
        narrow, wide = _rng("alice-values"), _rng("alice-values")
        for _ in range(2):
            drawn = narrow.integers(0, bound, size, dtype=np.int32)
            assert drawn.dtype == np.int32
            np.testing.assert_array_equal(drawn, wide.integers(0, bound, size))
            np.testing.assert_array_equal(narrow.random(3), wide.random(3))


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
    # A trial's rows of one (trials, particles) block per role are the draws
    # one stream call a trial returns, as the stream-layout table lists them.
    trials, particles = 7, raw_bits // spec.bits_per_particle
    streams = role_streams(SEED, scenario, eve)
    batched = trial_draws(spec, raw_bits, role_streams(SEED, scenario, eve), trials)
    for draws in batched:
        one_by_one = {}
        for role, rng in streams.items():
            bound = _role_bounds(spec)[role]
            one_by_one[role] = (
                rng.random(particles) if bound is None
                else rng.integers(0, bound, particles, dtype=np.int32)
            )
        assert list(draws) == list(one_by_one) == list(CELL_ROLES[scenario, eve])
        for role, row in draws.items():
            assert row.dtype == one_by_one[role].dtype, role
            np.testing.assert_array_equal(row, one_by_one[role], err_msg=role)
        _assert_same_trial(
            run_trial(spec, scenario, eve, one_by_one), run_trial(spec, scenario, eve, draws)
        )


# The roles each pairing reads, as the stream-layout docstring lists them:
# Alice's and Bob's four everywhere, the two eavesdropper roles under the
# standard eavesdropper.
_ALICE_BOB = ("alice-values", "alice-bases", "bob-bases", "bob-measure")
CELL_ROLES = {
    (Scenario.CONTROL, EveModel.NONE): _ALICE_BOB,
    (Scenario.CONVERSION, EveModel.NONE): _ALICE_BOB,
    (Scenario.RELABEL, EveModel.NONE): _ALICE_BOB,
    (Scenario.CONTROL, EveModel.STANDARD): _ALICE_BOB + ("eve-bases", "eve-measure"),
    (Scenario.CONVERSION, EveModel.HD): _ALICE_BOB,
    (Scenario.RELABEL, EveModel.HD): _ALICE_BOB,
}


def test_cell_roles_cover_the_grid_pairings():
    assert sorted(CELL_ROLES) == sorted(CELLS)


@pytest.mark.parametrize(
    "spec,scenario,eve", GRID_CELLS, ids=lambda p: getattr(p, "value", getattr(p, "name", p))
)
def test_a_run_opens_one_stream_per_role_its_cell_reads(spec, scenario, eve, monkeypatch):
    opened = []
    stream = RandomSource.stream

    def counted(source, role):
        opened.append(role)
        return stream(source, role)

    monkeypatch.setattr(RandomSource, "stream", counted)
    run_experiment(spec, scenario, eve, 3, 16, SEED)
    assert opened == list(CELL_ROLES[scenario, eve])
    opened.clear()
    assert list(role_streams(SEED, scenario.value, eve.value)) == list(CELL_ROLES[scenario, eve])
    assert opened == list(CELL_ROLES[scenario, eve])


class _CountedStream:
    """One role's generator that lists its draw calls in ``calls[role]``:
    the dtype of an ``integers`` call, "random" for a ``random`` call."""

    def __init__(self, rng, calls, role):
        self.rng, self.calls, self.role = rng, calls, role

    def integers(self, *args, **kwargs):
        self.calls[self.role].append(np.dtype(kwargs.get("dtype", np.int64)))
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls[self.role].append("random")
        return self.rng.random(*args, **kwargs)


def _count_draw_calls(monkeypatch):
    """Make every stream a run opens list its draw calls; returns the lists."""
    calls = {}
    stream = RandomSource.stream

    def counted(source, role):
        calls[role] = []
        return _CountedStream(stream(source, role), calls, role)

    monkeypatch.setattr(RandomSource, "stream", counted)
    return calls


def _block_calls(scenario, eve, blocks):
    """The draw calls of a run of ``blocks`` blocks: one int32 ``integers``
    call a block on each integer role, one ``random`` call on the others."""
    return {
        role: ["random" if role.endswith("-measure") else np.dtype(np.int32)] * blocks
        for role in CELL_ROLES[scenario, eve]
    }


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize(
    "spec,scenario,eve", GRID_CELLS, ids=lambda p: getattr(p, "value", getattr(p, "name", p))
)
def test_a_short_run_draws_each_role_once(spec, scenario, eve, monkeypatch):
    # 150 trials of 16 raw bits fit in one block, so each role is read once,
    # not once a trial.
    calls = _count_draw_calls(monkeypatch)
    run_experiment(spec, scenario, eve, 150, 16, SEED)
    assert calls == _block_calls(scenario, eve, 1)


def test_a_long_key_draws_each_role_once_a_trial(monkeypatch):
    # 20,000 particles are more than a block, so each trial is a block of one.
    calls = _count_draw_calls(monkeypatch)
    run_experiment(BB84, Scenario.CONTROL, EveModel.STANDARD, 2, 20_000, SEED)
    assert protocols.BLOCK_PARTICLES < 20_000
    assert calls == _block_calls(Scenario.CONTROL, EveModel.STANDARD, 2)


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize("trials,raw_bits", [(150, 16), (3, 20_000)])
def test_a_blocks_draws_are_freed_before_it_is_scored(trials, raw_bits, monkeypatch):
    # A long trial peaks while it samples; its blocks of draws must not live
    # on while its kept values are scored, nor into the next block.
    blocks, draw, score = [], protocols.alice_draws, analysis.score

    def drawn(*args):
        values, bases = draw(*args)
        blocks.extend(map(weakref.ref, (values, bases)))
        return values, bases

    def scored(*args):
        assert blocks and all(block() is None for block in blocks)
        return score(*args)

    monkeypatch.setattr(protocols, "alice_draws", drawn)
    monkeypatch.setattr(analysis, "score", scored)
    run_experiment(BB84, Scenario.CONTROL, EveModel.STANDARD, trials, raw_bits, SEED)
    assert len(blocks) == 2 * (1 if trials == 150 else trials)


# (particles a trial, blocks) for a 7-trial run in blocks of 42 particles:
# one full block of 7 trials, seven blocks that one trial fills, blocks of 3,
# 3 and a partial last 1, and trials larger than a block, one to a block.
BLOCK_CASES = {"one-full": (6, 1), "one-trial-full": (42, 7), "partial-last": (12, 3),
               "trial-over-block": (50, 7)}


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES)
@pytest.mark.parametrize(
    "spec,scenario,eve",
    # The residue spec samples Bob's values in its control and conv cells.
    GRID_CELLS + [(RESIDUE_SPEC, scenario, eve) for scenario, eve in CELLS],
    ids=lambda p: getattr(p, "value", getattr(p, "name", p)),
)
def test_a_blocked_run_equals_its_trials_run_one_by_one(spec, scenario, eve, case, monkeypatch):
    particles, blocks = case
    trials, bits = 7, spec.bits_per_particle
    raw_bits = particles * bits
    streams = role_streams(SEED, scenario, eve)
    expected = [
        _scored(trial, raw_bits, _next_trial(spec, scenario, eve, raw_bits, streams), bits)
        for trial in range(trials)
    ]
    monkeypatch.setattr(protocols, "BLOCK_PARTICLES", 42)
    calls = _count_draw_calls(monkeypatch)
    assert run_experiment(spec, scenario, eve, trials, raw_bits, SEED) == expected
    assert calls == _block_calls(scenario, eve, blocks)


def _sifted_row_by_row(spec, scenario, eve, trials, raw_bits, seed):
    """A run's key sizes and errors with each trial of its draws sifted
    alone: ``sift`` on every row of one block of all its trials, the kept
    entries of every role concatenated in trial order, then the channel and
    the score.  Also checks that ``sift`` on the block gives the same
    positions, each offset by its row's start."""
    draws = protocols.block_draws(spec, raw_bits, role_streams(seed, scenario, eve), trials)
    rows = [sift(a, b) for a, b in zip(draws["alice-bases"], draws["bob-bases"])]
    particles = draws["alice-bases"].shape[1]
    np.testing.assert_array_equal(
        sift(draws["alice-bases"], draws["bob-bases"]),
        np.concatenate([kept + t * particles for t, kept in enumerate(rows)]),
    )
    entries = {
        role: np.concatenate([row.take(kept) for row, kept in zip(block, rows)])
        for role, block in draws.items()
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", analysis.EmptySiftWarning)
        scores = analysis.score(
            *protocols._channel(spec, scenario, eve, entries),
            [len(kept) for kept in rows],
            spec.bits_per_particle,
        )
    return scores[:2]


# (spec, trials) at 16 raw bits: shapes that cross a block boundary into a
# last block of one trial and hold empty trials, and the usual trial counts.
ROW_SIFT_SHAPES = [(BB84, 1025), (SSP, 1025), (HDBB84, 2049)] + [
    (spec, trials) for spec in ALL_SPECS for trials in TRIAL_COUNTS
]


@pytest.mark.parametrize("spec,trials", ROW_SIFT_SHAPES, ids=lambda p: getattr(p, "name", p))
def test_a_block_sift_equals_each_rows_sift(spec, trials):
    empty = 0
    for scenario, eve in CELLS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_experiment(spec, scenario, eve, trials, 16, SEED)
        key_size, errors = _sifted_row_by_row(spec, scenario, eve, trials, 16, SEED)
        np.testing.assert_array_equal(results.key_size, key_size)
        np.testing.assert_array_equal(results.errors, errors)
        # One warning an empty trial for its QBER, and one for each
        # knowledge where an eavesdropper reads the key.
        empties = int((key_size == 0).sum())
        per_trial = 1 if eve is EveModel.NONE else 3
        assert [w.category for w in caught] == [analysis.EmptySiftWarning] * per_trial * empties
        empty += empties
    # The block-crossing shapes hold empty trials, except bb84's 16-particle
    # trials, which sift to empty once in 2**16.
    if trials > 1000 and spec is not BB84:
        assert empty


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize("particles", (1, 7, 200))
@pytest.mark.parametrize(
    "scenario,eve", list(CELL_ROLES), ids=lambda p: getattr(p, "value", p)
)
@settings(deadline=None, derandomize=True, database=None, max_examples=15)
@given(case=st.tuples(st.sampled_from((2, 4)), st.integers(1, 3), st.integers(0, 2**32 - 1)))
def test_sifted_kernel_equals_the_masked_full_length_reference(scenario, eve, particles, case):
    # For any spec, trial by trial: the kernel samples only the kept
    # particles, the reference samples all of them, and the two agree at the
    # kept particles; the run scores them alike.
    d_ab, k, seed = case
    spec = _random_spec(d_ab, k, seed)
    trials, raw_bits, bits = 3, particles * spec.bits_per_particle, spec.bits_per_particle
    streams, reference = role_streams(seed, scenario, eve), full_streams(seed)
    expected, matches = [], []
    for trial in range(trials):
        full = full_trial(spec, scenario, eve, raw_bits, reference)
        _assert_same_trial(_next_trial(spec, scenario, eve, raw_bits, streams), masked(full))
        expected.append(_scored(trial, raw_bits, masked(full), bits))
        # The matches flag as defined: Bob's sifted key equals the control run's.
        mask = full.mask
        matches.append(np.array_equal(full.bob_values[mask], full.control_values[mask]))
    results = run_experiment(spec, scenario, eve, trials, raw_bits, seed)
    assert results == expected
    assert [result.matches for result in results] == matches


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


# Trials a block holds at 150 x 16 (one block) and at 200 x 200, the shape
# of tests/golden/block_digests.json, by bits per particle.
SCORED_BLOCKS = {(150, 16): {1: [150], 2: [150]}, (200, 200): {1: [81, 81, 38], 2: [163, 37]}}


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize("shape", SCORED_BLOCKS, ids=lambda s: "x".join(map(str, s)))
def test_run_experiment_scores_each_block_once_and_builds_no_trial_result(shape, monkeypatch):
    blocks, score = [], analysis.score

    def counted(alice, bob, eve_values, kept, bits):
        blocks.append(len(kept))
        return score(alice, bob, eve_values, kept, bits)

    def no_trial_result(*args):
        raise AssertionError("a TrialResult was built inside run_experiment")

    monkeypatch.setattr(analysis, "score", counted)
    monkeypatch.setattr(analysis, "TrialResult", no_trial_result)
    for spec, scenario, eve in GRID_CELLS:
        blocks.clear()
        results = run_experiment(spec, scenario, eve, *shape, 3)
        assert blocks == SCORED_BLOCKS[shape][spec.bits_per_particle]
        assert len(results) == shape[0]


# Trials in each block that a run sifts, by shape and bits per particle: the
# scored blocks, and 10,000-bit trials, one a block at 10,000 particles and
# two at 5,000.
SIFTED_BLOCKS = {**SCORED_BLOCKS, (2, 10_000): {1: [1, 1], 2: [2]}}


@pytest.mark.filterwarnings("ignore::qkdlab.analysis.EmptySiftWarning")
@pytest.mark.parametrize("shape", SIFTED_BLOCKS, ids=lambda s: "x".join(map(str, s)))
def test_run_experiment_sifts_each_block_in_one_call(shape, monkeypatch):
    blocks, sift_block = [], protocols.sift

    def counted(alice_bases, bob_bases):
        blocks.append(len(alice_bases))
        return sift_block(alice_bases, bob_bases)

    monkeypatch.setattr(protocols, "sift", counted)
    for spec, scenario, eve in GRID_CELLS:
        blocks.clear()
        run_experiment(spec, scenario, eve, *shape, 3)
        assert blocks == SIFTED_BLOCKS[shape][spec.bits_per_particle]


def test_a_run_validates_its_cell_once_whatever_its_trials(monkeypatch):
    # run_experiment checks the names once; its trials take the members as given.
    calls, validate = [], protocols.validate_pairing
    monkeypatch.setattr(protocols, "validate_pairing", lambda *cell: calls.append(cell) or validate(*cell))
    run_experiment(BB84, "control", "standard", 1, 16, SEED)
    once = len(calls)
    calls.clear()
    run_experiment(BB84, "control", "standard", 150, 16, SEED)
    assert len(calls) == once


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

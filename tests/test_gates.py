import json

import numpy as np
import pytest

import qkdlab
from qkdlab.core import (
    ContractError,
    ValidationError,
    basis_state,
    equal_up_to_global_phase,
    is_unitary,
)
from qkdlab.gates import (
    CHJ_LITERAL,
    GATE_ACTIONS,
    PROTOCOLS,
    CatalogError,
    _entry,
    basis_candidate,
    catalog,
    catalog_dump,
    catalog_fingerprint,
    conversion_circuit,
    conversion_output,
    gate,
    validate_basis_candidate,
    validate_catalog,
)

from paper_gates import conversion_matrix, hdbb84_psi_prep, lift, on_slots

SQRT2 = 2**-0.5


def _chain(entries, start):
    state = start
    for entry in entries:
        state = entry.matrix @ state
    return state


# --- standard 2-dim gates ---------------------------------------------------


def test_hadamard_is_self_inverse_on_one():
    h = gate("H").matrix
    np.testing.assert_allclose(h @ h @ basis_state(2, 1), basis_state(2, 1), atol=1e-9)


def test_j_gate_squares_to_negative_identity():
    j = gate("J").matrix
    np.testing.assert_allclose(j @ j, -np.eye(2), atol=1e-12)
    assert equal_up_to_global_phase(j @ j @ basis_state(2, 0), basis_state(2, 0))


def test_j_gate_prepares_circular_states():
    j = gate("J").matrix
    np.testing.assert_allclose(j @ basis_state(2, 0), [1j * SQRT2, SQRT2], atol=1e-12)
    np.testing.assert_allclose(j @ basis_state(2, 1), [-SQRT2, -1j * SQRT2], atol=1e-12)


def test_x_fixes_plus_up_to_phase():
    x = gate("X").matrix
    plus = np.array([SQRT2, SQRT2])
    assert equal_up_to_global_phase(x @ plus, plus)


def test_unknown_gate_names_raise():
    for name in ("Y", "QidZ1", "QidEpsilon", "CZ", "fixed2", "original", "phi", ""):
        with pytest.raises(CatalogError):
            gate(name)
    with pytest.raises(CatalogError):
        hdbb84_psi_prep("epsilon")
    with pytest.raises(CatalogError):
        basis_candidate("pauli")


# --- dim-4 gates --------------------------------------------------------------


@pytest.mark.parametrize(
    "src,dst,sign",
    [(0, 2, 1), (1, 1, 1), (2, 0, 1), (3, 3, -1)],
)
def test_qidx1_action(src, dst, sign):
    x1 = gate("QidX1").matrix
    np.testing.assert_allclose(x1 @ basis_state(4, src), sign * basis_state(4, dst), atol=1e-12)


@pytest.mark.parametrize("src,dst", [(0, 1), (1, 0), (2, 3), (3, 2)])
def test_qidh1_action(src, dst):
    h1 = gate("QidH1").matrix
    np.testing.assert_allclose(h1 @ basis_state(4, src), basis_state(4, dst), atol=1e-12)


def test_qidh1_is_involution():
    h1 = gate("QidH1").matrix
    np.testing.assert_allclose(h1 @ h1, np.eye(4), atol=1e-12)


@pytest.mark.parametrize(
    "symbol,target", [("alpha", 0), ("beta", 1), ("gamma", 2), ("delta", 3)]
)
def test_psi_prep_lands_on_indexed_state(symbol, target):
    state = _chain(hdbb84_psi_prep(symbol), basis_state(4, 0))
    np.testing.assert_allclose(state, basis_state(4, target), atol=1e-12)


def test_fixed_phi_is_involution():
    phi = gate("Phi").matrix
    np.testing.assert_allclose(phi @ phi, np.eye(4), atol=1e-12)


def test_original_phi_double_application_permutes():
    phi = gate("PhiOriginal").matrix
    squared = phi @ phi
    expected = {0: 0, 1: 3, 2: 1, 3: 2}
    for src, dst in expected.items():
        np.testing.assert_allclose(
            squared @ basis_state(4, src), basis_state(4, dst), atol=1e-12
        )


def test_phi_overlap_criterion():
    for name in ("Phi", "PhiOriginal"):
        phi = gate(name).matrix
        np.testing.assert_allclose(np.abs(phi), 0.5, atol=1e-12)


# --- dim-8 gates ----------------------------------------------------------------


def test_qid_hd_table_rows():
    assert np.argmax(np.abs(gate("QidBeta").matrix[:, 4])) == 6
    np.testing.assert_allclose(gate("QidAlpha").matrix, np.eye(8), atol=0)
    phi8 = gate("QidPhi").matrix
    np.testing.assert_allclose(phi8 @ basis_state(8, 0), basis_state(8, 1), atol=0)
    np.testing.assert_allclose(phi8 @ basis_state(8, 1), basis_state(8, 0), atol=0)


@pytest.mark.parametrize("name", ["QidBeta", "QidGamma", "QidDelta", "QidPhi"])
def test_qid_hd_gates_are_involutions(name):
    matrix = gate(name).matrix
    np.testing.assert_allclose(matrix @ matrix, np.eye(8), atol=0)


# --- dim-6 gates -----------------------------------------------------------------


def test_qidx2_action_on_circular_state():
    x2 = gate("QidX2").matrix
    np.testing.assert_allclose(x2 @ basis_state(6, 2), -basis_state(6, 5), atol=0)


def test_qidj_maps_plus_to_minus():
    qidj = gate("QidJ").matrix
    np.testing.assert_allclose(qidj @ basis_state(6, 1), basis_state(6, 4), atol=0)


def test_qidj_is_reversed_negated_qidx2_and_vice_versa():
    x2 = gate("QidX2").matrix
    qidj = gate("QidJ").matrix
    np.testing.assert_array_equal(qidj, -x2[:, ::-1])
    np.testing.assert_array_equal(x2, -qidj[:, ::-1])


def test_qidh2_swaps_rectilinear_and_diagonal_states():
    h2 = gate("QidH2").matrix
    mapping = {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}
    for src, dst in mapping.items():
        np.testing.assert_allclose(h2 @ basis_state(6, src), basis_state(6, dst), atol=0)


# --- Qid gates as lifts of particle gates -------------------------------------------
# A Qid gate is meant to be the d_e image of a particle gate on a protocol's
# (value, basis) index; ``lift`` builds that image from the spec alone.

_Z2 = np.diag([1, -1]).astype(complex)
_Y2 = np.array([[0, -1j], [1j, 0]])


@pytest.mark.parametrize(
    "name,protocol,particle",
    [
        ("QidX1", "bb84", gate("X").matrix),
        ("QidH1", "bb84", gate("H").matrix),
        ("QidX2", "ssp", gate("X").matrix),
        ("QidPhi", "hdbb84", gate("Phi").matrix),
        ("QidAlpha", "hdbb84", np.eye(4)),
    ],
    ids=["QidX1", "QidH1", "QidX2", "QidPhi", "QidAlpha"],
)
def test_qid_gate_is_the_lift_entry_for_entry(name, protocol, particle):
    lifted = lift(PROTOCOLS[protocol], particle)
    np.testing.assert_allclose(gate(name).matrix, lifted, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name,protocol,particle",
    [
        ("QidJ", "ssp", gate("J").matrix),
        ("QidBeta", "hdbb84", np.kron(_Z2, gate("X").matrix)),
        ("QidGamma", "hdbb84", np.kron(gate("X").matrix, _Z2)),
        ("QidDelta", "hdbb84", np.kron(_Y2, _Y2)),
    ],
    ids=["QidJ", "QidBeta", "QidGamma", "QidDelta"],
)
def test_qid_gate_is_the_lift_column_by_column_up_to_phase(name, protocol, particle):
    matrix = gate(name).matrix
    lifted = lift(PROTOCOLS[protocol], particle)
    for column in range(matrix.shape[1]):
        assert equal_up_to_global_phase(matrix[:, column], lifted[:, column]), column


def test_qidh2_is_the_lift_of_h_except_on_the_circular_states():
    # lift(ssp, H) swaps |i> and |-i> (indices 2 and 5); QidH2 fixes them,
    # a reflection of the Bloch sphere that no unitary performs.
    matrix = gate("QidH2").matrix
    lifted = lift(PROTOCOLS["ssp"], gate("H").matrix)
    agrees = [equal_up_to_global_phase(matrix[:, k], lifted[:, k]) for k in range(6)]
    assert agrees == [True, True, False, True, True, False]


def test_lift_rejects_a_gate_that_leaves_the_spec_states():
    with pytest.raises(ContractError, match="maps onto no state"):
        lift(PROTOCOLS["bb84"], gate("J").matrix)


# --- conditional gates ---------------------------------------------------------------


def test_chj_matches_literal_matrix():
    np.testing.assert_array_equal(gate("CHJ").matrix, CHJ_LITERAL)


def test_chj_blocks():
    chj = gate("CHJ").matrix
    np.testing.assert_allclose(chj[:2, :2], np.eye(2), atol=0)
    np.testing.assert_allclose(chj[4:, 4:], gate("J").matrix, atol=1e-12)


def test_cphi_applies_phi_only_when_control_set():
    cphi = gate("CPhi").matrix
    ctrl_off = np.kron(basis_state(2, 0), basis_state(4, 0))
    np.testing.assert_allclose(cphi @ ctrl_off, ctrl_off, atol=0)
    ctrl_on = np.kron(basis_state(2, 1), basis_state(4, 0))
    expected = np.kron(basis_state(2, 1), 0.5 * np.ones(4))
    np.testing.assert_allclose(cphi @ ctrl_on, expected, atol=1e-12)


# --- conversion gates -------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["bb84", "hdbb84", "ssp"])
def test_conversion_composite_is_unitary(protocol):
    assert is_unitary(conversion_matrix(PROTOCOLS[protocol]))


@pytest.mark.parametrize("protocol", ["bb84", "hdbb84", "ssp"])
def test_conversion_output_matches_state_table(protocol):
    spec = PROTOCOLS[protocol]
    matrix = conversion_matrix(spec)
    ancillas = basis_state(spec.basis_count * spec.d_ab, 0)
    for k in range(spec.d_e):
        value, basis = spec.value_basis(k)
        encoded = spec.encode(value, basis)
        # |k, 0, 0> becomes |k, basis> (x) encode(value, basis).
        expected = np.kron(
            np.kron(basis_state(spec.d_e, k), basis_state(spec.basis_count, basis)), encoded
        )
        got = matrix @ np.kron(basis_state(spec.d_e, k), ancillas)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # The accessor is the circuit's output as rows over (source, basis
        # ancilla); only row |k, basis> is filled, so the circuit leaves
        # |k, basis> (x) that row's state.
        rows = conversion_output(spec, k)
        assert rows.shape == (spec.d_e * spec.basis_count, spec.d_ab)
        circuit = conversion_circuit(spec, np.kron(basis_state(spec.d_e, k), ancillas))
        np.testing.assert_array_equal(rows.ravel(), circuit)
        filled = k * spec.basis_count + basis
        assert np.flatnonzero(rows.any(axis=1)).tolist() == [filled]
        np.testing.assert_array_equal(
            circuit,
            np.kron(
                np.kron(basis_state(spec.d_e, k), basis_state(spec.basis_count, basis)),
                rows[filled],
            ),
        )
        np.testing.assert_allclose(rows[filled], encoded, atol=1e-12)


def test_conversion_unitary_check_fails_on_a_split_that_is_not_a_bijection(monkeypatch):
    def collapsed(spec):
        # In range, but the basis ancilla's own digit is dropped, so every
        # basis-ancilla state of a source lands on the same target.
        k, d = spec.basis_count, spec.d_ab
        source, b, v = np.indices((spec.d_e, k, d)).reshape(3, -1)
        value, basis = spec.value_basis(source)
        return (source * k + basis % k) * d + (v + value) % d

    catalog()  # built from the real split before the patch
    monkeypatch.setattr(qkdlab.gates, "_split_targets", collapsed)
    passed = {check.name: check.passed for check in validate_catalog()}
    for protocol in ("bb84", "hdbb84", "ssp"):
        assert not passed[f"conversion-unitary[{protocol}]"], protocol


def test_conversion_state_checks_fail_on_a_split_that_shifts_the_value(monkeypatch):
    def shifted(spec):
        # A bijection, but one that writes value + 1 onto the value ancilla.
        k, d = spec.basis_count, spec.d_ab
        source, b, v = np.indices((spec.d_e, k, d)).reshape(3, -1)
        value, basis = spec.value_basis(source)
        return (source * k + (b + basis) % k) * d + (v + value + 1) % d

    catalog()  # built from the real split before the patch
    monkeypatch.setattr(qkdlab.gates, "_split_targets", shifted)
    passed = {check.name: check.passed for check in validate_catalog()}
    for protocol in ("bb84", "hdbb84", "ssp"):
        assert passed[f"conversion-unitary[{protocol}]"], protocol
        assert not passed[f"conversion-states[{protocol}]"], protocol
        assert not passed[f"conversion-decode[{protocol}]"], protocol


def test_conversion_state_check_fails_on_a_split_that_moves_the_source(monkeypatch):
    def moved(spec):
        # A bijection that writes the right ancillas but sends the source
        # digit to (source + 1) mod d_e.
        k, d = spec.basis_count, spec.d_ab
        source, b, v = np.indices((spec.d_e, k, d)).reshape(3, -1)
        value, basis = spec.value_basis(source)
        return (((source + 1) % spec.d_e) * k + (b + basis) % k) * d + (v + value) % d

    catalog()  # built from the real split before the patch
    monkeypatch.setattr(qkdlab.gates, "_split_targets", moved)
    passed = {check.name: check.passed for check in validate_catalog()}
    for protocol in ("bb84", "hdbb84", "ssp"):
        assert passed[f"conversion-unitary[{protocol}]"], protocol
        assert not passed[f"conversion-states[{protocol}]"], protocol


def test_split_targets_are_cached_and_read_only():
    for spec in PROTOCOLS.values():
        targets = qkdlab.gates._split_targets(spec)
        assert qkdlab.gates._split_targets(spec) is targets
        with pytest.raises(ValueError, match="read-only"):
            targets[0] = 0


def test_conversion_examples():
    bb84 = PROTOCOLS["bb84"]
    np.testing.assert_allclose(bb84.encode(*bb84.value_basis(1)), [SQRT2, SQRT2], atol=1e-12)
    hd = PROTOCOLS["hdbb84"]
    np.testing.assert_allclose(
        hd.encode(*hd.value_basis(7)), gate("Phi").matrix[:, 3], atol=1e-12
    )
    ssp = PROTOCOLS["ssp"]
    assert equal_up_to_global_phase(
        ssp.encode(*ssp.value_basis(5)), np.array([-SQRT2, -1j * SQRT2])
    )


@pytest.mark.parametrize(
    "number,protocol,fixture", [(1, "bb84", "CH"), (2, "hdbb84", "CPhi"), (3, "ssp", "CHJ")]
)
def test_paper_conversion_steps_compose_to_the_derived_circuit(number, protocol, fixture):
    # The paper's split gate on the whole register (source, basis ancilla,
    # value ancilla), then its controlled gate on the two ancillas, is the
    # circuit derived from the spec's bases alone, bit for bit on every
    # register column.
    spec = PROTOCOLS[protocol]
    split = gate(f"QidConv{number}")
    slots = (spec.d_e, spec.basis_count, spec.d_ab)
    assert split.dims == slots
    columns = [
        on_slots(gate(fixture).matrix, on_slots(split.matrix, column, slots, (0, 1, 2)),
                 slots, (1, 2))
        for column in np.eye(split.dim)
    ]
    assert np.array_equal(np.stack(columns, axis=1), conversion_matrix(spec))


# --- mutual unbiasedness ---------------------------------------------------------------


def test_bb84_bases_are_mutually_unbiased():
    h = gate("H").matrix
    np.testing.assert_allclose(np.abs(h) ** 2, 0.5, atol=1e-12)


def test_hdbb84_bases_are_mutually_unbiased():
    phi = gate("Phi").matrix
    np.testing.assert_allclose(np.abs(phi) ** 2, 0.25, atol=1e-12)


def test_ssp_bases_are_pairwise_unbiased():
    bases = [
        np.eye(2, dtype=complex),
        gate("H").matrix,
        gate("J").matrix,
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            overlaps = np.abs(bases[i].conj().T @ bases[j])
            np.testing.assert_allclose(overlaps, SQRT2, atol=1e-12)


# --- basis candidates -------------------------------------------------------------------


def test_jgate_candidate_passes_both_criteria():
    report = validate_basis_candidate(basis_candidate("jgate"))
    assert report.randomness_pass == {"X": True, "H": True}
    assert report.double_application_pass


def test_bruss_candidate_fails_h_randomness_deterministically():
    report = validate_basis_candidate(basis_candidate("bruss"))
    assert report.zero_fraction["H"] == 1.0
    assert not report.randomness_pass["H"]
    assert report.randomness_pass["X"]


def test_bennett_candidate_random_but_double_application_flips():
    candidate = basis_candidate("bennett")
    report = validate_basis_candidate(candidate)
    assert report.randomness_pass == {"X": True, "H": True}
    assert not report.double_application_pass
    squared = candidate.gate @ candidate.gate
    assert equal_up_to_global_phase(squared @ basis_state(2, 0), basis_state(2, 1))


@pytest.mark.parametrize("name,reading", [("jgate", 1.0), ("bennett", 0.0), ("bruss", 0.5)])
def test_candidate_reports_the_zero_fraction_of_the_squared_gate(name, reading):
    # g.g|0> stays |0> for jgate (g.g = -I), flips to |1> for bennett and
    # lands halfway for bruss.  For a unitary g, g.g|0> staying |0> makes g.g
    # diagonal, so the reading of 1.0 is the double-application criterion.
    candidate = basis_candidate(name)
    assert is_unitary(candidate.gate)
    assert validate_basis_candidate(candidate).squared_zero_fraction == reading


@pytest.mark.parametrize("reading", [0, 1, 2], ids=["X", "H", "squared"])
@pytest.mark.parametrize("name", ["jgate", "bennett", "bruss"])
def test_a_changed_candidate_reading_fails_only_that_candidate(monkeypatch, name, reading):
    states, axis, readings, detail = qkdlab.gates._CANDIDATES[name]
    wrong = list(readings)
    wrong[reading] += 0.25
    monkeypatch.setitem(qkdlab.gates._CANDIDATES, name, (states, axis, tuple(wrong), detail))
    candidates = {
        check.name: check.passed for check in validate_catalog() if check.name.startswith("candidate[")
    }
    assert candidates == {f"candidate[{other}]": other != name for other in ("jgate", "bennett", "bruss")}


def test_candidate_states_are_normalized():
    for name in ("jgate", "bennett", "bruss"):
        for state in basis_candidate(name).states:
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_shared_gate_arrays_are_read_only():
    # Every caller shares the cached candidates and the module's constants, so
    # a write to one must fail rather than change what the next caller reads.
    # Each write puts back the values already there.
    kets = [getattr(qkdlab.gates, f"KET_{n}") for n in ("PLUS", "MINUS", "CIRC_PLUS", "CIRC_MINUS")]
    shared = [CHJ_LITERAL, *GATE_ACTIONS.values(), *kets]
    for name in ("jgate", "bennett", "bruss"):
        candidate = basis_candidate(name)
        shared += [*candidate.states, candidate.gate]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


# --- catalog ----------------------------------------------------------------------------


def test_every_catalog_gate_is_unitary():
    for entry in catalog():
        assert is_unitary(entry.matrix), entry.name


def test_every_action_row_holds_up_to_phase():
    assert list(GATE_ACTIONS) == ["X", "H", "J", "QidX2", "QidJ"]
    for name, columns in GATE_ACTIONS.items():
        matrix = gate(name).matrix
        for idx in range(len(matrix)):
            assert equal_up_to_global_phase(matrix[:, idx], columns[:, idx]), (name, idx)


def test_catalog_names_are_unique():
    names = [entry.name for entry in catalog()]
    assert len(names) == len(set(names))


def test_gate_returns_the_catalog_entry_of_each_name():
    for entry in catalog():
        assert gate(entry.name) is entry


def test_catalog_entry_rejects_bad_construction():
    with pytest.raises(ValidationError, match="shape"):
        _entry("Bad", (2,), np.eye(3))


def test_package_exports_resolve():
    assert "gate" in qkdlab.__all__
    for name in qkdlab.__all__:
        assert hasattr(qkdlab, name), name


def test_catalog_fingerprint_is_stable():
    first = catalog_fingerprint()
    assert first == catalog_fingerprint()
    assert len(first) == 64


def test_catalog_dump_round_trips():
    dump = catalog_dump()
    names = {item["name"] for item in dump}
    assert {"X", "H", "J", "QidX1", "CHJ", "QidConv2"} <= names
    text = json.dumps(dump)
    for item, entry in zip(json.loads(text), catalog()):
        assert item["name"] == entry.name
        assert tuple(item["dims"]) == entry.dims
        rebuilt = np.array(
            [[complex(re, im) for re, im in row] for row in item["matrix"]]
        )
        np.testing.assert_array_equal(rebuilt, entry.matrix)


def test_validate_catalog_all_pass():
    checks = validate_catalog()
    failed = [c.name for c in checks if not c.passed]
    assert not failed


def test_gate_actions_cannot_be_replaced():
    # validate_catalog reads GATE_ACTIONS on every call, so a replaced or
    # dropped entry would fail its action check for the rest of the process.
    with pytest.raises(TypeError):
        GATE_ACTIONS["X"] = np.eye(2)
    with pytest.raises(TypeError):
        del GATE_ACTIONS["QidJ"]
    checks = validate_catalog()
    assert len(checks) == 53 and all(c.passed for c in checks)

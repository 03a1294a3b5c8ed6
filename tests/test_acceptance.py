"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s or -rP to see them on success)."""

import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np

from oracle import intercept_resend_oracle
from paper_gates import conversion_matrix
from qkdlab import analysis, gates
from qkdlab.core import basis_state, equal_up_to_global_phase, is_unitary
from qkdlab.protocols import BB84, HDBB84, SSP, EveModel, Scenario, run_experiment

SEED = 2
TRIALS = 25
RAW_BITS = 200
ALL_SPECS = (BB84, HDBB84, SSP)
NO_EVE_SCENARIOS = (Scenario.CONTROL, Scenario.CONVERSION, Scenario.RELABEL)
HD_SCENARIOS = (Scenario.CONVERSION, Scenario.RELABEL)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


@lru_cache(maxsize=None)
def _no_eve_grid():
    return {
        (spec.name, scenario): analysis.aggregate(
            run_experiment(spec, scenario, EveModel.NONE, TRIALS, RAW_BITS, SEED)
        )
        for spec in ALL_SPECS
        for scenario in NO_EVE_SCENARIOS
    }


@lru_cache(maxsize=None)
def _hd_eve_grid():
    return {
        (spec.name, scenario): analysis.aggregate(
            run_experiment(spec, scenario, EveModel.HD, TRIALS, RAW_BITS, SEED)
        )
        for spec in ALL_SPECS
        for scenario in HD_SCENARIOS
    }


@lru_cache(maxsize=None)
def _standard_eve_stats():
    return {
        spec.name: analysis.aggregate(
            run_experiment(spec, Scenario.CONTROL, EveModel.STANDARD, TRIALS, RAW_BITS, SEED)
        )
        for spec in ALL_SPECS
    }


def test_criterion_1_no_eve_correctness():
    with criterion(1, "no-eve correctness"):
        _no_eve_grid.cache_clear()
        start = time.perf_counter()
        grid = _no_eve_grid()
        elapsed = time.perf_counter() - start
        for (name, scenario), stats in grid.items():
            assert stats["qber"] == Fraction(0), (name, scenario)
            assert stats["matches"] == Fraction(1), (name, scenario)
        assert elapsed < 5.0, f"no-eve grid took {elapsed:.2f}s"


def test_criterion_2_hd_attack_transparency():
    with criterion(2, "high-dimensional attack transparency"):
        _hd_eve_grid.cache_clear()
        start = time.perf_counter()
        grid = _hd_eve_grid()
        elapsed = time.perf_counter() - start
        for (name, scenario), stats in grid.items():
            assert stats["qber"] == Fraction(0), (name, scenario)
            assert stats["alice_knowledge"] == Fraction(1), (name, scenario)
            assert stats["bob_knowledge"] == Fraction(1), (name, scenario)
            assert stats["matches"] == Fraction(1), (name, scenario)
        assert elapsed < 5.0, f"HD-eve grid took {elapsed:.2f}s"


def test_criterion_3_standard_eve_qber():
    with criterion(3, "standard intercept-resend QBER"):
        bands = {"bb84": (0.22, 0.28), "hdbb84": (0.22, 0.28), "ssp": (0.30, 0.42)}
        theory = {"bb84": 0.25, "hdbb84": 0.25, "ssp": 1 / 3}
        stats = _standard_eve_stats()
        for spec in ALL_SPECS:
            expected, _, _ = intercept_resend_oracle(spec.name, spec.bits_per_particle)
            assert abs(expected - theory[spec.name]) < 1e-12
            observed = float(stats[spec.name]["qber"])
            low, high = bands[spec.name]
            assert low <= observed <= high, (spec.name, observed)
            assert abs(observed - expected) <= 0.03, (spec.name, observed, expected)


def test_criterion_4_standard_eve_knowledge():
    with criterion(4, "standard-eve knowledge of BB84 keys"):
        stats = _standard_eve_stats()["bb84"]
        assert 0.70 <= float(stats["alice_knowledge"]) <= 0.80
        assert 0.70 <= float(stats["bob_knowledge"]) <= 0.82


def test_criterion_5_sift_fractions():
    with criterion(5, "sift fractions"):
        grid = _no_eve_grid()
        bands = {"bb84": (0.45, 0.55), "hdbb84": (0.45, 0.55), "ssp": (0.28, 0.39)}
        for spec in ALL_SPECS:
            observed = float(grid[spec.name, Scenario.CONTROL]["sift_fraction"])
            low, high = bands[spec.name]
            assert low <= observed <= high, (spec.name, observed)
        print(
            "note: hdbb84 sift fraction asserted at the theoretical 50% band "
            "(uniform two-basis choice)"
        )


def test_criterion_6_gate_property_suite():
    with criterion(6, "gate property suite"):
        for entry in gates.catalog():
            assert is_unitary(entry.matrix), entry.name
        for name, columns in gates.GATE_ACTIONS.items():
            matrix = gates.gate(name).matrix
            for idx in range(len(matrix)):
                assert equal_up_to_global_phase(matrix[:, idx], columns[:, idx]), (name, idx)

        phi = gates.gate("Phi").matrix
        assert np.max(np.abs(phi @ phi - np.eye(4))) <= 1e-9
        assert np.max(np.abs(np.abs(phi) ** 2 - 0.25)) <= 1e-9

        original = gates.gate("PhiOriginal").matrix
        squared = original @ original
        cycle = np.zeros((4, 4))
        for src, dst in {0: 0, 1: 3, 2: 1, 3: 2}.items():
            cycle[dst, src] = 1.0
        assert np.max(np.abs(squared - cycle)) <= 1e-9

        qidx2 = gates.gate("QidX2").matrix
        qidj = gates.gate("QidJ").matrix
        assert np.array_equal(qidj, -qidx2[:, ::-1])
        assert np.array_equal(qidx2, -qidj[:, ::-1])

        assert np.array_equal(gates.gate("CHJ").matrix, gates.CHJ_LITERAL)


def test_criterion_7_basis_candidate_validation():
    with criterion(7, "circular-basis candidate validation"):
        jgate = gates.validate_basis_candidate(gates.basis_candidate("jgate"))
        assert jgate.randomness_pass == {"X": True, "H": True}
        assert jgate.double_application_pass

        bruss = gates.validate_basis_candidate(gates.basis_candidate("bruss"))
        assert bruss.zero_fraction["H"] == 1.0
        assert not bruss.randomness_pass["H"]

        bennett_candidate = gates.basis_candidate("bennett")
        bennett = gates.validate_basis_candidate(bennett_candidate)
        assert bennett.randomness_pass == {"X": True, "H": True}
        squared = bennett_candidate.gate @ bennett_candidate.gate
        assert equal_up_to_global_phase(squared @ basis_state(2, 0), basis_state(2, 1))


def test_criterion_8_detection_probability():
    with criterion(8, "detection probability"):
        assert analysis.detection_probability(BB84, 1) == 0.25
        assert abs(analysis.detection_probability(BB84, 10) - 0.943686) < 1e-6
        values = [analysis.detection_probability(BB84, k) for k in range(40)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_criterion_9_conversion_soundness():
    with criterion(9, "conversion-gate soundness"):
        for spec in ALL_SPECS:
            assert is_unitary(conversion_matrix(spec))
            for k in range(spec.d_e):
                output = gates.conversion_output(spec, k)
                populated = np.flatnonzero(np.linalg.norm(output, axis=0) > 1e-9)
                assert len(populated) == 1, (spec.name, k)
                slot_state = output[:, populated[0]]
                value, basis = spec.value_basis(k)
                encoded = spec.encode(value, basis)
                assert equal_up_to_global_phase(slot_state, encoded), (spec.name, k)
                decoded = spec.decode(basis) @ slot_state
                assert abs(abs(decoded[value]) ** 2 - 1.0) <= 1e-9, (spec.name, k)

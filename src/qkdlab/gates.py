"""Gate catalog for the three protocols and their high-dimensional variants.

Every unitary used anywhere in the laboratory lives here, each wrapped in a
:class:`GateCatalogEntry` that carries its intended action table.  Entries are
validated on construction: the matrix must be unitary and must reproduce every
action row up to a global phase.

Index conventions
-----------------
High-dimensional ("Qid") gates act on the eavesdropper-side qudit whose basis
states enumerate (value, basis) pairs as ``index = value * basis_count + basis``:

* BB84, dim 4:    |0> = 0/rect, |1> = 0/diag, |2> = 1/rect, |3> = 1/diag
* HD-BB84, dim 8: even |2v> = psi_v, odd |2v+1> = phi_v
* SSP, dim 6:     |0> = |0>, |1> = |+>, |2> = |i>, |3> = |1>, |4> = |->, |5> = |-i>
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ATOL,
    ConfigError,
    ContractError,
    Register,
    SimulationError,
    ValidationError,
    apply_to_slot,
    basis_state,
    embed,
    equal_up_to_global_phase,
    is_unitary,
    product_register,
)


class CatalogError(SimulationError):
    """Requested gate is not in the catalog."""


_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateCatalogEntry:
    """A named unitary with a slot-dimension signature and an action table.

    ``dims`` lists the slot dimensions the gate spans (a plain single-qudit
    gate has one slot); ``action`` pairs input basis indices with the state
    the gate must produce, checked up to global phase.
    """

    name: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    action: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self) -> None:
        dim = math.prod(self.dims)
        if self.matrix.shape != (dim, dim):
            raise ValidationError(f"{self.name}: matrix shape != {dim}x{dim}")
        if not is_unitary(self.matrix):
            raise ValidationError(f"{self.name}: matrix is not unitary")
        for idx, expected in self.action:
            got = self.matrix[:, idx]
            if not equal_up_to_global_phase(got, expected):
                raise ValidationError(f"{self.name}: action row |{idx}> not realized")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _entry(name, dims, matrix, action) -> GateCatalogEntry:
    matrix = np.asarray(matrix, dtype=np.complex128)
    matrix.setflags(write=False)
    rows = tuple((int(i), np.asarray(v, dtype=np.complex128)) for i, v in action)
    return GateCatalogEntry(name, tuple(dims), matrix, rows)


def _permutation(dim: int, mapping: dict[int, int | tuple[int, float]]) -> np.ndarray:
    """Signed permutation matrix: column i carries the sign onto row j."""
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in mapping.items():
        row, sign = dst if isinstance(dst, tuple) else (dst, 1.0)
        matrix[row, src] = sign
    return matrix


def _perm_action(dim: int, mapping: dict[int, int | tuple[int, float]]):
    rows = []
    for src in range(dim):
        dst = mapping[src]
        row, sign = dst if isinstance(dst, tuple) else (dst, 1.0)
        rows.append((src, sign * basis_state(dim, row)))
    return tuple(rows)


# --- 2-dimensional building blocks ------------------------------------------

_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H2 = _SQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
# J prepares the circular (y-axis) basis: J|0> = (i,1)/sqrt2, J|1> = (-1,-i)/sqrt2.
_J2 = _SQRT2 * np.array([[1j, -1], [1, -1j]], dtype=np.complex128)

KET_PLUS = _SQRT2 * np.array([1, 1], dtype=np.complex128)
KET_MINUS = _SQRT2 * np.array([1, -1], dtype=np.complex128)
KET_CIRC_PLUS = _SQRT2 * np.array([1j, 1], dtype=np.complex128)
KET_CIRC_MINUS = _SQRT2 * np.array([-1, -1j], dtype=np.complex128)


@lru_cache(maxsize=None)
def standard_gate(name: str) -> GateCatalogEntry:
    """2-dimensional X, H, or J gate."""
    if name == "X":
        return _entry("X", (2,), _X2, [(0, basis_state(2, 1)), (1, basis_state(2, 0))])
    if name == "H":
        return _entry("H", (2,), _H2, [(0, KET_PLUS), (1, KET_MINUS)])
    if name == "J":
        return _entry("J", (2,), _J2, [(0, KET_CIRC_PLUS), (1, KET_CIRC_MINUS)])
    raise CatalogError(f"unknown standard gate {name!r}")


# --- BB84 high-dimensional gates (dim 4) -------------------------------------

_QIDX1_MAP = {0: 2, 1: 1, 2: 0, 3: (3, -1.0)}
_QIDH1_MAP = {0: 1, 1: 0, 2: 3, 3: 2}


@lru_cache(maxsize=None)
def qid_gate_bb84(name: str) -> GateCatalogEntry:
    """Dim-4 analogues of X and H acting on (value, basis) index pairs."""
    if name == "QidX1":
        return _entry("QidX1", (4,), _permutation(4, _QIDX1_MAP), _perm_action(4, _QIDX1_MAP))
    if name == "QidH1":
        return _entry("QidH1", (4,), _permutation(4, _QIDH1_MAP), _perm_action(4, _QIDH1_MAP))
    raise CatalogError(f"unknown BB84 qid gate {name!r}")


# --- HD-BB84 bases and gates --------------------------------------------------

# Columns are the four conjugate-basis states, each an equal-magnitude signed
# superposition of the computational (psi) states.
_PHI_FIXED = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=np.complex128,
)

# Uncorrected sign pattern, kept as a negative fixture: applying it twice
# permutes three of the four basis states instead of restoring them.
_PHI_ORIGINAL = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
    ],
    dtype=np.complex128,
)


@lru_cache(maxsize=None)
def hdbb84_phi_gate(variant: str = "fixed") -> GateCatalogEntry:
    """Dim-4 conjugate-basis gate; 'fixed' is the self-inverse production one."""
    if variant == "fixed":
        matrix = _PHI_FIXED
        name = "Phi"
    elif variant == "original":
        matrix = _PHI_ORIGINAL
        name = "PhiOriginal"
    else:
        raise CatalogError(f"unknown phi variant {variant!r}")
    action = tuple((k, matrix[:, k].copy()) for k in range(4))
    return _entry(name, (4,), matrix, action)


PSI_SYMBOLS = ("alpha", "beta", "gamma", "delta")


def hdbb84_psi_prep(symbol: str) -> tuple[GateCatalogEntry, ...]:
    """Gate sequence preparing |psi_symbol> from |0> on a dim-4 qudit.

    alpha: nothing, beta: QidH1, gamma: QidX1, delta: QidX1 then QidH1.
    """
    if symbol not in PSI_SYMBOLS:
        raise CatalogError(f"unknown psi symbol {symbol!r}")
    x1, h1 = qid_gate_bb84("QidX1"), qid_gate_bb84("QidH1")
    return {
        "alpha": (),
        "beta": (h1,),
        "gamma": (x1,),
        "delta": (x1, h1),
    }[symbol]


_QID_HD_MAPS = {
    "QidAlpha": {k: k for k in range(8)},
    "QidBeta": {0: 2, 1: 3, 2: 0, 3: 1, 4: 6, 5: 7, 6: 4, 7: 5},
    "QidGamma": {0: 4, 1: 5, 2: 6, 3: 7, 4: 0, 5: 1, 6: 2, 7: 3},
    "QidDelta": {0: 6, 1: 7, 2: 4, 3: 5, 4: 2, 5: 3, 6: 0, 7: 1},
    "QidPhi": {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
}


@lru_cache(maxsize=None)
def qid_gate_hdbb84(name: str) -> GateCatalogEntry:
    """Dim-8 permutation gates acting on the HD-BB84 (value, basis) index."""
    if name not in _QID_HD_MAPS:
        raise CatalogError(f"unknown HD-BB84 qid gate {name!r}")
    mapping = _QID_HD_MAPS[name]
    return _entry(name, (8,), _permutation(8, mapping), _perm_action(8, mapping))


# --- SSP gates (dim 6) --------------------------------------------------------

_QIDX2 = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [0, 0, -1, 0, 0, 0],
    ],
    dtype=np.complex128,
)

_QIDJ = np.array(
    [
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, -1, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=np.complex128,
)

_QIDX2_ACTION = {0: 3, 1: 1, 2: (5, -1.0), 3: 0, 4: (4, -1.0), 5: (2, -1.0)}
_QIDJ_ACTION = {0: 2, 1: 4, 2: (0, -1.0), 3: 5, 4: (1, -1.0), 5: (3, -1.0)}
# z and x states swap under H while the circular pair is held fixed.
_QIDH2_MAP = {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}


@lru_cache(maxsize=None)
def qid_gate_ssp(name: str) -> GateCatalogEntry:
    """Dim-6 analogues of X, H and J on the SSP (value, basis) index."""
    if name == "QidX2":
        return _entry("QidX2", (6,), _QIDX2, _perm_action(6, _QIDX2_ACTION))
    if name == "QidH2":
        return _entry("QidH2", (6,), _permutation(6, _QIDH2_MAP), _perm_action(6, _QIDH2_MAP))
    if name == "QidJ":
        return _entry("QidJ", (6,), _QIDJ, _perm_action(6, _QIDJ_ACTION))
    raise CatalogError(f"unknown SSP qid gate {name!r}")


# --- Conditional gates ---------------------------------------------------------

def _block_conditional(name: str, control_dim: int, blocks) -> GateCatalogEntry:
    """Block-diagonal gate applying blocks[c] to the target when control = |c>."""
    target_dim = blocks[0].shape[0]
    dim = control_dim * target_dim
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    action = []
    for c, block in enumerate(blocks):
        lo = c * target_dim
        matrix[lo : lo + target_dim, lo : lo + target_dim] = block
        for t in range(target_dim):
            expected = np.kron(basis_state(control_dim, c), block[:, t])
            action.append((lo + t, expected))
    return _entry(name, (control_dim, target_dim), matrix, action)


@lru_cache(maxsize=None)
def conditional_gate(name: str) -> GateCatalogEntry:
    """Controlled gates used by the conversion circuits.

    CPhi applies the dim-4 conjugate-basis gate when its control qubit is |1>.
    CHJ is controlled by a qutrit: |1> applies H, |2> applies J to the qubit.
    CX / CH are the plain controlled qubit gates.
    """
    eye2 = np.eye(2, dtype=np.complex128)
    if name == "CPhi":
        return _block_conditional("CPhi", 2, [np.eye(4, dtype=np.complex128), _PHI_FIXED])
    if name == "CHJ":
        return _block_conditional("CHJ", 3, [eye2, _H2, _J2])
    if name == "CX":
        return _block_conditional("CX", 2, [eye2, _X2])
    if name == "CH":
        return _block_conditional("CH", 2, [eye2, _H2])
    raise CatalogError(f"unknown conditional gate {name!r}")


# The CHJ matrix written out, kept for entrywise regression checks.
CHJ_LITERAL = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, _SQRT2, _SQRT2, 0, 0],
        [0, 0, _SQRT2, -_SQRT2, 0, 0],
        [0, 0, 0, 0, 1j * _SQRT2, -_SQRT2],
        [0, 0, 0, 0, _SQRT2, -1j * _SQRT2],
    ],
    dtype=np.complex128,
)


# --- Conversion gates -----------------------------------------------------------

def _split_gate(
    name: str, source_dim: int, basis_count: int, value_dim: int
) -> GateCatalogEntry:
    """Unpack a (value, basis) source index onto two ancilla digits.

    Acts on slots (source, basis ancilla, value ancilla): the source digit is
    preserved and its basis/value components are added onto the ancillas
    modulo their dimensions, which makes the whole map a permutation.  On the
    contract inputs (both ancillas |0>) this writes the split directly.
    """
    dims = (source_dim, basis_count, value_dim)
    dim = source_dim * basis_count * value_dim
    mapping = {}
    for k in range(source_dim):
        value, basis = divmod(k, basis_count)
        for b in range(basis_count):
            for v in range(value_dim):
                src = (k * basis_count + b) * value_dim + v
                dst = (k * basis_count + (b + basis) % basis_count) * value_dim + (
                    v + value
                ) % value_dim
                mapping[src] = dst
    matrix = _permutation(dim, mapping)
    contract_rows = tuple(
        (
            (k * basis_count) * value_dim,
            basis_state(dim, mapping[(k * basis_count) * value_dim]),
        )
        for k in range(source_dim)
    )
    entry = _entry(name, dims, matrix, contract_rows)
    return entry


@dataclass(frozen=True)
class ConversionGate:
    """Composite unitary mapping an eavesdropper-dimension qudit to the
    physical low-dimensional state it enumerates.

    ``steps`` are (gate, target slots) pairs applied in order over a register
    of shape ``slots``; after them the ``output_slot`` holds ``eve_states[k]``
    whenever the source slot started in |k> with all ancillas in |0>.
    """

    protocol: str
    slots: tuple[int, ...]
    steps: tuple[tuple[GateCatalogEntry, tuple[int, ...]], ...]
    output_slot: int
    eve_states: tuple[np.ndarray, ...]
    decode_gates: tuple[np.ndarray, ...]

    @property
    def source_dim(self) -> int:
        return self.slots[0]

    def input_register(self, source: int | np.ndarray) -> Register:
        if isinstance(source, (int, np.integer)):
            source = basis_state(self.source_dim, int(source))
        parts = [np.asarray(source, dtype=np.complex128)]
        parts += [basis_state(d, 0) for d in self.slots[1:]]
        return product_register(parts)

    def apply(self, reg: Register) -> Register:
        if reg.slots != self.slots:
            raise ContractError(f"register slots {reg.slots} != {self.slots}")
        for gate, targets in self.steps:
            reg = apply_to_slot(gate.matrix, reg, targets)
        return reg

    def matrix(self) -> np.ndarray:
        """Materialize the composite as one full-register matrix."""
        full = np.eye(math.prod(self.slots), dtype=np.complex128)
        for gate, targets in self.steps:
            full = embed(gate.matrix, self.slots, targets) @ full
        return full


@lru_cache(maxsize=None)
def conversion_gate(protocol: str) -> ConversionGate:
    """Conversion circuit for 'bb84', 'hdbb84' or 'ssp'."""
    eye4 = np.eye(4, dtype=np.complex128)
    eye2 = np.eye(2, dtype=np.complex128)
    if protocol == "bb84":
        # Split onto (basis, value) qubits, then prepare a fresh target qubit.
        steps = (
            (_split_gate("QidConv1", 4, 2, 2), (0, 1, 2)),
            (conditional_gate("CX"), (2, 3)),
            (conditional_gate("CH"), (1, 3)),
        )
        eve_states = (
            basis_state(2, 0),
            KET_PLUS.copy(),
            basis_state(2, 1),
            KET_MINUS.copy(),
        )
        return ConversionGate(
            "bb84", (4, 2, 2, 2), steps, 3, eve_states, (eye2, _H2.copy())
        )
    if protocol == "hdbb84":
        steps = (
            (_split_gate("QidConv2", 8, 2, 4), (0, 1, 2)),
            (conditional_gate("CPhi"), (1, 2)),
        )
        eve_states = tuple(
            eye4[:, k // 2].copy() if k % 2 == 0 else _PHI_FIXED[:, k // 2].copy()
            for k in range(8)
        )
        return ConversionGate(
            "hdbb84", (8, 2, 4), steps, 2, eve_states, (eye4, _PHI_FIXED.copy())
        )
    if protocol == "ssp":
        steps = (
            (_split_gate("QidConv3", 6, 3, 2), (0, 1, 2)),
            (conditional_gate("CHJ"), (1, 2)),
        )
        eve_states = (
            basis_state(2, 0),
            KET_PLUS.copy(),
            KET_CIRC_PLUS.copy(),
            basis_state(2, 1),
            KET_MINUS.copy(),
            KET_CIRC_MINUS.copy(),
        )
        return ConversionGate(
            "ssp", (6, 3, 2), steps, 2, eve_states, (eye2, _H2.copy(), _J2.copy())
        )
    raise CatalogError(f"unknown protocol {protocol!r}")


# --- Circular-basis candidates ---------------------------------------------------

@dataclass(frozen=True)
class BasisCandidate:
    """A proposed y-axis encoding: the two circular states and the gate that
    was used to prepare them in the original experiments."""

    name: str
    states: tuple[np.ndarray, np.ndarray]
    gate: np.ndarray


@lru_cache(maxsize=None)
def basis_candidate(name: str) -> BasisCandidate:
    """Candidates 'jgate', 'bennett' and 'bruss' for the circular basis.

    jgate and bennett gates carry the candidate states as columns.  The bruss
    gate is transcribed with its states as rows; only this form exhibits the
    deterministic H-probe outcome the candidate is rejected for.
    """
    if name == "jgate":
        states = (KET_CIRC_PLUS.copy(), KET_CIRC_MINUS.copy())
        gate = _J2
    elif name == "bennett":
        states = (
            _SQRT2 * np.array([1, 1j], dtype=np.complex128),
            _SQRT2 * np.array([1j, 1], dtype=np.complex128),
        )
        gate = np.stack(states, axis=1)
    elif name == "bruss":
        states = (
            _SQRT2 * np.array([1, 1j], dtype=np.complex128),
            _SQRT2 * np.array([1, -1j], dtype=np.complex128),
        )
        gate = np.stack(states, axis=0)
    else:
        raise CatalogError(f"unknown basis candidate {name!r}")
    for s in states:
        if not abs(np.linalg.norm(s) - 1.0) <= ATOL:
            raise ValidationError(f"{name}: candidate state not normalized")
    gate = np.array(gate, dtype=np.complex128)
    gate.setflags(write=False)
    return BasisCandidate(name, states, gate)


@dataclass(frozen=True)
class CandidateReport:
    name: str
    zero_fraction: dict
    randomness_pass: dict
    double_application_pass: bool


def validate_basis_candidate(
    candidate: BasisCandidate, samples: int, rng: np.random.Generator
) -> CandidateReport:
    """Probe a circular-basis candidate for the two security criteria.

    Randomness: measuring X.g|0> and H.g|0> must give a zero-fraction within
    4 sigma of 1/2.  Double application: g.g must restore both computational
    basis states up to a global phase.
    """
    if samples < 1000:
        raise ConfigError(f"need at least 1000 samples, got {samples}")
    encoded = candidate.gate @ basis_state(2, 0)
    zero_fraction = {}
    randomness_pass = {}
    sigma = math.sqrt(0.25 / samples)
    for probe_name in ("X", "H"):
        probed = standard_gate(probe_name).matrix @ encoded
        p_zero = float(abs(probed[0]) ** 2)
        frac = float(np.mean(rng.random(samples) < p_zero))
        zero_fraction[probe_name] = frac
        randomness_pass[probe_name] = abs(frac - 0.5) <= 4.0 * sigma
    squared = candidate.gate @ candidate.gate
    double_ok = all(
        equal_up_to_global_phase(squared @ basis_state(2, b), basis_state(2, b))
        for b in (0, 1)
    )
    return CandidateReport(candidate.name, zero_fraction, randomness_pass, double_ok)


# --- Catalog, fingerprint and property suite -------------------------------------

@lru_cache(maxsize=None)
def catalog() -> tuple[GateCatalogEntry, ...]:
    """Every named unitary, in a fixed order."""
    entries = [
        standard_gate("X"),
        standard_gate("H"),
        standard_gate("J"),
        qid_gate_bb84("QidX1"),
        qid_gate_bb84("QidH1"),
        hdbb84_phi_gate("fixed"),
        hdbb84_phi_gate("original"),
        qid_gate_hdbb84("QidAlpha"),
        qid_gate_hdbb84("QidBeta"),
        qid_gate_hdbb84("QidGamma"),
        qid_gate_hdbb84("QidDelta"),
        qid_gate_hdbb84("QidPhi"),
        qid_gate_ssp("QidX2"),
        qid_gate_ssp("QidH2"),
        qid_gate_ssp("QidJ"),
        conditional_gate("CX"),
        conditional_gate("CH"),
        conditional_gate("CPhi"),
        conditional_gate("CHJ"),
    ]
    for protocol in ("bb84", "hdbb84", "ssp"):
        entries.append(conversion_gate(protocol).steps[0][0])
    return tuple(entries)


@lru_cache(maxsize=None)
def catalog_fingerprint() -> str:
    """SHA-256 over every catalog matrix, stable across runs; each matrix
    enters as its row-major (re, im) float64 pairs."""
    digest = hashlib.sha256()
    for entry in catalog():
        digest.update(entry.name.encode())
        digest.update(struct.pack(f"{len(entry.dims)}i", *entry.dims))
        digest.update(np.ascontiguousarray(entry.matrix, dtype=np.complex128).tobytes())
    return digest.hexdigest()


def catalog_dump() -> list:
    """Machine-readable catalog: name, dims and (re, im) matrix entries."""
    dump = []
    for entry in catalog():
        rows = [
            [[float(z.real), float(z.imag)] for z in row] for row in entry.matrix
        ]
        dump.append({"name": entry.name, "dims": list(entry.dims), "matrix": rows})
    return dump


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results: list, name: str, passed: bool, detail: str = "") -> None:
    results.append(CheckResult(name, bool(passed), detail))


def _column_overlaps_ok(left: np.ndarray, right: np.ndarray, magnitude: float) -> bool:
    overlaps = np.abs(left.conj().T @ right)
    return bool(np.max(np.abs(overlaps - magnitude)) <= 1e-9)


def validate_catalog(rng: np.random.Generator, samples: int = 10_000) -> list:
    """Run the full gate property suite and return one result per check."""
    results: list[CheckResult] = []
    for entry in catalog():
        _check(results, f"unitary[{entry.name}]", is_unitary(entry.matrix))
        action_ok = all(
            equal_up_to_global_phase(entry.matrix[:, idx], expect)
            for idx, expect in entry.action
        )
        _check(results, f"action[{entry.name}]", action_ok)

    eye = {d: np.eye(d) for d in (2, 4, 8)}
    involutions = [
        standard_gate("H"),
        qid_gate_bb84("QidH1"),
        hdbb84_phi_gate("fixed"),
        qid_gate_hdbb84("QidBeta"),
        qid_gate_hdbb84("QidGamma"),
        qid_gate_hdbb84("QidDelta"),
        qid_gate_hdbb84("QidPhi"),
    ]
    for entry in involutions:
        squared = entry.matrix @ entry.matrix
        _check(
            results,
            f"involution[{entry.name}]",
            np.max(np.abs(squared - eye[entry.dim])) <= 1e-9,
        )

    # Negative fixture: the uncorrected conjugate basis must 3-cycle the
    # computational states when applied twice (beta -> delta -> gamma -> beta).
    original = hdbb84_phi_gate("original").matrix
    squared = original @ original
    cycle = _permutation(4, {0: 0, 1: 3, 2: 1, 3: 2})
    _check(
        results,
        "phi-original-double-cycle",
        np.max(np.abs(squared - cycle)) <= 1e-9,
        "PhiOriginal^2 permutes beta->delta, gamma->beta, delta->gamma",
    )

    h2 = standard_gate("H").matrix
    _check(
        results,
        "mub[bb84]",
        _column_overlaps_ok(np.eye(2, dtype=np.complex128), h2, _SQRT2),
    )
    _check(
        results,
        "mub[hdbb84]",
        _column_overlaps_ok(np.eye(4, dtype=np.complex128), _PHI_FIXED, 0.5),
    )
    ssp_bases = [np.eye(2, dtype=np.complex128), h2, standard_gate("J").matrix]
    ssp_ok = all(
        _column_overlaps_ok(ssp_bases[i], ssp_bases[j], _SQRT2)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    _check(results, "mub[ssp]", ssp_ok)

    qidx2 = qid_gate_ssp("QidX2").matrix
    qidj = qid_gate_ssp("QidJ").matrix
    _check(
        results,
        "qidj-is-reversed-negative-qidx2",
        np.array_equal(qidj, -qidx2[:, ::-1]) and np.array_equal(qidx2, -qidj[:, ::-1]),
    )
    _check(
        results,
        "chj-matrix-literal",
        np.max(np.abs(conditional_gate("CHJ").matrix - CHJ_LITERAL)) == 0.0,
    )

    for protocol in ("bb84", "hdbb84", "ssp"):
        conv = conversion_gate(protocol)
        _check(results, f"conversion-unitary[{protocol}]", is_unitary(conv.matrix()))
        sound = True
        decodable = True
        for k in range(conv.source_dim):
            out = conv.apply(conv.input_register(k))
            slot_state = _slot_state(out, conv.output_slot)
            if slot_state is None or not equal_up_to_global_phase(
                slot_state, conv.eve_states[k]
            ):
                sound = False
                continue
            value, basis = divmod(k, len(conv.decode_gates))
            decoded = conv.decode_gates[basis] @ slot_state
            if abs(abs(decoded[value]) ** 2 - 1.0) > 1e-9:
                decodable = False
        _check(results, f"conversion-states[{protocol}]", sound)
        _check(results, f"conversion-decode[{protocol}]", decodable)

    for name in ("jgate", "bennett", "bruss"):
        report = validate_basis_candidate(basis_candidate(name), samples, rng)
        if name == "jgate":
            ok = (
                report.randomness_pass["X"]
                and report.randomness_pass["H"]
                and report.double_application_pass
            )
            detail = "passes both criteria"
        elif name == "bennett":
            squared = basis_candidate(name).gate @ basis_candidate(name).gate
            flips = equal_up_to_global_phase(squared @ basis_state(2, 0), basis_state(2, 1))
            ok = (
                report.randomness_pass["X"]
                and report.randomness_pass["H"]
                and not report.double_application_pass
                and flips
            )
            detail = "random under X/H but double application flips the bit"
        else:
            ok = report.zero_fraction["H"] == 1.0 and not report.randomness_pass["H"]
            detail = "H probe is deterministic (zero-fraction 1.0)"
        _check(results, f"candidate[{name}]", ok, detail)

    return results


def _slot_state(reg: Register, slot: int):
    """Extract a slot's pure state from a product-form register, else None."""
    psi = np.moveaxis(reg.state.reshape(reg.slots), slot, 0)
    flat = psi.reshape(psi.shape[0], -1)
    # The remaining slots are in a definite basis state for contract inputs,
    # so exactly one column of the flattened view is populated.
    norms = np.linalg.norm(flat, axis=0)
    populated = np.flatnonzero(norms > ATOL)
    if len(populated) != 1:
        return None
    column = flat[:, populated[0]]
    return column / np.linalg.norm(column)

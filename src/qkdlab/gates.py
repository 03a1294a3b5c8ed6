"""Protocol bases, the gate catalog and the conversion circuits.

Each protocol is held once, as the ordered tuple of its basis matrices in
``PROTOCOL_BASES``: (I, H) for BB84, (I, Phi) for HD-BB84 and (I, H, J) for
SSP, where column v of ``bases[a]`` is the state encoding value v in basis a.
Everything else about a protocol is derived from that tuple: its dimensions,
encode and decode (``protocols``) and its conversion circuit
(:func:`conversion_gate`).

The catalog holds every named unitary, each wrapped in a
:class:`GateCatalogEntry` that carries its intended action table.
:func:`catalog` is the one list that builds them, in the order the catalog
fingerprint hashes them, and :func:`gate` looks an entry up by name.  Entries
are validated on construction: the matrix must be unitary and must reproduce
every action row up to a global phase.  The gates transcribed from the paper
(the Qid gates, the HD-BB84 preparation sequences and the conditional gates)
stay in the catalog as fixtures; the tests check them against the derived
forms.

Index conventions
-----------------
The eavesdropper-side qudit of a protocol with k bases in particle dimension
d_ab has d_e = d_ab * k basis states, which enumerate (value, basis) pairs as
``index = value * k + basis``:

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


def _readonly(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    matrix.setflags(write=False)
    return matrix


def _entry(name, dims, matrix, action) -> GateCatalogEntry:
    matrix = _readonly(matrix)
    rows = tuple((int(i), np.asarray(v, dtype=np.complex128)) for i, v in action)
    return GateCatalogEntry(name, tuple(dims), matrix, rows)


def _permutation(dim: int, mapping: dict[int, int | tuple[int, float]]) -> np.ndarray:
    """Signed permutation matrix: column i carries the sign onto row j."""
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in mapping.items():
        row, sign = dst if isinstance(dst, tuple) else (dst, 1.0)
        matrix[row, src] = sign
    return matrix


def _perm_entry(name, dim, mapping) -> GateCatalogEntry:
    """Signed-permutation gate whose matrix and action both follow ``mapping``."""
    matrix = _permutation(dim, mapping)
    return _entry(name, (dim,), matrix, enumerate(matrix.T))


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


# --- 2-dimensional building blocks ------------------------------------------

_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H2 = _SQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
# J prepares the circular (y-axis) basis: J|0> = (i,1)/sqrt2, J|1> = (-1,-i)/sqrt2.
_J2 = _SQRT2 * np.array([[1j, -1], [1, -1j]], dtype=np.complex128)

KET_PLUS = _SQRT2 * np.array([1, 1], dtype=np.complex128)
KET_MINUS = _SQRT2 * np.array([1, -1], dtype=np.complex128)
KET_CIRC_PLUS = _SQRT2 * np.array([1j, 1], dtype=np.complex128)
KET_CIRC_MINUS = _SQRT2 * np.array([-1, -1j], dtype=np.complex128)


# --- Protocol bases -------------------------------------------------------------

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


def _bases(*matrices) -> tuple[np.ndarray, ...]:
    return tuple(_readonly(matrix) for matrix in matrices)


PROTOCOL_BASES = {
    "bb84": _bases(np.eye(2), _H2),
    "hdbb84": _bases(np.eye(4), _PHI_FIXED),
    "ssp": _bases(np.eye(2), _H2, _J2),
}


def protocol_bases(protocol: str) -> tuple[np.ndarray, ...]:
    """The ordered basis matrices of 'bb84', 'hdbb84' or 'ssp'."""
    try:
        return PROTOCOL_BASES[protocol]
    except KeyError:
        raise CatalogError(f"unknown protocol {protocol!r}") from None


# --- Matrices transcribed from the paper -------------------------------------------

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

    ``steps`` are (gate, target slots) pairs applied in order over the
    register (source, basis ancilla, value ancilla); after them the value
    ancilla, ``output_slot``, holds ``eve_states[k]`` whenever the source slot
    started in |k> with both ancillas in |0>.
    """

    protocol: str
    bases: tuple[np.ndarray, ...]
    steps: tuple[tuple[GateCatalogEntry, tuple[int, ...]], ...]
    output_slot = 2

    @property
    def slots(self) -> tuple[int, ...]:
        k, d = len(self.bases), self.bases[0].shape[0]
        return (d * k, k, d)

    @property
    def source_dim(self) -> int:
        return self.slots[0]

    @property
    def eve_states(self) -> tuple[np.ndarray, ...]:
        """State k is ``bases[basis][:, value]`` for ``k = value * bases + basis``."""
        k = len(self.bases)
        return tuple(
            self.bases[basis][:, value]
            for value, basis in (divmod(i, k) for i in range(self.source_dim))
        )

    @property
    def decode_gates(self) -> tuple[np.ndarray, ...]:
        return tuple(basis.conj().T for basis in self.bases)

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
    """Conversion circuit for 'bb84', 'hdbb84' or 'ssp': split the source
    index onto (basis, value) ancillas, then apply ``bases[basis]`` to the
    value ancilla, which turns |value> into the encoded state."""
    bases = protocol_bases(protocol)
    k, d = len(bases), bases[0].shape[0]
    # The split gates keep the paper's catalog names, numbered in protocol order.
    number = list(PROTOCOL_BASES).index(protocol) + 1
    steps = (
        (_split_gate(f"QidConv{number}", d * k, k, d), (0, 1, 2)),
        (_block_conditional(f"CBases[{protocol}]", k, bases), (1, 2)),
    )
    return ConversionGate(protocol, bases, steps)


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
        probed = gate(probe_name).matrix @ encoded
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
    """Every named unitary, built here once, in fingerprint order."""
    eye2, eye4 = np.eye(2), np.eye(4)
    # QidX2 and QidJ are checked against action maps written apart from
    # their matrices.
    qidx2_action = _permutation(6, {0: 3, 1: 1, 2: (5, -1.0), 3: 0, 4: (4, -1.0), 5: (2, -1.0)})
    qidj_action = _permutation(6, {0: 2, 1: 4, 2: (0, -1.0), 3: 5, 4: (1, -1.0), 5: (3, -1.0)})
    return (
        _entry("X", (2,), _X2, [(0, basis_state(2, 1)), (1, basis_state(2, 0))]),
        _entry("H", (2,), _H2, [(0, KET_PLUS), (1, KET_MINUS)]),
        _entry("J", (2,), _J2, [(0, KET_CIRC_PLUS), (1, KET_CIRC_MINUS)]),
        # Dim-4 analogues of X and H on the BB84 (value, basis) index.
        _perm_entry("QidX1", 4, {0: 2, 1: 1, 2: 0, 3: (3, -1.0)}),
        _perm_entry("QidH1", 4, {0: 1, 1: 0, 2: 3, 3: 2}),
        # HD-BB84 conjugate basis: the self-inverse production one and the
        # uncorrected negative fixture.
        _entry("Phi", (4,), _PHI_FIXED, enumerate(_PHI_FIXED.T)),
        _entry("PhiOriginal", (4,), _PHI_ORIGINAL, enumerate(_PHI_ORIGINAL.T)),
        # Dim-8 permutations of the HD-BB84 (value, basis) index.
        _perm_entry("QidAlpha", 8, {k: k for k in range(8)}),
        _perm_entry("QidBeta", 8, {0: 2, 1: 3, 2: 0, 3: 1, 4: 6, 5: 7, 6: 4, 7: 5}),
        _perm_entry("QidGamma", 8, {0: 4, 1: 5, 2: 6, 3: 7, 4: 0, 5: 1, 6: 2, 7: 3}),
        _perm_entry("QidDelta", 8, {0: 6, 1: 7, 2: 4, 3: 5, 4: 2, 5: 3, 6: 0, 7: 1}),
        _perm_entry("QidPhi", 8, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}),
        # Dim-6 analogues of X, H and J on the SSP (value, basis) index; QidH2
        # swaps the z and x states and holds the circular pair fixed.
        _entry("QidX2", (6,), _QIDX2, enumerate(qidx2_action.T)),
        _perm_entry("QidH2", 6, {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}),
        _entry("QidJ", (6,), _QIDJ, enumerate(qidj_action.T)),
        # The paper's controlled gates.  CHJ is controlled by a qutrit: |1>
        # applies H, |2> applies J.  The derived conversion circuits of BB84,
        # HD-BB84 and SSP reproduce CH, CPhi and CHJ.
        _block_conditional("CX", 2, [eye2, _X2]),
        _block_conditional("CH", 2, [eye2, _H2]),
        _block_conditional("CPhi", 2, [eye4, _PHI_FIXED]),
        _block_conditional("CHJ", 3, [eye2, _H2, _J2]),
        *(conversion_gate(protocol).steps[0][0] for protocol in PROTOCOL_BASES),
    )


def gate(name: str) -> GateCatalogEntry:
    """The catalog entry called ``name``."""
    for entry in catalog():
        if entry.name == name:
            return entry
    raise CatalogError(f"unknown gate {name!r}")


PSI_SYMBOLS = ("alpha", "beta", "gamma", "delta")


def hdbb84_psi_prep(symbol: str) -> tuple[GateCatalogEntry, ...]:
    """Gate sequence preparing |psi_symbol> from |0> on a dim-4 qudit.

    alpha: nothing, beta: QidH1, gamma: QidX1, delta: QidX1 then QidH1.
    """
    if symbol not in PSI_SYMBOLS:
        raise CatalogError(f"unknown psi symbol {symbol!r}")
    x1, h1 = gate("QidX1"), gate("QidH1")
    return {
        "alpha": (),
        "beta": (h1,),
        "gamma": (x1,),
        "delta": (x1, h1),
    }[symbol]


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
    involutions = ("H", "QidH1", "Phi", "QidBeta", "QidGamma", "QidDelta", "QidPhi")
    for entry in map(gate, involutions):
        squared = entry.matrix @ entry.matrix
        _check(
            results,
            f"involution[{entry.name}]",
            np.max(np.abs(squared - eye[entry.dim])) <= 1e-9,
        )

    # Negative fixture: the uncorrected conjugate basis must 3-cycle the
    # computational states when applied twice (beta -> delta -> gamma -> beta).
    original = gate("PhiOriginal").matrix
    squared = original @ original
    cycle = _permutation(4, {0: 0, 1: 3, 2: 1, 3: 2})
    _check(
        results,
        "phi-original-double-cycle",
        np.max(np.abs(squared - cycle)) <= 1e-9,
        "PhiOriginal^2 permutes beta->delta, gamma->beta, delta->gamma",
    )

    for protocol, bases in PROTOCOL_BASES.items():
        magnitude = 1.0 / math.sqrt(bases[0].shape[0])
        unbiased = all(
            _column_overlaps_ok(left, right, magnitude)
            for i, left in enumerate(bases)
            for right in bases[i + 1 :]
        )
        _check(results, f"mub[{protocol}]", unbiased)

    qidx2 = gate("QidX2").matrix
    qidj = gate("QidJ").matrix
    _check(
        results,
        "qidj-is-reversed-negative-qidx2",
        np.array_equal(qidj, -qidx2[:, ::-1]) and np.array_equal(qidx2, -qidj[:, ::-1]),
    )
    _check(
        results,
        "chj-matrix-literal",
        np.max(np.abs(gate("CHJ").matrix - CHJ_LITERAL)) == 0.0,
    )

    for protocol in PROTOCOL_BASES:
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

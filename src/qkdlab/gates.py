"""Protocol specs, the gate catalog and the conversion circuits.

Each protocol is held once, as a :class:`ProtocolSpec` in ``PROTOCOLS``: its
name and the ordered tuple of its basis matrices, (I, H) for BB84, (I, Phi)
for HD-BB84 and (I, H, J) for SSP, where column v of ``bases[a]`` is the
state encoding value v in basis a.  Everything else about a protocol is read
from the spec: its dimensions, encode and decode, the (value, basis) index,
whether its bases are mutually unbiased, and its conversion circuit
(:func:`conversion_circuit`).
Registering a protocol is one more ``PROTOCOLS`` entry; ``PAPER_PROTOCOLS``
names the three the paper studies, and only they enter the catalog and the
paper's grid.

The catalog holds every named unitary, each wrapped in a
:class:`GateCatalogEntry`: its name, its slot dimensions and its matrix.
:func:`catalog` is the one list that builds them, in the order the catalog
fingerprint hashes them, and :func:`gate` looks an entry up by name.
:func:`validate_catalog` is the one place a gate is checked: every entry for
unitarity, and the gates in ``GATE_ACTIONS`` against intended columns
written apart from their matrices.  It also gives the verdict on each
circular-basis candidate (jgate, bennett, bruss) from one table,
``_CANDIDATES``: a candidate passes when its probe readings equal its row.
The gates transcribed from the paper (the Qid gates and the conditional
gates) stay in the catalog as fixtures; the tests check them against the
derived forms.

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
from functools import cached_property, lru_cache, wraps

import numpy as np

from .core import (
    ATOL,
    ContractError,
    SimulationError,
    ValidationError,
    basis_state,
    equal_up_to_global_phase,
    is_unitary,
)


class CatalogError(SimulationError):
    """Requested gate is not in the catalog."""


_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateCatalogEntry:
    """A named matrix over the slot dimensions ``dims`` (one slot for a plain
    single-qudit gate); :func:`validate_catalog` checks that it is unitary."""

    name: str
    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = math.prod(self.dims)
        if self.matrix.shape != (dim, dim):
            raise ValidationError(f"{self.name}: matrix shape != {dim}x{dim}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _readonly(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    matrix.setflags(write=False)
    return matrix


def _entry(name, dims, matrix) -> GateCatalogEntry:
    return GateCatalogEntry(name, tuple(dims), _readonly(matrix))


def _permutation(dim: int, mapping: dict[int, int | tuple[int, float]]) -> np.ndarray:
    """Signed permutation matrix: column i carries the sign onto row j."""
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in mapping.items():
        row, sign = dst if isinstance(dst, tuple) else (dst, 1.0)
        matrix[row, src] = sign
    return matrix


def _perm_entry(name, dim, mapping) -> GateCatalogEntry:
    return _entry(name, (dim,), _permutation(dim, mapping))


def _block_diagonal(blocks) -> np.ndarray:
    """The controlled gate applying blocks[c] to the target when control = |c>."""
    n = blocks[0].shape[0]
    matrix = np.zeros((len(blocks) * n, len(blocks) * n), dtype=np.complex128)
    for c, block in enumerate(blocks):
        matrix[c * n : (c + 1) * n, c * n : (c + 1) * n] = block
    return matrix


# --- 2-dimensional building blocks ------------------------------------------

_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H2 = _SQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
# J prepares the circular (y-axis) basis: J|0> = (i,1)/sqrt2, J|1> = (-1,-i)/sqrt2.
_J2 = _SQRT2 * np.array([[1j, -1], [1, -1j]], dtype=np.complex128)

KET_PLUS = _SQRT2 * np.array([1, 1], dtype=np.complex128)
KET_MINUS = _SQRT2 * np.array([1, -1], dtype=np.complex128)
KET_CIRC_PLUS = _SQRT2 * np.array([1j, 1], dtype=np.complex128)
KET_CIRC_MINUS = _SQRT2 * np.array([-1, -1j], dtype=np.complex128)


# --- Protocol specs -------------------------------------------------------------

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


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """One protocol: its name and its ordered basis matrices, stored
    read-only.  Column v of ``bases[a]`` encodes value v in basis a, so every
    basis must be a unitary of one shape.  Specs compare and hash by
    identity, and the tables derived from one are cached on it
    (:func:`spec_cached`): never handed to a same-named spec, freed with it.

    The eavesdropper dimension is ``d_ab * basis_count`` and its basis states
    enumerate (value, basis) pairs as ``index = value * basis_count + basis``.
    """

    name: str
    bases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        # Copies, so that freezing them leaves the caller's arrays writable.
        bases = tuple(_readonly(np.array(basis, dtype=np.complex128)) for basis in self.bases)
        object.__setattr__(self, "bases", bases)
        if not bases:
            raise ContractError(f"{self.name}: a protocol needs at least one basis")
        for a, basis in enumerate(bases):
            if basis.shape != bases[0].shape:
                raise ContractError(
                    f"{self.name}: basis {a} has shape {basis.shape}, not {bases[0].shape}"
                )
            if not is_unitary(basis):
                raise ContractError(f"{self.name}: basis {a} is not a unitary matrix")
        if not 2 <= self.d_ab <= 256 or self.d_ab & (self.d_ab - 1):
            # Keys are scored in bits, bits_per_particle (one to eight) per value.
            raise ContractError(
                f"particle dimension must be a power of two in 2..256, got {self.d_ab}"
            )
        object.__setattr__(self, "_memo", {})  # spec_cached's tables, freed with the spec

    @cached_property
    def d_ab(self) -> int:
        return self.bases[0].shape[0]

    @cached_property
    def basis_count(self) -> int:
        return len(self.bases)

    @cached_property
    def bits_per_particle(self) -> int:
        return self.d_ab.bit_length() - 1

    @property
    def d_e(self) -> int:
        return self.d_ab * self.basis_count

    def state_index(self, value: int, basis: int) -> int:
        return value * self.basis_count + basis

    def value_basis(self, index):
        """(value, basis) of an index or an index array."""
        return divmod(index, self.basis_count)

    def encode(self, value: int, basis: int) -> np.ndarray:
        """The state carrying ``value`` in ``basis``."""
        return self.bases[basis][:, value]

    def decode(self, basis: int) -> np.ndarray:
        """The gate whose computational outcome reads a value in ``basis``."""
        return self.bases[basis].conj().T

    @cached_property
    def mutually_unbiased(self) -> bool:
        """Whether every overlap between states of two different bases has
        magnitude 1/sqrt(d_ab), to within ``ATOL``."""
        magnitude = 1.0 / math.sqrt(self.d_ab)
        return all(
            np.max(np.abs(np.abs(self.decode(i) @ right) - magnitude)) <= ATOL
            for i in range(self.basis_count)
            for right in self.bases[i + 1 :]
        )


def spec_cached(build):
    """Memoize the array ``build(spec, *args)`` on the spec itself, so that a
    dropped spec frees its tables, which a module-level cache would keep
    alive.  Every later call shares the array, so it is made read-only."""

    @wraps(build)
    def cached(spec: ProtocolSpec, *args):
        key = (build, *args)
        built = spec._memo.get(key)
        if built is None:
            built = spec._memo[key] = build(spec, *args)
            built.setflags(write=False)
        return built

    return cached


PROTOCOLS = {
    spec.name: spec
    for spec in (
        ProtocolSpec("bb84", (np.eye(2), _H2)),
        ProtocolSpec("hdbb84", (np.eye(4), _PHI_FIXED)),
        ProtocolSpec("ssp", (np.eye(2), _H2, _J2)),
    )
}

# The protocols the paper studies: the catalog's split gates and the
# reproduce-paper grid are these, whatever else is registered.
PAPER_PROTOCOLS = ("bb84", "hdbb84", "ssp")


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


# --- Conversion circuit -----------------------------------------------------------

@spec_cached
def _split_targets(spec: ProtocolSpec) -> np.ndarray:
    """The split as a read-only index map: register state |source, b, v>, over
    slots (source, basis ancilla, value ancilla), goes to state
    ``targets[(source * k + b) * d + v]``.  The source digit is preserved and
    its basis/value components are added onto the ancillas modulo their
    dimensions, which makes the map a permutation.  On the contract inputs
    (both ancillas |0>) this writes the split directly."""
    k, d = spec.basis_count, spec.d_ab
    source, b, v = np.indices((spec.d_e, k, d)).reshape(3, -1)
    value, basis = spec.value_basis(source)
    return (source * k + (b + basis) % k) * d + (v + value) % d


def conversion_circuit(spec: ProtocolSpec, state: np.ndarray) -> np.ndarray:
    """Conversion circuit of a spec, from its bases alone, applied to a
    register vector over (source, basis ancilla, value ancilla): split the
    source index onto the ancillas (:func:`_split_targets`), then apply
    ``bases[basis]`` to the value ancilla, which turns |value> into the
    encoded state.  No matrix over the whole register is built."""
    k, d = spec.basis_count, spec.d_ab
    split = np.zeros_like(state)
    split[_split_targets(spec)] = state
    return (np.stack(spec.bases) @ split.reshape(-1, k, d, 1)).reshape(-1)


def conversion_output(spec: ProtocolSpec, source: int) -> np.ndarray:
    """The value ancilla's (d_ab,) state after the circuit on |source, 0, 0>.

    The split sends that register basis state to one, |source, basis, value>,
    so the circuit leaves |source, basis> (x) ``bases[basis] |value>``: only
    the one (basis ancilla, value ancilla) block the split fills gets its
    basis, and the value ancilla stays unentangled.  For a sound split and
    source ``spec.state_index(value, basis)`` this is ``spec.encode(value,
    basis)``.  This is the one place that spells out the register layout."""
    k, d = spec.basis_count, spec.d_ab
    block, value = divmod(int(_split_targets(spec)[source * k * d]), d)
    return spec.bases[block % k] @ basis_state(d, value)


# --- Circular-basis candidates ---------------------------------------------------

@dataclass(frozen=True)
class BasisCandidate:
    """A proposed y-axis encoding: the two circular states and the gate that
    was used to prepare them in the original experiments."""

    name: str
    states: tuple[np.ndarray, np.ndarray]
    gate: np.ndarray


# Each candidate's two states, the axis its original gate stacks them on, the
# zero fractions of X.g|0>, H.g|0> and g.g|0> that give the paper's verdict,
# and the verdict's detail line.  jgate and bennett carry the states as
# columns (1).  The bruss gate is transcribed with its states as rows (0);
# only this form exhibits the deterministic H-probe outcome it is rejected for.
_CANDIDATES = {
    "jgate": ((KET_CIRC_PLUS, KET_CIRC_MINUS), 1, (0.5, 0.5, 1.0), "passes both criteria"),
    "bennett": ((_SQRT2 * np.array([1, 1j]), _SQRT2 * np.array([1j, 1])), 1, (0.5, 0.5, 0.0),
                "random under X/H but double application flips the bit"),
    "bruss": ((_SQRT2 * np.array([1, 1j]), _SQRT2 * np.array([1, -1j])), 0, (0.5, 1.0, 0.5),
              "H probe is deterministic (zero-fraction 1.0)"),
}


@lru_cache(maxsize=None)
def basis_candidate(name: str) -> BasisCandidate:
    """Candidate ``name`` for the circular basis, one of ``_CANDIDATES``."""
    if name not in _CANDIDATES:
        raise CatalogError(f"unknown basis candidate {name!r}")
    states, axis, *_ = _CANDIDATES[name]
    states = tuple(np.array(s, dtype=np.complex128) for s in states)
    return BasisCandidate(name, states, _readonly(np.stack(states, axis=axis)))


@dataclass(frozen=True)
class CandidateReport:
    name: str
    zero_fraction: dict
    randomness_pass: dict
    double_application_pass: bool
    squared_zero_fraction: float


def _zero_fraction(state: np.ndarray) -> float:
    return round(float(abs(state[0]) ** 2), 9)


def validate_basis_candidate(candidate: BasisCandidate) -> CandidateReport:
    """Probe a circular-basis candidate for the two security criteria.

    Randomness: measuring X.g|0> and H.g|0> must give outcome 0 with
    probability 1/2 to the nine decimals of ``ATOL``.  Double application: g.g
    must restore both computational basis states up to a global phase.  The
    report also reads the zero fraction of g.g|0>, to the same decimals.
    """
    encoded = candidate.gate @ basis_state(2, 0)
    zero_fraction = {p: _zero_fraction(gate(p).matrix @ encoded) for p in ("X", "H")}
    randomness_pass = {p: fraction == 0.5 for p, fraction in zero_fraction.items()}
    squared = candidate.gate @ candidate.gate
    double_ok = all(
        equal_up_to_global_phase(squared @ basis_state(2, b), basis_state(2, b))
        for b in (0, 1)
    )
    return CandidateReport(
        candidate.name, zero_fraction, randomness_pass, double_ok, _zero_fraction(squared[:, 0])
    )


# --- Catalog, fingerprint and property suite -------------------------------------

# Intended actions written apart from the matrices: column i is the gate's
# image of |i>, up to a global phase.
GATE_ACTIONS = {
    "X": np.stack([basis_state(2, 1), basis_state(2, 0)], axis=1),
    "H": np.stack([KET_PLUS, KET_MINUS], axis=1),
    "J": np.stack([KET_CIRC_PLUS, KET_CIRC_MINUS], axis=1),
    "QidX2": _permutation(6, {0: 3, 1: 1, 2: (5, -1.0), 3: 0, 4: (4, -1.0), 5: (2, -1.0)}),
    "QidJ": _permutation(6, {0: 2, 1: 4, 2: (0, -1.0), 3: 5, 4: (1, -1.0), 5: (3, -1.0)}),
}


@lru_cache(maxsize=None)
def catalog() -> tuple[GateCatalogEntry, ...]:
    """Every named unitary, built here once, in fingerprint order."""
    eye2, eye4 = np.eye(2), np.eye(4)
    return (
        _entry("X", (2,), _X2),
        _entry("H", (2,), _H2),
        _entry("J", (2,), _J2),
        # Dim-4 analogues of X and H on the BB84 (value, basis) index.
        _perm_entry("QidX1", 4, {0: 2, 1: 1, 2: 0, 3: (3, -1.0)}),
        _perm_entry("QidH1", 4, {0: 1, 1: 0, 2: 3, 3: 2}),
        # HD-BB84 conjugate basis: the self-inverse production one and the
        # uncorrected negative fixture.
        _entry("Phi", (4,), _PHI_FIXED),
        _entry("PhiOriginal", (4,), _PHI_ORIGINAL),
        # Dim-8 permutations of the HD-BB84 (value, basis) index.
        _perm_entry("QidAlpha", 8, {k: k for k in range(8)}),
        _perm_entry("QidBeta", 8, {0: 2, 1: 3, 2: 0, 3: 1, 4: 6, 5: 7, 6: 4, 7: 5}),
        _perm_entry("QidGamma", 8, {0: 4, 1: 5, 2: 6, 3: 7, 4: 0, 5: 1, 6: 2, 7: 3}),
        _perm_entry("QidDelta", 8, {0: 6, 1: 7, 2: 4, 3: 5, 4: 2, 5: 3, 6: 0, 7: 1}),
        _perm_entry("QidPhi", 8, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}),
        # Dim-6 analogues of X, H and J on the SSP (value, basis) index; QidH2
        # swaps the z and x states and holds the circular pair fixed.
        _entry("QidX2", (6,), _QIDX2),
        _perm_entry("QidH2", 6, {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}),
        _entry("QidJ", (6,), _QIDJ),
        # The paper's controlled gates.  CHJ is controlled by a qutrit: |1>
        # applies H, |2> applies J.  The conversion circuits of BB84, HD-BB84
        # and SSP are their splits followed by CH, CPhi and CHJ.
        _entry("CX", (2, 2), _block_diagonal([eye2, _X2])),
        _entry("CH", (2, 2), _block_diagonal([eye2, _H2])),
        _entry("CPhi", (2, 4), _block_diagonal([eye4, _PHI_FIXED])),
        _entry("CHJ", (3, 2), _block_diagonal([eye2, _H2, _J2])),
        # The paper's split gates, numbered in paper order.
        *(
            _entry(
                f"QidConv{n}",
                (spec.d_e, spec.basis_count, spec.d_ab),
                np.eye(spec.d_e * spec.basis_count * spec.d_ab)[:, _split_targets(spec)],
            )
            for n, spec in enumerate((PROTOCOLS[name] for name in PAPER_PROTOCOLS), 1)
        ),
    )


def gate(name: str) -> GateCatalogEntry:
    """The catalog entry called ``name``."""
    for entry in catalog():
        if entry.name == name:
            return entry
    raise CatalogError(f"unknown gate {name!r}")


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


def validate_catalog() -> list:
    """Run the full gate property suite and return one result per check."""
    results: list[CheckResult] = []
    for entry in catalog():
        _check(results, f"unitary[{entry.name}]", is_unitary(entry.matrix))
        if entry.name in GATE_ACTIONS:
            columns = GATE_ACTIONS[entry.name].T
            action_ok = all(map(equal_up_to_global_phase, entry.matrix.T, columns))
            _check(results, f"action[{entry.name}]", action_ok)

    involutions = ("H", "QidH1", "Phi", "QidBeta", "QidGamma", "QidDelta", "QidPhi")
    for entry in map(gate, involutions):
        squared = entry.matrix @ entry.matrix
        _check(
            results,
            f"involution[{entry.name}]",
            np.max(np.abs(squared - np.eye(entry.dim))) <= ATOL,
        )

    # Negative fixture: the uncorrected conjugate basis must 3-cycle the
    # computational states when applied twice (beta -> delta -> gamma -> beta).
    original = gate("PhiOriginal").matrix
    squared = original @ original
    cycle = _permutation(4, {0: 0, 1: 3, 2: 1, 3: 2})
    _check(
        results,
        "phi-original-double-cycle",
        np.max(np.abs(squared - cycle)) <= ATOL,
        "PhiOriginal^2 permutes beta->delta, gamma->beta, delta->gamma",
    )

    for protocol, spec in PROTOCOLS.items():
        _check(results, f"mub[{protocol}]", spec.mutually_unbiased)

    qidx2 = gate("QidX2").matrix
    qidj = gate("QidJ").matrix
    _check(
        results,
        "qidj-is-reversed-negative-qidx2",
        np.array_equal(qidj, -qidx2[:, ::-1]) and np.array_equal(qidx2, -qidj[:, ::-1]),
    )
    # Finding: QidH2 fixes the circular pair that H swaps, a reflection of
    # the Bloch sphere, so it is the (value, basis) image of no unitary.
    ssp = PROTOCOLS["ssp"]
    plus_i, minus_i = (ssp.encode(*ssp.value_basis(k)) for k in (2, 5))
    h_swaps = equal_up_to_global_phase(_H2 @ plus_i, minus_i)
    fixed = np.array_equal(gate("QidH2").matrix[:, 2], basis_state(6, 2))
    detail = "H sends ssp's |i> (index 2) to |-i> (index 5) up to phase, QidH2 fixes index 2"
    _check(results, "qidh2-fixes-circular-pair", h_swaps and fixed, detail)
    _check(
        results,
        "chj-matrix-literal",
        np.max(np.abs(gate("CHJ").matrix - CHJ_LITERAL)) == 0.0,
    )

    for protocol, spec in PROTOCOLS.items():
        # A permutation followed by a block diagonal of unitaries is unitary.
        targets = _split_targets(spec)
        permutation = np.array_equal(np.sort(targets), np.arange(len(targets)))
        unitary = permutation and all(map(is_unitary, spec.bases))
        _check(results, f"conversion-unitary[{protocol}]", unitary)
        sound = decodable = True
        for k in range(spec.d_e):
            state = conversion_output(spec, k)
            value, basis = spec.value_basis(k)
            sound &= equal_up_to_global_phase(state, spec.encode(value, basis))
            decoded = spec.decode(basis) @ state
            decodable &= abs(abs(decoded[value]) ** 2 - 1.0) <= ATOL
        _check(results, f"conversion-states[{protocol}]", sound)
        _check(results, f"conversion-decode[{protocol}]", decodable)

    for name, (*_, readings, detail) in _CANDIDATES.items():
        report = validate_basis_candidate(basis_candidate(name))
        measured = (*report.zero_fraction.values(), report.squared_zero_fraction)
        _check(results, f"candidate[{name}]", measured == readings, detail)

    return results

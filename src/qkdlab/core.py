"""Dense state-vector backend for small qudit registers.

States are 1-D ``complex128`` numpy arrays, gates are square ``complex128``
matrices.  A :class:`Register` bundles several qudits of possibly different
dimensions; its joint index is row-major with slot 0 most significant, so for
slots ``[d0, d1]`` the basis state ``|a, b>`` sits at index ``a * d1 + b``.

All randomness flows through :class:`RandomSource`, which hands out disjoint,
reproducible generator streams, one per role (a named consumer of random draws,
such as Alice's values or Bob's bases).  Repeating a run with the same seed
therefore reproduces every draw, and the streams of different roles never
interact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-9


class SimulationError(Exception):
    """Base class for all qkdlab errors."""


class ContractError(SimulationError):
    """An operation was called with operands that violate its contract."""


class ValidationError(SimulationError):
    """A matrix or state failed a structural check (unitarity, norm)."""


class ConfigError(SimulationError):
    """An invalid run configuration was supplied."""


def basis_state(dim: int, k: int) -> np.ndarray:
    """Return the computational basis state |k> of a dim-level qudit."""
    if dim < 1:
        raise ContractError(f"dimension must be positive, got {dim}")
    if not 0 <= k < dim:
        raise IndexError(f"basis index {k} out of range for dimension {dim}")
    state = np.zeros(dim, dtype=np.complex128)
    state[k] = 1.0
    return state


def is_unitary(matrix: np.ndarray, tol: float = ATOL) -> bool:
    """Check U†U = I elementwise within tol."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    gram = matrix.conj().T @ matrix
    return bool(np.max(np.abs(gram - np.eye(matrix.shape[0]))) <= tol)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """True iff a == c*b elementwise within tol for some unit-modulus c."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch {a.shape} vs {b.shape}")
    j = int(np.argmax(np.abs(b)))
    if abs(b[j]) <= tol:
        return bool(np.max(np.abs(a - b)) <= tol)
    phase = a[j] / b[j]
    mod = abs(phase)
    if mod <= tol:
        return False
    phase /= mod
    return bool(np.max(np.abs(a - phase * b)) <= tol)


@dataclass(frozen=True)
class Register:
    """A composite system of qudits with per-slot dimensions.

    The joint state dimension is the product of the slot dimensions.
    """

    slots: tuple[int, ...]
    state: np.ndarray

    def __post_init__(self) -> None:
        expected = math.prod(self.slots)
        if self.state.shape != (expected,):
            raise ContractError(
                f"state dimension {self.state.shape} != product of slots {expected}"
            )


def product_register(slot_states: list[np.ndarray] | tuple[np.ndarray, ...]) -> Register:
    """Build a register as the tensor product of per-slot states."""
    state = np.asarray(slot_states[0], dtype=np.complex128)
    for part in slot_states[1:]:
        state = np.kron(state, np.asarray(part, dtype=np.complex128))
    return Register(tuple(len(s) for s in slot_states), state)


def _as_targets(slots: int | tuple[int, ...] | list[int]) -> tuple[int, ...]:
    if isinstance(slots, int):
        return (slots,)
    return tuple(slots)


def apply_to_slot(
    gate: np.ndarray, reg: Register, slots: int | tuple[int, ...] | list[int]
) -> Register:
    """Apply a gate to one or more slots of a register.

    The gate acts on the targeted slots in the given order (row-major joint
    index over those slots) and as the identity elsewhere.  The gate dimension
    must equal the product of the targeted slot dimensions.
    """
    targets = _as_targets(slots)
    gate = np.asarray(gate, dtype=np.complex128)
    if len(set(targets)) != len(targets):
        raise ContractError(f"duplicate target slots {targets}")
    if any(not 0 <= t < len(reg.slots) for t in targets):
        raise ContractError(f"target slots {targets} out of range for {reg.slots}")
    block = math.prod(reg.slots[t] for t in targets)
    if gate.shape != (block, block):
        raise ContractError(
            f"gate shape {gate.shape} does not match targeted slot dims "
            f"{tuple(reg.slots[t] for t in targets)}"
        )
    psi = reg.state.reshape(reg.slots)
    psi = np.moveaxis(psi, targets, range(len(targets)))
    moved_shape = psi.shape
    psi = (gate @ psi.reshape(block, -1)).reshape(moved_shape)
    psi = np.moveaxis(psi, range(len(targets)), targets)
    return Register(reg.slots, np.ascontiguousarray(psi.reshape(-1)))


@dataclass(frozen=True)
class RandomSource:
    """Role-addressed randomness: one independent stream per (seed, role).

    The k-th draw of a stream is a pure function of (seed, role, k), so
    separate runs that share a seed consume identical randomness for a role
    regardless of what other roles draw.
    """

    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    def stream(self, role: str) -> np.random.Generator:
        code = int.from_bytes(role.encode("utf-8"), "big")
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(code,))
        return np.random.default_rng(key)

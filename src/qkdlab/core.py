"""Dense state vectors, the error classes and role-addressed randomness.

States are 1-D ``complex128`` numpy arrays and gates are square
``complex128`` matrices, applied with ``@``; a composite system is the
``np.kron`` of its parts, row-major with the first part most significant.
This module builds basis states and checks unitarity and equality up to a
global phase, both within ``ATOL``, the one tolerance of every gate check.

All randomness flows through :class:`RandomSource`, which hands out disjoint,
reproducible generator streams, one per role (a named consumer of random draws,
such as Alice's values or Bob's bases).  Repeating a run with the same seed
therefore reproduces every draw, and the streams of different roles never
interact.
"""

from __future__ import annotations

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


def is_unitary(matrix: np.ndarray) -> bool:
    """Check U†U = I elementwise within ``ATOL``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    gram = matrix.conj().T @ matrix
    return bool(np.max(np.abs(gram - np.eye(matrix.shape[0]))) <= ATOL)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a == c*b elementwise within ``ATOL`` for some unit-modulus c."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch {a.shape} vs {b.shape}")
    j = int(np.argmax(np.abs(b)))
    if abs(b[j]) <= ATOL:
        return bool(np.max(np.abs(a - b)) <= ATOL)
    phase = a[j] / b[j]
    mod = abs(phase)
    if mod <= ATOL:
        return False
    phase /= mod
    return bool(np.max(np.abs(a - phase * b)) <= ATOL)


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

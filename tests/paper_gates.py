"""The paper's hand-written HD-BB84 state preparations, the lift of a
particle gate onto the (value, basis) index, a gate applied to chosen slots
of a register and the dense matrix of a conversion circuit, kept as test
fixtures: the engine encodes every state from the specs in
``gates.PROTOCOLS`` and never calls these."""

import numpy as np

from qkdlab.core import ATOL, ContractError
from qkdlab.gates import CatalogError, conversion_circuit, gate

PSI_SYMBOLS = ("alpha", "beta", "gamma", "delta")


def hdbb84_psi_prep(symbol: str):
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


def lift(spec, particle_gate) -> np.ndarray:
    """The d_e image of a particle gate: entry c at [j, i] when
    ``particle_gate @ encode(i) = c * encode(j)``, with i and j indices of
    ``spec``'s (value, basis) enumeration.  Raises ``ContractError`` when the
    gate sends one of the spec's states to none of them."""
    states = [spec.encode(*spec.value_basis(k)) for k in range(spec.d_e)]
    lifted = np.zeros((spec.d_e, spec.d_e), dtype=np.complex128)
    for i, state in enumerate(states):
        image = particle_gate @ state
        for j, target in enumerate(states):
            c = np.vdot(target, image)
            if np.linalg.norm(image - c * target) <= ATOL:
                lifted[j, i] = c
                break
        else:
            raise ContractError(f"{spec.name}: state {i} maps onto no state of the spec")
    return lifted


def on_slots(matrix, state, slots, targets) -> np.ndarray:
    """``matrix`` applied to the ``targets`` (in its own row-major order) of
    a register with slot dimensions ``slots``, as the identity elsewhere:
    bring the targets to the front in that order, act with matrix (x)
    identity, and put the slots back."""
    order = list(targets) + [s for s in range(len(slots)) if s not in targets]
    front = np.asarray(state).reshape(slots).transpose(order).reshape(-1)
    front = np.kron(matrix, np.eye(len(front) // len(matrix))) @ front
    return front.reshape([slots[s] for s in order]).transpose(np.argsort(order)).reshape(-1)


def conversion_matrix(spec) -> np.ndarray:
    """The dense matrix of ``conversion_circuit(spec, .)`` over the register
    (source, basis ancilla, value ancilla): column i is the circuit's output
    for register basis state |i>.  It has (k^2 d_ab^2)^2 entries, so it is
    built only here, for small specs."""
    register = np.eye(spec.d_e * spec.basis_count * spec.d_ab, dtype=np.complex128)
    return np.stack([conversion_circuit(spec, state) for state in register], axis=1)

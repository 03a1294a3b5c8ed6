"""Independent single-particle oracle for intercept-resend statistics.

Exact Born-rule enumeration over every (value, Alice basis, Eve basis)
combination, built from literal basis matrices so it shares no code path with
the simulator it checks.
"""

import numpy as np

SQRT2 = 2**-0.5

_H = SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex)
_J = SQRT2 * np.array([[1j, -1], [1, -1j]], dtype=complex)
_PHI = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
)
BASES = {
    "bb84": (np.eye(2, dtype=complex), _H),
    "hdbb84": (np.eye(4, dtype=complex), _PHI),
    "ssp": (np.eye(2, dtype=complex), _H, _J),
}


def _basis_vec(dim, k):
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def _bit_disagreement(a, b, bits):
    return bin(a ^ b).count("1") / bits


def intercept_resend_oracle(name, bits_per_particle):
    """Expected (qber, alice knowledge, bob knowledge) on kept positions."""
    bases = BASES[name]
    dim = bases[0].shape[0]
    qber = alice_know = bob_know = 0.0
    combos = 0
    for value in range(dim):
        for alice_basis in range(len(bases)):
            encoded = bases[alice_basis] @ _basis_vec(dim, value)
            for eve_basis in range(len(bases)):
                eve_probs = np.abs(bases[eve_basis].conj().T @ encoded) ** 2
                for eve_value, p_eve in enumerate(eve_probs):
                    if p_eve < 1e-15:
                        continue
                    resent = bases[eve_basis] @ _basis_vec(dim, eve_value)
                    bob_probs = np.abs(bases[alice_basis].conj().T @ resent) ** 2
                    alice_know += p_eve * (
                        1 - _bit_disagreement(eve_value, value, bits_per_particle)
                    )
                    for bob_value, p_bob in enumerate(bob_probs):
                        if p_bob < 1e-15:
                            continue
                        weight = p_eve * p_bob
                        qber += weight * _bit_disagreement(
                            bob_value, value, bits_per_particle
                        )
                        bob_know += weight * (
                            1
                            - _bit_disagreement(
                                eve_value, bob_value, bits_per_particle
                            )
                        )
                combos += 1
    return qber / combos, alice_know / combos, bob_know / combos


def intercept_resend_symbol_error(name):
    """Probability that intercept-resend changes the value Bob reads on a
    kept particle (Bob measures in Alice's basis)."""
    bases = BASES[name]
    dim = bases[0].shape[0]
    error = 0.0
    combos = 0
    for value in range(dim):
        for alice_basis in range(len(bases)):
            encoded = bases[alice_basis] @ _basis_vec(dim, value)
            for eve_basis in range(len(bases)):
                eve_probs = np.abs(bases[eve_basis].conj().T @ encoded) ** 2
                for eve_value, p_eve in enumerate(eve_probs):
                    resent = bases[eve_basis] @ _basis_vec(dim, eve_value)
                    p_right = abs(bases[alice_basis][:, value].conj() @ resent) ** 2
                    error += p_eve * (1 - p_right)
                combos += 1
    return error / combos


# The per-particle sampler of the original state-vector engine, kept as the
# reference that the vectorised trial sampler must match draw for draw.
def _sample(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    total = float(probabilities.sum())
    # Renormalizing keeps deterministic outcomes exact despite float residue.
    cumulative = np.cumsum(probabilities / total)
    outcome = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return min(outcome, len(probabilities) - 1)

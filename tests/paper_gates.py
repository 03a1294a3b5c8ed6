"""The paper's hand-written HD-BB84 state preparations, kept as test
fixtures: the engine encodes every state from the specs in
``gates.PROTOCOLS`` and never calls these."""

from qkdlab.gates import CatalogError, gate

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

"""qkdlab: a qudit state-vector laboratory for QKD protocols.

Simulates BB84, a 4-dimensional BB84 variant, and the six-state protocol,
with standard intercept-resend and high-dimensional eavesdropping models,
and reports sifted-key statistics (QBER, eavesdropper knowledge, sift
fraction, cross-scenario key matches).
"""

__version__ = "0.1.0"

from .analysis import (
    STATISTICS,
    RunCounts,
    TrialResult,
    aggregate,
    detection_probability,
    knowledge,
    qber,
)
from .core import (
    ConfigError,
    ContractError,
    RandomSource,
    SimulationError,
    ValidationError,
    basis_state,
    equal_up_to_global_phase,
)
from .gates import (
    BasisCandidate,
    GateCatalogEntry,
    basis_candidate,
    catalog,
    catalog_fingerprint,
    conversion_circuit,
    gate,
    validate_basis_candidate,
    validate_catalog,
)
from .protocols import (
    BB84,
    HDBB84,
    PROTOCOLS,
    SSP,
    EveModel,
    ProtocolSpec,
    Scenario,
    run_experiment,
    run_trial,
    sift,
)

__all__ = [
    "BB84",
    "BasisCandidate",
    "ConfigError",
    "ContractError",
    "EveModel",
    "GateCatalogEntry",
    "HDBB84",
    "PROTOCOLS",
    "ProtocolSpec",
    "RandomSource",
    "RunCounts",
    "SSP",
    "STATISTICS",
    "Scenario",
    "SimulationError",
    "TrialResult",
    "ValidationError",
    "aggregate",
    "basis_candidate",
    "basis_state",
    "catalog",
    "catalog_fingerprint",
    "conversion_circuit",
    "detection_probability",
    "equal_up_to_global_phase",
    "gate",
    "knowledge",
    "qber",
    "run_experiment",
    "run_trial",
    "sift",
    "validate_basis_candidate",
    "validate_catalog",
]

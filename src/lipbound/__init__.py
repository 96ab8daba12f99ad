"""Certified Lipschitz upper bounds for feedforward neural networks.

The dense linear-algebra kernels are importable from ``lipbound.linalg``;
they check nothing but LAPACK's status, so their inputs must be float64,
finite, square and, where the kernel says so, exactly symmetric.
``Network`` checks a network's shapes and finiteness once, when it is built.

numpy's OpenBLAS runs on one thread unless the user set a count; see
``lipbound.linalg``.
"""

__version__ = "0.1.0"

# first, so numpy's OpenBLAS loads at one thread before any module imports numpy
from . import linalg
from .bounds import (
    STRATEGIES,
    BoundReport,
    MultiplierSequence,
    StrategyConfig,
    evaluate,
    product_bound,
    run_recursion,
)
from .certify import (
    LmiCertificate,
    ValidationReport,
    assemble_lipsdp,
    empirical_lower_bound,
    validate,
    verify_feasibility,
)
from .errors import (
    AllInfeasible,
    DefinitenessLost,
    DimensionChainError,
    LipboundError,
    ParseError,
    ValidationFailed,
)
from .network import (
    Network,
    forward,
    generate_random,
    jacobian_norms,
    jacobian_sigma,
    load_network,
    save_network,
)

__all__ = [
    "STRATEGIES",
    "AllInfeasible",
    "BoundReport",
    "DefinitenessLost",
    "DimensionChainError",
    "LipboundError",
    "LmiCertificate",
    "MultiplierSequence",
    "Network",
    "ParseError",
    "StrategyConfig",
    "ValidationFailed",
    "ValidationReport",
    "assemble_lipsdp",
    "empirical_lower_bound",
    "evaluate",
    "forward",
    "generate_random",
    "jacobian_norms",
    "jacobian_sigma",
    "load_network",
    "product_bound",
    "run_recursion",
    "save_network",
    "validate",
    "verify_feasibility",
]

"""Certified Lipschitz upper bounds for feedforward neural networks.

The dense linear-algebra kernels are importable from ``lipbound.linalg``;
they check nothing but LAPACK's status, so their inputs must be float64,
finite, square and, where the kernel says so, exactly symmetric.
``Network`` checks a network's shapes and finiteness once, when it is built.

Where numpy is not imported yet and the user set no thread count, numpy is
imported here with ``OPENBLAS_NUM_THREADS=1`` for the moment of its import,
so its OpenBLAS loads with one thread and starts no worker; the environment
is then put back as it was.  See ``lipbound.linalg`` for a numpy imported
earlier.
"""

import os as _os
import sys as _sys

__version__ = "0.1.0"

# Either variable, when set, is the user's thread count and is left in force.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _user_sets_threads() -> bool:
    """Whether the user set an OpenBLAS thread count (an empty value sets none)."""
    return any(_os.environ.get(var) for var in _THREAD_VARIABLES)


if "numpy" not in _sys.modules and not _user_sets_threads():
    # OpenBLAS reads the variable once, when it loads; an idle worker
    # spins for about 0.13 s of CPU in every process
    _saved = _os.environ.get("OPENBLAS_NUM_THREADS")
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        if _saved is None:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        else:
            _os.environ["OPENBLAS_NUM_THREADS"] = _saved

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

"""Growth rate of beta-expansions and Bernoulli-convolution local dimensions."""

from .errors import (
    BetaGrowthError,
    CapExceededError,
    HypothesisError,
    InvalidInputError,
    InvariantError,
)
from .numberfield import (
    BetaSystem,
    FieldElement,
    MinimalPolynomial,
    NumberField,
    is_pisot,
    multinacci,
    parse_beta,
)

__all__ = [
    "BetaGrowthError",
    "BetaSystem",
    "CapExceededError",
    "FieldElement",
    "HypothesisError",
    "InvalidInputError",
    "InvariantError",
    "MinimalPolynomial",
    "NumberField",
    "is_pisot",
    "multinacci",
    "parse_beta",
]

__version__ = "0.1.0"

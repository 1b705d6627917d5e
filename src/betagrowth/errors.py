"""Exception hierarchy shared by all modules.

Each class maps to a distinct CLI exit code so that callers can tell bad
input apart from resource caps, violated theorem hypotheses, and genuine
internal bugs.
"""


class BetaGrowthError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(BetaGrowthError):
    """Malformed spec string, point outside its domain, inadmissible word."""

    exit_code = 2


class CapExceededError(BetaGrowthError):
    """A resource cap was hit: DP states per lattice level, or automaton states."""

    exit_code = 3


class HypothesisError(BetaGrowthError):
    """The hypothesis of the theorem behind an operation does not hold."""

    exit_code = 4


class InvariantError(BetaGrowthError):
    """An internal invariant failed; indicates a construction bug."""

    exit_code = 5

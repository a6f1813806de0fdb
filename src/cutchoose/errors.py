"""Typed errors shared across the package.

Exit-code mapping for the CLI: ValidationError family -> 1, CapacityError -> 2.
"""


class CutChooseError(Exception):
    """Base class for all package errors."""


class ValidationError(CutChooseError):
    """Raised when a structure, instance, or input file violates an invariant.

    ``path`` locates the offending field: a dotted path into the input
    document, the field's name for a ``GameInstance`` built in code, or empty;
    ``message`` is the text without it.
    """

    def __init__(self, message: str, path: str = ""):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class CapacityError(CutChooseError):
    """Raised when an enumeration or search would exceed a configured budget.

    Never a silent truncation: carries partial statistics where available.
    """

    def __init__(self, message: str, stats: dict | None = None):
        self.stats = dict(stats or {})
        super().__init__(message)


class IllegalMoveError(CutChooseError):
    """A move violates the structural rules of the game at this position."""

    def __init__(self, message: str, rule: str = ""):
        self.rule = rule
        super().__init__(f"{message} [rule: {rule}]" if rule else message)


class StrategyError(CutChooseError):
    """A strategy failed to produce a move at a position it must cover."""


class TransformSoundnessError(CutChooseError):
    """A simulation-backed strategy reached an inconsistent auxiliary state.

    Indicates a bug in a transform (or an input violating its precondition),
    never a mere game loss.
    """


class SigmaSearchError(TransformSoundnessError):
    """The response-set search in the Nonempty-strategy construction failed.

    The construction guarantees success for winning inputs; exhaustion is a
    loud proof-violation signal, not a fallback path.
    """

"""Exception taxonomy shared across the package.

Every error raised on purpose derives from LexeuError so callers (and the
CLI) can map failures to exit codes without string matching.
"""
from __future__ import annotations


class LexeuError(Exception):
    """Base class for all package errors."""


class SpaceMismatch(LexeuError):
    """Two objects built over different state or outcome spaces were mixed."""


class EmptyEvent(LexeuError):
    """An operation that needs a nonempty event received the empty one."""


class UnknownState(LexeuError):
    """A state label is not part of the state space."""


class UnknownOutcome(LexeuError):
    """An outcome label is not part of the outcome space."""


class NotSubset(LexeuError):
    """An event expected to be contained in another is not."""


class NotNormalized(LexeuError):
    """Lottery weights do not sum to one."""


class AtomGranularity(LexeuError):
    """No act over the available atoms realizes the requested lottery."""


class IncompleteTable(LexeuError):
    """A preference table lacks an entry or act needed by the computation."""


class CapExceeded(LexeuError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, message: str, needed: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class MalformedSystem(LexeuError):
    """A constraint system references unknown variables or is otherwise broken."""


class AxiomPrecheckFailed(LexeuError):
    """Synthesis was attempted on a table that fails a required axiom."""

    def __init__(self, message: str, reports=None):
        super().__init__(message)
        self.reports = tuple(reports or ())


class Unrepresentable(LexeuError):
    """No model reproduces the table; carries the infeasible subsystem."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class VerificationFailed(LexeuError):
    """A synthesized model failed the mandatory round-trip check."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(LexeuError):
    """Input file or literal could not be parsed."""


class ValidationError(LexeuError):
    """A model violates its structural invariants."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)

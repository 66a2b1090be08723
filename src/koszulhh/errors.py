"""Shared exception types."""

from __future__ import annotations


class CapExceeded(RuntimeError):
    """A computation would enumerate more objects than the configured cap."""

    def __init__(self, message: str, needed: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class NotACocycleError(ValueError):
    """Input cochain violates a relation that only cocycles satisfy.

    The offending relation is kept on the exception so callers can report it.
    From the Koszul cochain code it is a sequence position in the lex order
    of koszul.sequence_links, paired with the offending value when one value
    fails, or None; from the dg algebra code it is the element that is not
    closed.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidDefiningSystemError(ValueError):
    """A defining system fails one of its compatibility relations."""

    def __init__(self, message: str, relation=None):
        super().__init__(message)
        self.relation = relation

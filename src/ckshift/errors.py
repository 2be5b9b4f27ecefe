"""Exception types shared across the package, and the quoting of a rejected
value in their messages."""


class ValidationError(ValueError):
    """A structure violates one of its invariants; the message names it."""


class UnsupportedPresentationError(ValidationError):
    """An infinite presentation falls outside the decidable cases."""


class DomainError(ValueError):
    """An operation was applied outside its domain (e.g. shifting an
    empty terminal path, or the cocycle of the zero element)."""


def short_repr(value) -> str:
    """``repr(value)`` cut to 80 characters, the last one ``…``, so an error
    message that quotes a rejected input stays one short line."""
    text = repr(value)
    return text if len(text) <= 80 else text[:79] + "…"

"""Exception types shared across the package, the quoting of a rejected
value in their messages, and the check of integer arguments."""


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


def _require_ints(**values) -> None:
    """Reject a bool or any other non-int given for an integer argument."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValidationError(f"{name} must be an integer, got {short_repr(value)}")

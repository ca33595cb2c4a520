"""Exception types shared across hatlab modules, and the quoting rule of their messages."""

import reprlib


class HatlabError(Exception):
    """Base class for all hatlab errors."""


class UnsupportedSizeError(HatlabError):
    """An instance exceeds the exact-computation budget for an operation.

    The message names the violated limit so callers can tell a genuine bug
    from an out-of-budget request.
    """


class MalformedStrategyError(HatlabError):
    """A strategy's tables do not match the game's (t, n, family) shape."""


class _Repr(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past sys.get_int_max_str_digits() an int has no repr
            return f"<int of {x.bit_length()} bits>"


# error messages quote values through this: a deeply nested one stays short, and a
# scalar is shortened only past the 60 characters that _cut lets through
_QUOTE = _Repr()
_QUOTE.maxlevel, _QUOTE.maxlist = 2, 8
_QUOTE.maxlong = _QUOTE.maxstring = _QUOTE.maxother = 60


def _quote(value) -> str:
    """repr(value) for an error message, abbreviated to at most 60 characters."""
    return _cut(_QUOTE.repr(value))


def _cut(text: str) -> str:
    """text itself when it is at most 60 characters long, else its first 57 and "..."."""
    return text if len(text) <= 60 else text[:57] + "..."

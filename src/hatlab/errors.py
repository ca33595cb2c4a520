"""Exception types shared across hatlab modules."""


class HatlabError(Exception):
    """Base class for all hatlab errors."""


class UnsupportedSizeError(HatlabError):
    """An instance exceeds the exact-computation budget for an operation.

    The message names the violated limit so callers can tell a genuine bug
    from an out-of-budget request.
    """


class MalformedStrategyError(HatlabError):
    """A strategy's tables do not match the game's (t, n, family) shape."""

"""Exception types shared across the package."""


class WordError(ValueError):
    """Base class for malformed or out-of-contract word arguments."""


class EmptyInput(WordError):
    """An operation that needs a nonempty word was given the empty word."""

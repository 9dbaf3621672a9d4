"""Exception types shared across the package."""


class WordError(ValueError):
    """Base class for malformed or out-of-contract word arguments."""


class EmptyInput(WordError):
    """An operation that needs a nonempty word was given the empty word."""


class NotPhiImage(WordError):
    """phi_inverse was applied to a word that is not a morphism image."""


class NotUniform(WordError):
    """A frame operation was applied to a non-uniform word."""


class NotR1Reduced(WordError):
    """The CLI's check ab-whole refusal of a word that is not cube-collapsed."""

"""Exception types shared across the library."""


class OmegalibError(Exception):
    """Base class for every domain-level error this library raises."""


class NonPositiveInput(OmegalibError):
    """A strictly positive rational was required."""


class InsufficientMass(OmegalibError):
    """A codeword request exceeds the measure left in the free pool.

    ``index`` is the zero-based position of the offending request when the
    failure happened inside a batch, else ``None``.  ``args`` is always
    ``(length, index)``, so copies and pickles rebuild the same exception;
    ``length`` and ``index`` are read from it and the message is formatted
    on demand.
    """

    def __init__(self, length: int, index: int | None = None):
        self.args = (length, index)

    @property
    def length(self) -> int:
        return self.args[0]

    @property
    def index(self) -> int | None:
        return self.args[1]

    def __str__(self) -> str:
        where = f" (request index {self.index})" if self.index is not None else ""
        return f"no free prefix can honour a length-{self.length} request{where}"


class TargetTooShort(OmegalibError):
    """A prefix split was asked for a target length below the stem length."""


class InvalidSequence(OmegalibError):
    """A rational sequence violates strict monotonicity or its range."""


class SequenceExhausted(InvalidSequence):
    """Fewer terms are available than were requested."""


class StageOutOfRange(OmegalibError):
    """A stage index exceeds the finite enumeration it points into."""


class LengthMismatch(OmegalibError):
    """Two prefixes that must have equal length do not."""


class UnderlongString(OmegalibError):
    """A stage string is shorter than the compression margin it must fund."""


class MeasureViolation(OmegalibError):
    """A prefix set exceeds the measure bound its level promises."""

"""Exception types shared across the library."""


class OmegalibError(Exception):
    """Every domain-level error this library raises.

    A refused codeword request is the subclass ``InsufficientMass``; every
    other domain failure is an ``OmegalibError`` told apart by its message.
    """


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

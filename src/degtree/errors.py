"""Exception types and small helpers shared across the package."""

from reprlib import recursive_repr


class _Record:
    # A record whose fields are its __match_args__: equal only to a record
    # of its own class with equal fields, and shown as Name(field=value, ...).
    # Written out by hand: the standard library's decorator for this would
    # import inspect, ast and dis into every process that loads the package.
    # Defining __eq__ sets __hash__ to None; a frozen record defines its own.
    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


def _int_text(n: int) -> str:
    # str(n) without Python's int-to-str digit limit, which a charge or
    # node count can pass when every entry of its degree spec is within it;
    # decimal is imported only past that limit.
    try:
        return str(n)
    except ValueError:
        import decimal

        return str(decimal.Decimal(n))


class DegtreeError(Exception):
    """Base class for all errors raised by this package."""


class ChargeNotOneError(DegtreeError):
    """A degree sequence whose charge must be 1 has a different charge."""

    def __init__(self, charge: int):
        super().__init__(f"degree sequence has charge {_int_text(charge)}, expected 1")
        self.charge = charge


class NotConstructibleError(DegtreeError):
    """No tree can use every node of the given degree multiset."""

    def __init__(self, charge: int):
        message = f"degree multiset has charge {_int_text(charge)}, expected 1; no tree uses all of its nodes"
        super().__init__(message)
        self.charge = charge


class MalformedCodeError(DegtreeError):
    """A prefix code does not encode exactly one tree."""


class TruncatedCodeError(MalformedCodeError):
    """The code ended while some node still waited for children."""


class TrailingSymbolsError(MalformedCodeError):
    """A complete tree was decoded but symbols remained."""

    def __init__(self, position: int):
        super().__init__(f"complete tree ends at position {position}; trailing symbols remain")
        self.position = position


class MissingArityError(DegtreeError):
    """An operator alphabet has no symbols for a required arity."""

    def __init__(self, arity: int):
        super().__init__(f"alphabet defines no symbols for arity {arity}")
        self.arity = arity


class EnumerationTooLargeError(DegtreeError):
    """Exhaustive enumeration was requested beyond the configured size bound."""

    def __init__(self, total_nodes: int, bound: int):
        super().__init__(f"{_int_text(total_nodes)} nodes exceeds the exhaustive enumeration bound of {bound}")
        self.total_nodes = total_nodes
        self.bound = bound

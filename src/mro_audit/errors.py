"""Exception hierarchy for the audit engine.

Every domain failure raises a subclass of :class:`AuditError`, so callers
(notably the CLI) can distinguish bad input from bugs with one except clause.
An error found in an input file carries its location (``path``, ``row``,
``column``), and :class:`AuditError` writes it in front of the message in
one format: ``<path>, row N, column 'X': <message>``, where row N counts
CSV records (or config lines) and the header is row 1.
"""


class AuditError(Exception):
    """Base class for all domain errors raised by this package.

    ``path``, ``row`` and ``column`` locate the error when known; the ones
    given prefix the message.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 row: int | None = None, column: str | None = None):
        self.path = path
        self.row = row
        self.column = column
        where = []
        if path is not None:
            where.append(str(path))
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ValidationError(AuditError):
    """Input violates a structural invariant (negative count, count over bound, ...)."""


class ParseError(AuditError):
    """A file could not be read or parsed."""


class AmbiguousOutcome(AuditError):
    """A winner/loser margin is zero or negative; the audit framework does not apply."""


class PoolContainsWinner(AuditError):
    """A candidate pool includes an apparent winner."""


class IncompleteTally(AuditError):
    """A full hand tally was required but some precinct has no audit record."""


class UnknownPrecinct(AuditError):
    """An audit record refers to a precinct absent from the returns."""


class CandidateMismatch(AuditError):
    """Two vote maps do not cover the same candidate set."""


class EmptyPairSet(AuditError):
    """A maximum was requested over zero winner/loser pairs."""


class EmptySample(AuditError):
    """A test statistic was requested over an empty sample."""


class ZeroBoundWithTaintWeight(AuditError):
    """The taint weight divides by a per-precinct bound that is zero."""


class InconsistentBounds(AuditError):
    """A per-precinct bound is negative."""


class InvalidCount(AuditError):
    """A count is outside its legal range (e.g. more tainted precincts than precincts)."""


class InfeasibleConstraint(AuditError):
    """A sampling constraint cannot be satisfied by any draw."""


class InfeasibleSpec(AuditError):
    """A synthetic-instance request is internally inconsistent."""

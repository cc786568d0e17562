"""File formats: returns and audit CSVs, county tables, config files.

Returns CSV schema (header is exact, candidate columns follow the three
fixed columns, at least two of them):

    precinct_id,county_id,ballot_bound,<candidate>,<candidate>,...

Audit CSV schema:

    precinct_id,<candidate>,<candidate>,...

County CSV schema (``required_samples`` optional; when absent the statutory
minimum for the county's registered voters applies):

    county_id,registered_voters[,required_samples]

Config files are plain ``key=value`` lines (``#`` comments allowed); keys
mirror the CLI flag names.  The loaders reject exactly what the domain
invariants reject; nothing is silently repaired.

Every file is opened through :func:`_opened`: one that cannot be opened or
is not UTF-8 is a ``ParseError``.  :func:`_records` reads a table whole,
then checks row widths and unique keys; row N counts CSV records, the
header being row 1.  Returns and audits share :func:`_count_table`, which
parses each integer cell once (:func:`_ints`).  :func:`load_contest`
checks, tabulates and pools a returns file in its one pass over the rows.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import TextIO

from .core import (
    AuditRecord,
    Contest,
    ContestSetup,
    PrecinctReturns,
    _count_problem,
    _pooled_contest,
)
from .errors import ParseError, ValidationError
from .sampling import CountyPlan, statutory_minimum

RETURNS_FIXED_COLUMNS = ("precinct_id", "county_id", "ballot_bound")


@contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 file; failing to open or decode it is a ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc


def _records(path: str) -> Iterator[tuple[int, list[str]]]:
    """Walk a CSV table as ``(row, cells)``, numbering rows by record.

    The file is read whole, and closed, before any row is checked.  The
    header comes first, as row 1 with its cells stripped; each later row
    comes once it has the header's width and a key (its first cell, stored
    stripped) that no earlier row has.  The table lets go of each record as
    it is walked, so a load holds the unread records and what the caller
    kept of the read ones, not the whole table twice over.
    """
    table: list[list[str]] = []
    with _opened(path) as handle:
        try:
            for cells in csv.reader(handle):
                table.append(cells)
        except csv.Error as exc:
            raise ParseError(str(exc), path=path, row=len(table) + 1) from exc
    if not table:
        raise ParseError("empty file, expected a header row", path=path)
    table.reverse()
    header = [cell.strip() for cell in table.pop()]
    yield 1, header
    width, key_column, seen = len(header), header[0], set()
    for row in range(2, len(table) + 2):
        cells = table.pop()
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}",
                             path=path, row=row)
        key = cells[0] = cells[0].strip()
        if key in seen:
            raise ParseError(f"duplicate {key_column} {key!r}",
                             path=path, row=row, column=key_column)
        seen.add(key)
        yield row, cells


def _ints(cells: list[str], columns: list[str], path: str,
          row: int) -> list[int]:
    """Each cell as an ``int``, parsed once, else a ``ParseError`` naming its
    column.  (``int`` alone keeps U+001C to U+001F, which ``strip`` drops.)"""
    ints = []
    try:
        for column, cell in zip(columns, cells):
            ints.append(int(cell.strip()))
    except ValueError:
        raise ParseError(f"expected an integer, got {cell!r}",
                         path=path, row=row, column=column) from None
    return ints


def _count_table(
    path: str, fixed: tuple[str, ...], text_columns: int, at_least: int
) -> tuple[tuple[str, ...], Iterator[tuple[int, list[str], list[int]]]]:
    """Read the header of a precinct count table; return the candidates and
    the walk over its rows as ``(row, cells, counts)``.

    The header is the ``fixed`` columns, then at least ``at_least`` (one or
    two) candidate columns, unique and nonempty.  Each row has a nonempty
    ``precinct_id``; ``counts`` are its cells after ``text_columns`` as ints.
    """
    records = _records(path)
    _, header = next(records)
    if tuple(header[:len(fixed)]) != fixed:
        raise ParseError(
            f"header must start with {','.join(fixed)}, "
            f"got {','.join(header[:len(fixed)])}",
            path=path, row=1,
        )
    candidates = tuple(header[len(fixed):])
    if len(candidates) < at_least:
        need = ("one candidate column", "two candidate columns")[at_least - 1]
        raise ParseError(f"need at least {need}", path=path, row=1)
    if len(set(candidates)) != len(candidates) or not all(candidates):
        raise ParseError(
            "candidate columns must be unique and nonempty", path=path, row=1
        )
    columns = header[text_columns:]

    def rows() -> Iterator[tuple[int, list[str], list[int]]]:
        for row, cells in records:
            if not cells[0]:
                raise ParseError("empty precinct_id", path=path, row=row,
                                 column="precinct_id")
            yield row, cells, _ints(cells[text_columns:], columns, path, row)

    return candidates, rows()


def load_returns(
    path: str | Path, votes_per_voter: int = 1
) -> tuple[ContestSetup, list[PrecinctReturns]]:
    """The setup and returns of :func:`load_contest`, unpooled."""
    contest = load_contest(path, votes_per_voter)
    return contest.setup, contest.returns


def load_contest(path: str | Path, votes_per_voter: int = 1,
                 pool: Iterable[str] = (), pooled_id: str = "Pooled") -> Contest:
    """Load and validate a returns CSV as a :class:`~mro_audit.core.Contest`,
    with the ``pool`` members, if any, merged into ``pooled_id``.

    The candidates are the header columns after the three fixed columns.
    Every cell must be an integer, precinct ids must be unique and each
    row's counts must obey the count rules of :mod:`mro_audit.core`.  One
    pass checks each row, builds its final vote map and sums the unpooled
    column totals a chunk of rows at a time; then the pool rules run.  The
    result, each error and their order are those of ``core.pool_contest``
    on the unpooled contest, except that an empty pool means no pooling.

    Raises:
        ParseError, ValidationError: a malformed row or a broken count rule,
            located by row; then what ``core.pool_contest`` raises.
    """
    path, pool = str(path), set(pool)
    candidates, rows = _count_table(path, RETURNS_FIXED_COLUMNS, 2, 2)
    kept_mask = [candidate not in pool for candidate in candidates]
    pool_mask = [not kept for kept in kept_mask]
    kept = list(compress(candidates, kept_mask))
    returns: list[PrecinctReturns] = []
    width, chunk = len(candidates), []
    for row, cells, counts in rows:
        bound, counts = counts[0], counts[1:]
        problem = _count_problem(zip(candidates, counts), bound,
                                 votes_per_voter)
        if problem is not None:
            raise ValidationError(problem, path=path, row=row)
        votes = dict(zip(kept, compress(counts, kept_mask)))
        if pool:
            votes[pooled_id] = sum(compress(counts, pool_mask))
        returns.append(PrecinctReturns(cells[0], cells[1].strip(), bound,
                                       votes))
        chunk += counts
        if len(chunk) >= 256 * width:  # fold the chunk into its column sums
            chunk = [sum(chunk[i::width]) for i in range(width)]
    if not returns:
        raise ValidationError("no precinct rows", path=path)
    setup = ContestSetup(candidates, votes_per_voter, len(returns))
    totals = {c: sum(chunk[i::width]) for i, c in enumerate(candidates)}
    if pool:
        return _pooled_contest(setup, totals, pool, pooled_id, returns)
    return Contest(setup, returns, totals)


def load_audits(path: str | Path) -> list[AuditRecord]:
    """Load hand-count records; the count rules and candidate consistency
    are checked when the records are pooled or joined to the returns.

    An empty file with just a header yields an empty list.

    Raises:
        ParseError: structural problems, including duplicated precinct ids
            and duplicated or empty candidate columns.
    """
    path = str(path)
    candidates, rows = _count_table(path, ("precinct_id",), 1, 1)
    return [AuditRecord(cells[0], dict(zip(candidates, counts)))
            for _, cells, counts in rows]


def load_county_plans(
    path: str | Path,
    returns: list[PrecinctReturns],
) -> list[CountyPlan]:
    """Load the county table and attach each county's precincts from the returns.

    Every county occurring in the returns must appear in the table and vice
    versa.  When the optional ``required_samples`` column is present and
    nonempty it overrides the statutory minimum (counties may audit more).
    """
    path = str(path)
    records = _records(path)
    _, header = next(records)
    if header[:2] != ["county_id", "registered_voters"] or len(header) > 3 or (
        len(header) == 3 and header[2] != "required_samples"
    ):
        raise ParseError(
            "header must be county_id,registered_voters[,required_samples]",
            path=path, row=1,
        )
    has_required = len(header) == 3

    precincts_by_county: dict[str, list[str]] = {}
    for ret in returns:
        precincts_by_county.setdefault(ret.county_id, []).append(ret.precinct_id)

    plans: list[CountyPlan] = []
    for row, cells in records:
        county_id = cells[0]
        voters, = _ints(cells[1:2], header[1:2], path, row)
        if county_id not in precincts_by_county:
            raise ValidationError(
                f"county {county_id!r} has no precincts in the returns",
                path=path, row=row,
            )
        required = statutory_minimum(voters)
        if has_required and cells[2].strip():
            required, = _ints(cells[2:], header[2:], path, row)
            if required < statutory_minimum(voters):
                raise ValidationError(
                    f"required_samples {required} below the statutory "
                    f"minimum {statutory_minimum(voters)}",
                    path=path, row=row,
                )
        try:
            plans.append(CountyPlan(county_id, voters,
                                    precincts_by_county[county_id], required))
        except ValidationError as exc:
            raise ValidationError(str(exc), path=path, row=row) from None
    missing = set(precincts_by_county) - {plan.county_id for plan in plans}
    if missing:
        raise ValidationError(
            f"counties in returns but not in the table: {sorted(missing)[:5]}",
            path=path,
        )
    return plans


def load_config(path: str | Path) -> dict[str, str]:
    """Read a key=value config file; keys mirror the CLI flag names."""
    config: dict[str, str] = {}
    path = str(path)
    with _opened(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\0" in line:
                raise ParseError("NUL character in line", path=path,
                                 row=lineno)
            if "=" not in line:
                raise ParseError(
                    f"expected key=value, got {line!r}", path=path, row=lineno
                )
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config

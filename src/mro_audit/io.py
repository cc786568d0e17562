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
is not UTF-8 is a ``ParseError``.  :func:`_table` reads a CSV table whole,
and closes it, before any row is checked; row N counts CSV records, the
header being row 1.  Audits and county tables are walked row by row
(:func:`_records`).  :func:`load_contest` turns each run of
:data:`_CHUNK_ROWS` returns records into columns as it reads them, and
runs every row rule as a pass over the columns; no row is built.  Returns
that break a rule are walked row by row with the per-row checks
(:func:`_check_record`, :func:`_counts`, ``core._count_problem``), which
raise the first fault as the row walk would.  A message echoes a cell, key
or line through :func:`_echo`, which cuts a long one.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Container, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from operator import le, mul
from pathlib import Path
from typing import TextIO

from .core import (
    MAX_BALLOT_BOUND,
    AuditRecord,
    Contest,
    ContestSetup,
    PrecinctReturns,
    _count_problem,
)
from .errors import ParseError, ValidationError
from .sampling import (Counties, CountyPlan, _plan_problem, _row_walk,
                       statutory_minimum)

RETURNS_FIXED_COLUMNS = ("precinct_id", "county_id", "ballot_bound")
# Returns records converted to columns at once: enough that the passes run
# in C, few enough that their cells add little to the load's peak memory
# beside the columns.
_CHUNK_ROWS = 256
# Characters of a cell, key or line that a message echoes whole.
_ECHO_CHARS = 100


def _echo(text: str, show: Callable[[str], str] = repr) -> str:
    """``show(text)``, as a message echoes a cell, key or line; a longer
    text than :data:`_ECHO_CHARS` is cut to that many characters, and the
    message states its length."""
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return (f"{show(text[:_ECHO_CHARS])} (first {_ECHO_CHARS} of "
            f"{len(text)} characters)")


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


def _table(path: str, convert: Callable[[list[list[str]]], object]
           ) -> tuple[list[str], list]:
    """Read a CSV table whole, and close it, before any row is checked.

    Returns the header, its cells stripped, and the later records, each run
    of :data:`_CHUNK_ROWS` of them kept as ``convert`` turns it the moment
    it is read: a caller can let each run go once it is walked, or keep it
    in a smaller form than cells.
    """
    header, table, chunk = None, [], []
    with _opened(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            for cells in reader:
                chunk.append(cells)
                if len(chunk) == _CHUNK_ROWS:
                    table.append(convert(chunk))
                    chunk = []
        except csv.Error as exc:
            read = (header is not None) + len(table) * _CHUNK_ROWS + len(chunk)
            raise ParseError(str(exc), path=path, row=read + 1) from exc
    if chunk:
        table.append(convert(chunk))
    if header is None:
        raise ParseError("empty file, expected a header row", path=path)
    header = [cell.strip() for cell in header]
    if not any(header):
        raise ParseError("header row is empty", path=path, row=1)
    if header[:1] and header[0].startswith("\ufeff"):
        raise ParseError("starts with a UTF-8 byte-order mark; save the file "
                         "as UTF-8 without one", path=path, row=1)
    return header, table


def _check_record(cells: list[str], header: list[str], seen: set[str],
                  path: str, row: int) -> None:
    """The width and key rules of one record: it has the header's width and
    a key (its first cell, stored stripped) that no earlier row has."""
    if len(cells) != len(header):
        raise ParseError(f"expected {len(header)} cells, got {len(cells)}",
                         path=path, row=row)
    key = cells[0] = cells[0].strip()
    if key in seen:
        raise ParseError(f"duplicate {header[0]} {_echo(key)}",
                         path=path, row=row, column=header[0])
    seen.add(key)


def _records(path: str) -> Iterator[tuple[int, list[str]]]:
    """Walk a CSV table as ``(row, cells)``, numbering rows by record: the
    header first, as row 1, then each later record once
    :func:`_check_record` passes it."""
    header, table = _table(path, list)
    yield 1, header
    seen: set[str] = set()
    row = 1
    table.reverse()
    while table:
        for row, cells in enumerate(table.pop(), row + 1):
            _check_record(cells, header, seen, path, row)
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
        raise ParseError(f"expected an integer, got {_echo(cell)}",
                         path=path, row=row, column=column) from None
    return ints


def _counts(cells: list[str], header: list[str], text_columns: int,
            path: str, row: int) -> list[int]:
    """A count table row's cells after ``text_columns`` as ints; its
    ``precinct_id`` must be nonempty."""
    if not cells[0]:
        raise ParseError("empty precinct_id", path=path, row=row,
                         column="precinct_id")
    return _ints(cells[text_columns:], header[text_columns:], path, row)


def _candidates(header: list[str], fixed: tuple[str, ...], at_least: int,
                path: str) -> tuple[str, ...]:
    """The candidates of a precinct count table's header: the ``fixed``
    columns, then at least ``at_least`` (one or two) candidate columns,
    unique and nonempty."""
    if tuple(header[:len(fixed)]) != fixed:
        raise ParseError(
            f"header must start with {','.join(fixed)}, "
            f"got {_echo(','.join(header[:len(fixed)]), str)}",
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
    return candidates


def load_returns(
    path: str | Path, votes_per_voter: int = 1
) -> tuple[ContestSetup, list[PrecinctReturns]]:
    """The setup and returns of :func:`load_contest`."""
    contest = load_contest(path, votes_per_voter)
    return contest.setup, contest.returns


def load_contest(path: str | Path, votes_per_voter: int = 1) -> Contest:
    """Load and validate a returns CSV as a :class:`~mro_audit.core.Contest`.

    The candidates are the header columns after the three fixed columns.
    Every cell must be an integer, precinct ids must be unique and each
    row's counts must obey the count rules of :mod:`mro_audit.core`.  Each
    run of :data:`_CHUNK_ROWS` records becomes columns as it is read, and
    every rule runs as a pass over the whole columns.  If one breaks, the
    records are walked row by row with the per-row checks, which raise the
    first fault as a row walk of the file would.  Pooling is
    ``core.pool_contest``'s job.

    Raises:
        ParseError, ValidationError: a malformed row or a broken count rule,
            located by row.
    """
    path = str(path)
    columns: list[list] = []
    header, table = _table(path, partial(_append_columns, columns))
    candidates = _candidates(header, RETURNS_FIXED_COLUMNS, 2, path)
    if not table:
        raise ValidationError("no precinct rows", path=path)
    if not _columns_pass(columns, table, len(header), votes_per_voter):
        _raise_first_fault(columns, table, header, votes_per_voter, path)
    ids, counties, bounds, *counts = columns
    return Contest(ContestSetup(candidates, votes_per_voter, len(ids)),
                   ids, counties, bounds, counts)


def _append_columns(columns: list[list],
                    chunk: list[list[str]]) -> int | list[list[str]]:
    """Append returns records to ``columns``, ids and county ids stripped,
    ints for the other cells, and return how many; or return the records,
    appending nothing, if their widths differ from each other or from
    ``columns`` or a cell after the second is no integer."""
    try:
        ids, counties, *cells = zip(*chunk)
        ints = [list(map(int, map(str.strip, column))) for column in cells]
    except ValueError:
        return chunk
    width = len(cells) + 2
    if set(map(len, chunk)) != {width} or len(columns) not in (0, width):
        return chunk
    if not columns:
        columns += ([] for _ in range(width))
    columns[0] += map(str.strip, ids)
    columns[1] += map(str.strip, counties)
    for column, chunk_column in zip(columns[2:], ints):
        column += chunk_column
    return len(chunk)


def _columns_pass(columns: list[list], table: list, width: int,
                  votes_per_voter: int) -> bool:
    """Whether every chunk of ``table`` went into ``columns`` and keeps
    every row rule, each checked as one pass over a column."""
    if len(columns) != width or not all(isinstance(c, int) for c in table):
        return False
    ids, _, bounds, *counts = columns
    unique = dict.fromkeys(ids)  # smaller than a set of the same ids
    if "" in unique or len(unique) != len(ids):
        return False
    if min(bounds) < 0 or max(bounds) > MAX_BALLOT_BOUND:
        return False
    for column in counts:
        if min(column) < 0 or not all(map(le, column, bounds)):
            return False
    caps = map(mul, bounds, repeat(votes_per_voter))
    return all(map(le, map(sum, zip(*counts)), caps))


def _raise_first_fault(columns: list[list], table: list, header: list[str],
                       votes_per_voter: int, path: str) -> None:
    """Walk the records with the per-row checks, and raise the first fault
    as a row walk of the file would.  A chunk that went into ``columns`` is
    walked as records again, its ints as text."""
    candidates, seen, start, row = header[3:], set(), 0, 2
    for chunk in table:
        if isinstance(chunk, int):
            begin, start = start, start + chunk
            chunk = [[*cells[:2], *map(str, cells[2:])] for cells
                     in zip(*(column[begin:start] for column in columns))]
        for row, cells in enumerate(chunk, row):
            _check_record(cells, header, seen, path, row)
            bound, *counts = _counts(cells, header, 2, path, row)
            problem = _count_problem(zip(candidates, counts), bound,
                                     votes_per_voter)
            if problem is not None:
                raise ValidationError(problem, path=path, row=row)
        row += 1


def load_audits(path: str | Path) -> list[AuditRecord]:
    """Load hand-count records; the count rules and candidate consistency
    are checked when the records are pooled or joined to the returns.

    An empty file with just a header yields an empty list.

    Raises:
        ParseError: structural problems, including duplicated precinct ids
            and duplicated or empty candidate columns.
    """
    path = str(path)
    records = _records(path)
    _, header = next(records)
    candidates = _candidates(header, ("precinct_id",), 1, path)
    audits = []
    for row, cells in records:
        counts = _counts(cells, header, 1, path, row)
        audits.append(AuditRecord(cells[0], dict(zip(candidates, counts))))
    return audits


def load_county_plans(path: str | Path,
                      returns: list[PrecinctReturns]) -> list[CountyPlan]:
    """:func:`load_county_table` against the counties of ``returns``."""
    return load_county_table(path, _row_walk(returns))


def load_county_table(path: str | Path, counties: Counties) -> list[CountyPlan]:
    """Load the county table; a county's precincts are those that
    ``counties``, a ``sampling.county_walk`` of the returns, gives it.

    Every county occurring in the returns must appear in the table and vice
    versa, and no county may ask for more samples than it has precincts
    (``sampling._plan_problem``, reported at the county's row).  When the
    optional ``required_samples`` column is present and nonempty it
    overrides the statutory minimum (counties may audit more).
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

    plans: list[CountyPlan] = []
    for row, cells in records:
        county_id = cells[0]
        voters, = _ints(cells[1:2], header[1:2], path, row)
        if voters < 0:
            raise ValidationError(
                f"county {_echo(county_id, str)}: negative registered "
                "voters",
                path=path, row=row,
            )
        minimum = required = statutory_minimum(voters)
        if has_required and cells[2].strip():
            required, = _ints(cells[2:], header[2:], path, row)
            if required < minimum:
                raise ValidationError(
                    f"required_samples {required} below the statutory "
                    f"minimum {minimum}",
                    path=path, row=row,
                )
        plans.append(CountyPlan(county_id, required))
        problem = _plan_problem(plans[-1], counties)
        if problem is not None:
            raise ValidationError(problem, path=path, row=row)
    missing = counties.keys() - {plan.county_id for plan in plans}
    if missing:
        raise ValidationError(
            "counties in returns but not in the table: "
            f"[{', '.join(map(_echo, sorted(missing)[:5]))}]",
            path=path,
        )
    return plans


def load_config(path: str | Path, flags: Container[str]) -> dict[str, str]:
    """Read a key=value config file; keys mirror the CLI flag names and
    come back as their parameter names, ``-`` read as ``_``.

    ``flags`` holds the parameter names of the flags a key may set.  A key
    that is none of them, or that an earlier line set, is a ``ParseError``
    at its line.
    """
    config: dict[str, str] = {}
    rows: dict[str, int] = {}
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
                    f"expected key=value, got {_echo(line)}", path=path,
                    row=lineno
                )
            key, _, value = line.partition("=")
            key = key.strip()
            name = key.replace("-", "_")
            if name not in flags:
                raise ParseError(f"unknown key {_echo(key)}, not a flag of "
                                 "any command", path=path, row=lineno)
            if name in rows:
                raise ParseError(f"key {_echo(key)} already set at row "
                                 f"{rows[name]}", path=path, row=lineno)
            rows[name] = lineno
            config[name] = value.strip()
    return config

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
"""

from __future__ import annotations

import csv
from pathlib import Path

from .core import (
    AuditRecord,
    Contest,
    ContestSetup,
    PrecinctReturns,
    _count_problem,
    tabulate,
)
from .errors import ParseError, ValidationError
from .sampling import CountyPlan, statutory_minimum

RETURNS_FIXED_COLUMNS = ("precinct_id", "county_id", "ballot_bound")


def _read_rows(path: str | Path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                return list(reader)
            except csv.Error as exc:
                raise ParseError(str(exc), path=str(path),
                                 row=reader.line_num) from exc
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=str(path)) from exc


def _int_cell(value: str, path: str, row: int, column: str) -> int:
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"expected an integer, got {value!r}",
            path=path, row=row, column=column,
        ) from None


def _check_candidate_columns(candidates: tuple[str, ...], path: str) -> None:
    if len(set(candidates)) != len(candidates) or any(not c for c in candidates):
        raise ParseError(
            "candidate columns must be unique and nonempty", path=path, row=1
        )


def load_returns(
    path: str | Path, votes_per_voter: int = 1
) -> tuple[ContestSetup, list[PrecinctReturns]]:
    """Load and validate a returns CSV.

    The candidate set is inferred from the header columns after the three
    fixed columns.  Every cell must be an integer; duplicate precinct ids are
    rejected; each row's counts must obey the count rules of
    :mod:`mro_audit.core`.

    Raises:
        ParseError: structural problems, located by row and column.
        ValidationError: counts breaking a count rule, located by row.
    """
    path = str(path)
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty file, expected a header row", path=path)
    header = [cell.strip() for cell in rows[0]]
    if tuple(header[:3]) != RETURNS_FIXED_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(RETURNS_FIXED_COLUMNS)}, "
            f"got {','.join(header[:3])}",
            path=path, row=1,
        )
    candidates = tuple(header[3:])
    if len(candidates) < 2:
        raise ParseError(
            "need at least two candidate columns", path=path, row=1
        )
    _check_candidate_columns(candidates, path)

    returns: list[PrecinctReturns] = []
    seen: set[str] = set()
    for index, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}",
                path=path, row=index,
            )
        precinct_id = row[0].strip()
        county_id = row[1].strip()
        if not precinct_id:
            raise ParseError("empty precinct_id", path=path, row=index,
                             column="precinct_id")
        if precinct_id in seen:
            raise ParseError(
                f"duplicate precinct_id {precinct_id!r}",
                path=path, row=index, column="precinct_id",
            )
        seen.add(precinct_id)
        bound = _int_cell(row[2], path, index, "ballot_bound")
        votes: dict[str, int] = {}
        for candidate, cell in zip(candidates, row[3:]):
            votes[candidate] = _int_cell(cell, path, index, candidate)
        problem = _count_problem(votes, bound, votes_per_voter)
        if problem is not None:
            raise ValidationError(f"{path}, row {index}: {problem}")
        returns.append(PrecinctReturns(precinct_id, county_id, bound, votes))
    if not returns:
        raise ValidationError(f"{path}: no precinct rows")
    setup = ContestSetup(
        candidates=candidates,
        votes_per_voter=votes_per_voter,
        precinct_count=len(returns),
    )
    return setup, returns


def load_contest(path: str | Path, votes_per_voter: int = 1) -> Contest:
    """Load a returns CSV as a prepared :class:`~mro_audit.core.Contest`.

    :func:`load_returns` has checked every row, so the contest only adds the
    tabulation; nothing is validated twice.  Raises what it raises.
    """
    setup, returns = load_returns(path, votes_per_voter)
    votes = [ret.machine_votes for ret in returns]
    return Contest(setup, returns, tabulate(setup.candidates, votes))


def load_audits(path: str | Path) -> list[AuditRecord]:
    """Load hand-count records; candidate consistency is checked at join time.

    An empty file with just a header yields an empty list.

    Raises:
        ParseError: structural problems, including duplicated precinct ids
            and duplicated or empty candidate columns.
    """
    path = str(path)
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty file, expected a header row", path=path)
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "precinct_id":
        raise ParseError(
            "header must start with precinct_id", path=path, row=1
        )
    candidates = tuple(header[1:])
    if not candidates:
        raise ParseError("need at least one candidate column", path=path, row=1)
    _check_candidate_columns(candidates, path)

    audits: list[AuditRecord] = []
    seen: set[str] = set()
    for index, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}",
                path=path, row=index,
            )
        precinct_id = row[0].strip()
        if not precinct_id:
            raise ParseError("empty precinct_id", path=path, row=index,
                             column="precinct_id")
        if precinct_id in seen:
            raise ParseError(
                f"duplicate precinct_id {precinct_id!r}",
                path=path, row=index, column="precinct_id",
            )
        seen.add(precinct_id)
        votes = {
            candidate: _int_cell(cell, path, index, candidate)
            for candidate, cell in zip(candidates, row[1:])
        }
        for candidate, count in votes.items():
            if count < 0:
                raise ValidationError(
                    f"{path}, row {index}, column {candidate!r}: "
                    f"negative count {count}"
                )
        audits.append(AuditRecord(precinct_id=precinct_id, hand_votes=votes))
    return audits


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
    rows = _read_rows(path)
    if not rows:
        raise ParseError("empty file, expected a header row", path=path)
    header = [cell.strip() for cell in rows[0]]
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
    seen: set[str] = set()
    for index, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}",
                path=path, row=index,
            )
        county_id = row[0].strip()
        if county_id in seen:
            raise ParseError(
                f"duplicate county_id {county_id!r}",
                path=path, row=index, column="county_id",
            )
        seen.add(county_id)
        voters = _int_cell(row[1], path, index, "registered_voters")
        if county_id not in precincts_by_county:
            raise ValidationError(
                f"{path}, row {index}: county {county_id!r} has no precincts "
                f"in the returns"
            )
        required = statutory_minimum(voters)
        if has_required and row[2].strip():
            required = _int_cell(row[2], path, index, "required_samples")
            if required < statutory_minimum(voters):
                raise ValidationError(
                    f"{path}, row {index}: required_samples {required} below "
                    f"the statutory minimum {statutory_minimum(voters)}"
                )
        plans.append(
            CountyPlan(
                county_id=county_id,
                registered_voters=voters,
                precincts=tuple(precincts_by_county[county_id]),
                required_samples=required,
            )
        )
    missing = set(precincts_by_county) - seen
    if missing:
        raise ValidationError(
            f"{path}: counties in returns but not in the table: "
            f"{sorted(missing)[:5]}"
        )
    return plans


def load_config(path: str | Path) -> dict[str, str]:
    """Read a key=value config file; keys mirror the CLI flag names."""
    config: dict[str, str] = {}
    path = str(path)
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "\0" in line:
                    raise ParseError("NUL character in line", path=path,
                                     row=lineno)
                if "=" not in line:
                    raise ParseError(
                        f"expected key=value, got {line!r}",
                        path=path, row=lineno,
                    )
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc
    return config

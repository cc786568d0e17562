"""Versioned JSON audit report: schema ``mro-audit/1``.

The document embeds every intermediate the risk computation used plus
SHA-256 digests of the input files, so an audit is a reproducible artifact:
:func:`verify_document` reads the document's inputs, builds the document
again from them with :func:`build_document`'s own code, and compares the
two whole.  Each field of the document is therefore stated once, where it
is built.

Rationals are serialized as ``"numerator/denominator"`` strings (lossless);
a float rendering sits alongside wherever humans read the number.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
from math import gcd
from operator import truediv
from pathlib import Path

from .core import (Contest, ContestSetup, ContestTotals, PrecinctReturns,
                   prepare_contest)
from .discrepancy import BoundColumns, PrecinctDiscrepancy
from .errors import ValidationError, _echo
from .risk import RiskReport, SamplingDesign, TestConfig, assess_sample

SCHEMA = "mro-audit/1"


def ratio_str(numerator: int, denominator: int) -> str:
    """A ratio with a positive denominator as ``"n/d"`` in lowest terms."""
    divisor = gcd(numerator, denominator)
    return f"{numerator // divisor}/{denominator // divisor}"


def fraction_str(value: Fraction | int) -> str:
    return ratio_str(value.numerator, value.denominator)


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def percent(p: float) -> str:
    return f"{100.0 * p:.2f}%"


def risk_block(report: RiskReport) -> dict:
    return {
        "observed_statistic": fraction_str(report.observed_statistic),
        "observed_statistic_float": float(report.observed_statistic),
        "taint_count": report.taint_count,
        "population_size": report.population_size,
        "effective_n": report.config.sampling.draws,
        "p_value": report.p_value,
        "p_value_percent": percent(report.p_value),
        "weight": report.config.weight,
        "sampling": {
            "method": report.config.sampling.method,
            "draws": report.config.sampling.draws,
        },
        "margin_threshold": fraction_str(report.config.margin_threshold),
        "sample_size": report.sample_size,
        "null_infeasible": report.null_infeasible,
    }


def outcome_block(totals: ContestTotals) -> dict:
    """The ``totals``, ``winners``, ``losers`` and ``pairwise_margins``
    members of the ``margins`` and ``report`` documents."""
    return {
        "totals": dict(totals.totals),
        "winners": list(totals.winners),
        "losers": list(totals.losers),
        "pairwise_margins": [
            {"winner": w, "loser": l, "margin": margin}
            for (w, l), margin in totals.pairwise_margins.items()
        ],
    }


def _rows(returns: Iterable[PrecinctReturns], bound_texts: Iterable[str],
          mros: Mapping[str, Fraction]) -> Iterator[dict]:
    """Each precinct's row, one at a time: its returns, its bound's text
    and, if it was sampled, its MRO."""
    for ret, bound in zip(returns, bound_texts):
        mro = mros.get(ret.precinct_id)
        yield {
            "precinct_id": ret.precinct_id,
            "county_id": ret.county_id,
            "ballot_bound": ret.ballot_bound,
            "votes": dict(ret.machine_votes),
            "bound": bound,
            "sampled": mro is not None,
            "mro": None if mro is None else fraction_str(mro),
        }


def build_document(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    totals: ContestTotals,
    bounds: Mapping[str, Fraction],
    discrepancies: Sequence[PrecinctDiscrepancy],
    report: RiskReport,
    *,
    tool_version: str,
    input_digests: Mapping[str, str],
    pooled: Mapping[str, object] | None = None,
) -> dict:
    """Assemble the full report document; ``bounds`` maps each precinct id
    to its a priori bound."""
    rows = _rows(returns,
                 (fraction_str(bounds[ret.precinct_id]) for ret in returns),
                 {d.precinct_id: d.max_overstatement for d in discrepancies})
    document = {
        "schema": SCHEMA,
        "tool_version": tool_version,
        "inputs": {
            name: {"sha256": digest} for name, digest in input_digests.items()
        },
        "contest": {
            "candidates": list(setup.candidates),
            "votes_per_voter": setup.votes_per_voter,
            "precinct_count": setup.precinct_count,
        },
        **outcome_block(totals),
        "precincts": list(rows),
        "risk": risk_block(report),
    }
    if pooled is not None:
        document["contest"]["pooled"] = dict(pooled)
    return document


# The per-precinct rows are the bulk of ``report`` and ``bounds`` output, and
# ``json.dumps`` uses its C encoder only without ``indent``.  So
# :func:`_with_rows` lays out one row of slots with ``json.dumps(...,
# indent=2)`` and fills it once per precinct with the text ``json.dumps``
# writes: the C string escaper for strings, ``%s`` for ints and floats
# (``str(float) == repr(float)``) and :data:`_LITERALS` for the rest.

_SLOT = "\0"
_LITERALS = {True: "true", False: "false", None: "null"}


def _with_rows(document: Mapping, row: Mapping,
               cells: Iterable[tuple]) -> str:
    """``json.dumps(document, indent=2)``, its ``precincts`` holding
    ``row`` once per tuple of ``cells``, which fills the row's slots in
    order.  Every scalar in ``row`` is a slot.

    Exact because a JSON string escapes its quotes and newlines: only a
    top-level member starts a line with two spaces and a quote, only the
    list's end starts one with two spaces and a ``]``, and in the row
    ``: "\\u0000"`` is a slot, as no closing quote precedes a backslash.
    """
    text = json.dumps({**document, "precincts": [row]}, indent=2)
    head, _, rest = text.partition('\n  "precincts": [\n')
    template, _, tail = rest.partition("\n  ]")
    # A "%" in a key is doubled so that it is not read as a slot.
    template = template.replace("%", "%%").replace(': "\\u0000"', ": %s")
    rows = ",\n".join(map(template.__mod__, cells))
    if not rows:
        return json.dumps(document, indent=2)
    return f'{head}\n  "precincts": [\n{rows}\n  ]{tail}'


def document_json(document: Mapping) -> str:
    """The text of a :func:`build_document` document, as the ``report``
    command's :func:`report_json` writes it."""
    return json.dumps(document, indent=2)


def report_json(contest: Contest, bounds: BoundColumns,
                discrepancies: Sequence[PrecinctDiscrepancy],
                report: RiskReport, *, tool_version: str,
                input_digests: Mapping[str, str],
                pooled: Mapping[str, object] | None = None) -> str:
    """``json.dumps(build_document(contest.setup, contest.returns, ...),
    indent=2)``, its rows rendered straight from the columns: no row, no row
    dict."""
    document = build_document(contest.setup, (), contest.totals, {}, (),
                              report, tool_version=tool_version,
                              input_digests=input_digests, pooled=pooled)
    row = {"precinct_id": _SLOT, "county_id": _SLOT, "ballot_bound": _SLOT,
           "votes": dict.fromkeys(contest.setup.candidates, _SLOT),
           "bound": _SLOT, "sampled": _SLOT, "mro": _SLOT}
    mros = {d.precinct_id: _string(fraction_str(d.max_overstatement))
            for d in discrepancies}
    ids = contest.precinct_ids
    return _with_rows(document, row, zip(
        map(_string, ids), map(_string, contest.county_ids),
        contest.ballot_bounds, *contest.counts,
        map(_string, map(ratio_str, bounds.numerators, bounds.margins)),
        map(_LITERALS.__getitem__, map(mros.__contains__, ids)),
        map(mros.get, ids, repeat(_LITERALS[None]))))


def bounds_json(county_ids: Iterable[str], bounds: BoundColumns) -> str:
    """The ``bounds`` command's document, rendered as ``json.dumps(...,
    indent=2)`` renders it, from a contest's county ids and bounds.

    Every row carries ``precinct_id``, ``county_id``, ``bound`` (``"n/d"``)
    and ``bound_float``, n / m by int true division, which rounds correctly
    as ``float(Fraction(n, m))`` does; ``max_bound_float`` is the largest
    (0.0 with no rows).  Bounds are nonnegative and, with ballot bounds of
    at most 10**18, finite as floats.
    """
    nums, dens = bounds.numerators, bounds.margins
    floats = list(map(truediv, nums, dens))
    document = {"schema": SCHEMA, "precincts": [],
                "max_bound_float": max(floats, default=0.0)}
    row = dict.fromkeys(("precinct_id", "county_id", "bound", "bound_float"),
                        _SLOT)
    return _with_rows(document, row, zip(
        map(_string, bounds.precinct_ids), map(_string, county_ids),
        map(_string, map(ratio_str, nums, dens)), floats))


_KINDS = {str: "a string", int: "an integer", float: "a float",
          bool: "true or false", type(None): "null", list: "a list",
          dict: "an object"}


def _check_kind(value: object, kind: type, where: str, key: str) -> None:
    """Raise unless ``value`` has the JSON type ``kind`` (a bool is no int)."""
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, Mapping if kind is dict else kind)):
        raise ValidationError(f"{where}: {key} is {value!r}, not {_KINDS[kind]}")


def _read(part: Mapping, where: str, key: str, kind: type | None = None):
    """``part[key]`` of the object at ``where``, of JSON type ``kind``."""
    if key not in part:
        raise ValidationError(f"{where} has no field {key!r}")
    if kind is not None:
        _check_kind(part[key], kind, where, key)
    return part[key]


def _strings(part: Mapping, where: str, key: str) -> list[str]:
    values = _read(part, where, key, list)
    for index, value in enumerate(values):
        _check_kind(value, str, where, f"{key}[{index}]")
    return values


def _fraction(part: Mapping, where: str, key: str) -> Fraction:
    """``part[key]``, an ``"n/d"`` string as :func:`fraction_str` writes it."""
    text = _read(part, where, key)
    try:
        value = Fraction(text) if isinstance(text, str) else None
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or fraction_str(value) != text:
        raise ValidationError(f"{where}: {key} {text!r} is not an \"n/d\" fraction")
    return value


def _match(stored: object, rebuilt: object, where: str, key: str) -> None:
    """Raise unless the stored output equals its rebuilt value, JSON type
    for JSON type (``1``, ``1.0`` and ``true`` differ) and field for field.
    A stored value that the rebuilt document holds itself is not walked."""
    _check_kind(stored, type(rebuilt), where, key)
    if isinstance(rebuilt, dict):
        path = key if where == "document" else f"{where}.{key}"
        for name, value in rebuilt.items():
            item = _read(stored, path, name)
            if item is not value:
                _match(item, value, path, name)
        for name in stored:
            if name not in rebuilt:
                raise ValidationError(f"{path} has unexpected field {name!r}")
    elif isinstance(rebuilt, list) and len(stored) == len(rebuilt):
        for index, pair in enumerate(zip(stored, rebuilt)):
            _match(*pair, where, f"{key}[{index}]")
    elif stored != rebuilt:
        raise ValidationError(
            f"{where}: stored {key} {stored} != recomputed {rebuilt}")


def _check_pooled(pooled: Mapping, candidates: Sequence[str]) -> dict:
    """``contest.pooled``'s fields, if they could describe a pool of these
    candidates: some members, each listed once and none of them still a
    candidate, merged into ``pooled_id``, which is one."""
    members = _strings(pooled, "contest.pooled", "members")
    pooled_id = _read(pooled, "contest.pooled", "pooled_id", str)
    if not members:
        raise ValidationError("contest.pooled: members is empty")
    seen = set()
    for member in members:
        if member in candidates:
            raise ValidationError(
                f"contest.pooled: member {member!r} is still a candidate")
        if member in seen:
            raise ValidationError(
                f"contest.pooled: member {member!r} is listed twice")
        seen.add(member)
    if pooled_id not in candidates:
        raise ValidationError(
            f"contest.pooled: pooled_id {pooled_id!r} is not a candidate")
    return {"members": members, "pooled_id": pooled_id}


def verify_document(document: Mapping) -> bool:
    """Check the document by building it again from its inputs.

    The inputs, each read once with its JSON type checked, are
    ``contest.candidates``, ``votes_per_voter``, ``precinct_count`` and
    ``pooled`` (see :func:`_check_pooled`); ``tool_version`` and each
    ``inputs.<name>.sha256``; each row's ``precinct_id``, ``county_id``,
    ``ballot_bound``, ``votes``, ``sampled`` and, if sampled, ``mro``; and
    ``risk.weight`` and ``sampling``.  They go through the code that built
    the document (``prepare_contest``, ``BoundColumns``, ``assess_sample``
    and :func:`build_document`'s own), and the document must equal the one
    rebuilt, JSON type for JSON type and with no field added: each row
    under the name ``precinct <id>``, then the whole, the P-value bit for
    bit.  So ``risk.margin_threshold`` must read ``"1/1"``, as every
    document states it.

    Raises:
        ValidationError: a field is missing, unexpected or of the wrong
            type, ``contest.pooled`` names no pool of these candidates,
            ``risk.sampling.draws`` is more than the sampled rows, or an
            output differs (``"<where>: stored <field> X != recomputed
            Y"``).
        AuditError: what building the document from these inputs raises:
            a broken count rule, a tie, no sampled row, ...
    """
    if not isinstance(document, Mapping):
        raise ValidationError("document is not a JSON object")
    contest = _read(document, "document", "contest", dict)
    setup = ContestSetup(
        tuple(_strings(contest, "contest", "candidates")),
        _read(contest, "contest", "votes_per_voter", int),
        _read(contest, "contest", "precinct_count", int),
    )
    pooled = None
    if "pooled" in contest:
        pooled = _check_pooled(_read(contest, "contest", "pooled", dict),
                               setup.candidates)
    tool_version = _read(document, "document", "tool_version", str)
    inputs = _read(document, "document", "inputs", dict)
    digests = {name: _read(_read(inputs, "inputs", name, dict),
                           f"inputs.{name}", "sha256", str) for name in inputs}
    risk = _read(document, "document", "risk", dict)
    sampling = _read(risk, "risk", "sampling", dict)
    config = TestConfig(
        _read(risk, "risk", "weight", str),
        SamplingDesign(_read(sampling, "risk.sampling", "method", str),
                       _read(sampling, "risk.sampling", "draws", int)),
    )

    rows = _read(document, "document", "precincts", list)
    returns, mros = [], {}
    for index, row in enumerate(rows):
        _check_kind(row, dict, "document", f"precincts[{index}]")
        precinct_id = _read(row, f"precincts[{index}]", "precinct_id", str)
        where = f"precinct {_echo(precinct_id, str)}"
        returns.append(PrecinctReturns(
            precinct_id, _read(row, where, "county_id", str),
            _read(row, where, "ballot_bound", int),
            _read(row, where, "votes", dict),
        ))
        if _read(row, where, "sampled", bool):
            mros[precinct_id] = _fraction(row, where, "mro")

    rebuilt = prepare_contest(setup, returns)
    bounds = BoundColumns(rebuilt)
    nums, dens = bounds.numerators, bounds.margins
    # Row by row, so that no second copy of the rows is ever held.  A row
    # equal to its rebuilt one, type for type, is accepted without a walk.
    for row, built in zip(rows, _rows(returns, map(ratio_str, nums, dens),
                                      mros)):
        if row != built or [*map(type, map(row.get, built))] != [
                *map(type, built.values())]:
            _match(row, built, "document",
                   f"precinct {_echo(built['precinct_id'], str)}")
    sample = [PrecinctDiscrepancy(precinct_id, mros[precinct_id],
                                  Fraction(num, den))
              for precinct_id, num, den in zip(bounds.precinct_ids, nums, dens)
              if precinct_id in mros]
    report = assess_sample(bounds, sample, config)
    # The P-value assumes that every draw was counted by hand.
    if config.sampling.draws > len(sample):
        raise ValidationError(
            f"risk.sampling: draws {config.sampling.draws} is more than the "
            f"{len(sample)} sampled rows")
    # Then the rest, built around no rows and given the rows just matched.
    whole = build_document(setup, (), rebuilt.totals, {}, (), report,
                           tool_version=tool_version, input_digests=digests,
                           pooled=pooled)
    whole["precincts"] = rows
    _match(document, whole, "document", "document")
    return True

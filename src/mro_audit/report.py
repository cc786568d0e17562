"""Versioned JSON audit report: schema ``mro-audit/1``.

The document embeds every intermediate the risk computation used plus
SHA-256 digests of the input files, so an audit is a reproducible artifact:
:func:`verify_document` rebuilds its outputs (``schema``, ``totals``,
``winners``, ``losers``, ``pairwise_margins``, each row's ``bound`` and
``risk``) from its inputs (``contest.candidates``, ``votes_per_voter`` and
``precinct_count``; each row's ``precinct_id``, ``county_id``,
``ballot_bound``, ``votes``, ``sampled`` and ``mro``; ``risk.weight``,
``sampling`` and ``margin_threshold``) with the code that built them.
``tool_version``, ``inputs`` and ``contest.pooled`` are carried, and no
object holds a field beyond these.

Rationals are serialized as ``"numerator/denominator"`` strings (lossless);
a float rendering sits alongside wherever humans read the number.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Container, Iterable, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from math import gcd
from operator import truediv
from pathlib import Path

from .core import ContestSetup, ContestTotals, PrecinctReturns, prepare_contest
from .discrepancy import BoundColumns, PrecinctDiscrepancy
from .errors import ValidationError
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


def build_document(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    totals: ContestTotals,
    bounds: Mapping[str, Fraction] | BoundColumns,
    discrepancies: Sequence[PrecinctDiscrepancy],
    report: RiskReport,
    *,
    tool_version: str,
    input_digests: Mapping[str, str],
    pooled: Mapping[str, object] | None = None,
) -> dict:
    """Assemble the full report document; a ``BoundColumns`` is rendered
    from its int columns, with no `Fraction` per precinct."""
    by_id = {d.precinct_id: d for d in discrepancies}
    if isinstance(bounds, BoundColumns):
        ratios = map(ratio_str, bounds.numerators, bounds.margins)
    else:
        ratios = map(fraction_str, bounds.values())
    texts = dict(zip(bounds, ratios))
    precinct_rows = []
    for ret in returns:
        disc = by_id.get(ret.precinct_id)
        precinct_rows.append(
            {
                "precinct_id": ret.precinct_id,
                "county_id": ret.county_id,
                "ballot_bound": ret.ballot_bound,
                "votes": dict(ret.machine_votes),
                "bound": texts[ret.precinct_id],
                "sampled": disc is not None,
                "mro": fraction_str(disc.max_overstatement)
                if disc is not None else None,
            }
        )
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
        "precincts": precinct_rows,
        "risk": risk_block(report),
    }
    if pooled is not None:
        document["contest"]["pooled"] = dict(pooled)
    return document


# The per-precinct rows are the bulk of ``report`` and ``bounds`` output, and
# ``json.dumps`` uses its C encoder only without ``indent``.  So each list of
# rows is rendered from one ``%``-style row template, laid out as
# ``json.dumps(..., indent=2)`` lays out a row two levels deep, and each slot
# is filled with the primitive ``json.dumps`` itself uses: the C string
# escaper, ``%d`` for ints and ``%r`` (``float.__repr__``) for floats.
# The small parts around the rows still go through ``json.dumps``.

def _report_row_template(candidates: tuple[str, ...]) -> str:
    """The template of a ``report`` row whose votes have these keys."""
    # A "%" in a candidate name is doubled so that it is not read as a slot.
    votes = ",\n".join(
        f"        {_string(c).replace('%', '%%')}: %d" for c in candidates
    )
    return (
        '    {\n'
        '      "precinct_id": %s,\n'
        '      "county_id": %s,\n'
        '      "ballot_bound": %d,\n'
        '      "votes": {\n' + votes + '\n      },\n'
        '      "bound": %s,\n'
        '      "sampled": %s,\n'
        '      "mro": %s\n'
        '    }'
    )


_BOUNDS_ROW = (
    '    {\n'
    '      "precinct_id": %s,\n'
    '      "county_id": %s,\n'
    # The "n/d" string: its digits, sign and slash need no escaping.
    '      "bound": "%s",\n'
    '      "bound_float": %r\n'
    '    }'
)


def _rows_json(rows: list[str]) -> str:
    """A top-level member's list of rendered rows."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def _nested_json(value: object) -> str:
    """``json.dumps(value, indent=2)`` re-indented to sit one level deep.

    Exact because an escaped JSON string holds no raw newline.
    """
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _object_json(members: Iterable[tuple[str, str]]) -> str:
    """A top-level object from ``(key, rendered value)`` pairs."""
    return "{\n" + ",\n".join(
        f"  {_string(key)}: {text}" for key, text in members
    ) + "\n}"


def _report_rows_json(rows: Sequence[Mapping]) -> str:
    templates: dict[tuple[str, ...], str] = {}
    rendered = []
    for row in rows:
        votes = row["votes"]
        keys = tuple(votes)
        template = templates.get(keys)
        if template is None:
            template = templates[keys] = _report_row_template(keys)
        mro = row["mro"]
        rendered.append(template % (
            _string(row["precinct_id"]), _string(row["county_id"]),
            row["ballot_bound"], *votes.values(), _string(row["bound"]),
            "true" if row["sampled"] else "false",
            "null" if mro is None else _string(mro),
        ))
    return _rows_json(rendered)


def document_json(document: Mapping) -> str:
    """``json.dumps(document, indent=2)`` for a document of
    :func:`build_document`'s shape, with its rows rendered from templates."""
    return _object_json(
        (key, _report_rows_json(value) if key == "precincts"
         else _nested_json(value))
        for key, value in document.items()
    )


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
    rendered = list(map(_BOUNDS_ROW.__mod__, zip(
        map(_string, bounds), map(_string, county_ids),
        map(ratio_str, nums, dens), floats)))
    return _object_json((
        ("schema", _string(SCHEMA)),
        ("precincts", _rows_json(rendered)),
        ("max_bound_float", repr(max(floats, default=0.0))),
    ))


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


def _no_extra(part: Mapping, where: str, names: Container[str]) -> None:
    """Raise if the object at ``where`` has a field not among ``names``."""
    for name in part:
        if name not in names:
            raise ValidationError(f"{where} has unexpected field {name!r}")


def _match(stored: object, rebuilt: object, where: str, key: str) -> None:
    """Raise unless the stored output equals its rebuilt value, JSON type
    for JSON type (``1``, ``1.0`` and ``true`` differ) and field for field."""
    _check_kind(stored, type(rebuilt), where, key)
    if isinstance(rebuilt, dict):
        path = key if where == "document" else f"{where}.{key}"
        for name, value in rebuilt.items():
            _match(_read(stored, path, name), value, path, name)
        _no_extra(stored, path, rebuilt)
    elif isinstance(rebuilt, list) and len(stored) == len(rebuilt):
        for index, pair in enumerate(zip(stored, rebuilt)):
            _match(*pair, where, f"{key}[{index}]")
    elif stored != rebuilt:
        raise ValidationError(
            f"{where}: stored {key} {stored} != recomputed {rebuilt}")


_DOCUMENT_FIELDS = ("schema", "tool_version", "inputs", "contest", "totals",
                    "winners", "losers", "pairwise_margins", "precincts",
                    "risk")
_CONTEST_FIELDS = ("candidates", "votes_per_voter", "precinct_count", "pooled")
_ROW_FIELDS = ("precinct_id", "county_id", "ballot_bound", "votes", "bound",
               "sampled", "mro")


def _check_pooled(pooled: Mapping, candidates: Sequence[str]) -> None:
    """Raise unless ``contest.pooled`` could describe a pool of these
    candidates: some members, none of them still a candidate, merged into
    ``pooled_id``, which is one."""
    _no_extra(pooled, "contest.pooled", ("members", "pooled_id"))
    members = _strings(pooled, "contest.pooled", "members")
    pooled_id = _read(pooled, "contest.pooled", "pooled_id", str)
    if not members:
        raise ValidationError("contest.pooled: members is empty")
    for member in members:
        if member in candidates:
            raise ValidationError(
                f"contest.pooled: member {member!r} is still a candidate")
    if pooled_id not in candidates:
        raise ValidationError(
            f"contest.pooled: pooled_id {pooled_id!r} is not a candidate")


def verify_document(document: Mapping) -> bool:
    """Check the document by rebuilding it from its inputs.

    The inputs, each read once with its JSON type checked, are
    ``contest.candidates``, ``votes_per_voter`` and ``precinct_count``;
    each row's ``precinct_id``, ``county_id``, ``ballot_bound``, ``votes``,
    ``sampled`` and ``mro`` (``null`` unless sampled); and ``risk.weight``,
    ``sampling`` and ``margin_threshold``.  They go through the code that
    built the document (``prepare_contest``, :func:`outcome_block`,
    ``BoundColumns``, ``assess_sample`` and :func:`risk_block`), and each
    output must equal its rebuilt value, JSON type and all: ``schema``,
    ``totals``, ``winners``, ``losers``, ``pairwise_margins``, each row's
    ``bound`` and the whole ``risk`` block, P-value bit for bit.
    ``tool_version`` and ``inputs`` are carried, with only their types
    checked; ``contest.pooled`` is carried and checked against the
    candidates (see :func:`_check_pooled`).  No object may hold a field
    beyond these.

    Raises:
        ValidationError: a field is missing, unexpected or of the wrong
            type, ``contest.pooled`` names no pool of these candidates, or
            an output differs (``"<where>: stored <field> X != recomputed
            Y"``).
        AuditError: what building the document from these inputs raises:
            a broken count rule, a tie, no sampled row, ...
    """
    if not isinstance(document, Mapping):
        raise ValidationError("document is not a JSON object")
    _no_extra(document, "document", _DOCUMENT_FIELDS)
    contest = _read(document, "document", "contest", dict)
    _no_extra(contest, "contest", _CONTEST_FIELDS)
    setup = ContestSetup(
        tuple(_strings(contest, "contest", "candidates")),
        _read(contest, "contest", "votes_per_voter", int),
        _read(contest, "contest", "precinct_count", int),
    )
    if "pooled" in contest:
        _check_pooled(_read(contest, "contest", "pooled", dict),
                      setup.candidates)
    _read(document, "document", "tool_version", str)
    inputs = _read(document, "document", "inputs", dict)
    for name in inputs:
        entry = _read(inputs, "inputs", name, dict)
        _no_extra(entry, f"inputs.{name}", ("sha256",))
        _read(entry, f"inputs.{name}", "sha256", str)
    risk = _read(document, "document", "risk", dict)
    sampling = _read(risk, "risk", "sampling", dict)
    config = TestConfig(
        _read(risk, "risk", "weight", str),
        SamplingDesign(_read(sampling, "risk.sampling", "method", str),
                       _read(sampling, "risk.sampling", "draws", int)),
        _fraction(risk, "risk", "margin_threshold"),
    )

    rows = _read(document, "document", "precincts", list)
    returns, mros = [], {}
    for index, row in enumerate(rows):
        _check_kind(row, dict, "document", f"precincts[{index}]")
        precinct_id = _read(row, f"precincts[{index}]", "precinct_id", str)
        where = f"precinct {precinct_id}"
        if len(row) > len(_ROW_FIELDS):
            _no_extra(row, where, _ROW_FIELDS)
        returns.append(PrecinctReturns(
            precinct_id, _read(row, where, "county_id", str),
            _read(row, where, "ballot_bound", int),
            _read(row, where, "votes", dict),
        ))
        if _read(row, where, "sampled", bool):
            mros[precinct_id] = _fraction(row, where, "mro")
        else:
            _match(_read(row, where, "mro"), None, where, "mro")

    rebuilt = prepare_contest(setup, returns)
    for key, value in {"schema": SCHEMA,
                       **outcome_block(rebuilt.totals)}.items():
        _match(_read(document, "document", key), value, "document", key)
    bounds = BoundColumns(rebuilt)
    sample = []
    for row, precinct_id, num, den in zip(rows, bounds, bounds.numerators,
                                          bounds.margins):
        where = f"precinct {precinct_id}"
        _match(_read(row, where, "bound"), ratio_str(num, den), where, "bound")
        if precinct_id in mros:
            sample.append(PrecinctDiscrepancy(
                precinct_id, mros[precinct_id], Fraction(num, den)))
    _match(risk, risk_block(assess_sample(bounds, sample, config)),
           "document", "risk")
    return True

"""Versioned JSON audit report: schema ``mro-audit/1``.

The document embeds every intermediate the risk computation used plus
SHA-256 digests of the input files, so an audit is a reproducible artifact:
:func:`verify_document` rebuilds its outputs (``schema``, ``totals``,
``winners``, ``losers``, ``pairwise_margins``, each row's ``bound`` and
``risk``) from its inputs (``contest.candidates``, ``votes_per_voter`` and
``precinct_count``; each row's ``precinct_id``, ``county_id``,
``ballot_bound``, ``votes``, ``sampled`` and ``mro``; ``risk.weight``,
``sampling`` and ``margin_threshold``) with the code that built them.
``tool_version``, ``inputs`` and ``contest.pooled`` are carried.

Rationals are serialized as ``"numerator/denominator"`` strings (lossless);
a float rendering sits alongside wherever humans read the number.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .core import ContestSetup, ContestTotals, PrecinctReturns, prepare_contest
from .discrepancy import PrecinctDiscrepancy, precinct_bound
from .errors import ValidationError
from .risk import (
    RiskReport,
    SamplingDesign,
    TestConfig,
    WeightFunction,
    assess_sample,
)

SCHEMA = "mro-audit/1"


def fraction_str(value: Fraction | int) -> str:
    return f"{value.numerator}/{value.denominator}"


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
        "effective_n": report.effective_n,
        "p_value": report.p_value,
        "p_value_percent": percent(report.p_value),
        "weight": report.config.weight.kind,
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
    bounds: Mapping[str, Fraction],
    discrepancies: Sequence[PrecinctDiscrepancy],
    report: RiskReport,
    *,
    tool_version: str,
    input_digests: Mapping[str, str],
    pooled: Mapping[str, object] | None = None,
) -> dict:
    """Assemble the full report document."""
    by_id = {d.precinct_id: d for d in discrepancies}
    precinct_rows = []
    for ret in returns:
        disc = by_id.get(ret.precinct_id)
        precinct_rows.append(
            {
                "precinct_id": ret.precinct_id,
                "county_id": ret.county_id,
                "ballot_bound": ret.ballot_bound,
                "votes": dict(ret.machine_votes),
                "bound": fraction_str(bounds[ret.precinct_id]),
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
    '      "bound": "%d/%d",\n'
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


def bounds_json(returns: Iterable[PrecinctReturns],
                bounds: Iterable[Fraction]) -> str:
    """The ``bounds`` command's document, rendered as ``json.dumps(...,
    indent=2)`` renders it, from each precinct's returns and a priori bound.

    Every row carries ``precinct_id``, ``county_id``, ``bound`` (``"n/d"``)
    and ``bound_float``; ``max_bound_float`` is the largest ``bound_float``
    (0.0 with no rows), taken in the same pass.  Bounds are nonnegative and,
    with ballot bounds of at most 10**18, finite as floats.
    """
    rendered = []
    largest = 0.0
    for ret, bound in zip(returns, bounds):
        value = float(bound)
        if value > largest:
            largest = value
        rendered.append(_BOUNDS_ROW % (
            _string(ret.precinct_id), _string(ret.county_id),
            bound.numerator, bound.denominator, value,
        ))
    return _object_json((
        ("schema", _string(SCHEMA)),
        ("precincts", _rows_json(rendered)),
        ("max_bound_float", repr(largest)),
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


def _match(stored: object, rebuilt: object, where: str, key: str) -> None:
    """Raise unless the stored output equals its rebuilt value, JSON type
    for JSON type (``1``, ``1.0`` and ``true`` differ) and field for field."""
    _check_kind(stored, type(rebuilt), where, key)
    if isinstance(rebuilt, dict):
        path = key if where == "document" else f"{where}.{key}"
        for name, value in rebuilt.items():
            _match(_read(stored, path, name), value, path, name)
        for name in stored:
            if name not in rebuilt:
                raise ValidationError(f"{path} has unexpected field {name!r}")
    elif isinstance(rebuilt, list) and len(stored) == len(rebuilt):
        for index, pair in enumerate(zip(stored, rebuilt)):
            _match(*pair, where, f"{key}[{index}]")
    elif stored != rebuilt:
        raise ValidationError(
            f"{where}: stored {key} {stored} != recomputed {rebuilt}")


def verify_document(document: Mapping) -> bool:
    """Check the document by rebuilding it from its inputs.

    The inputs, each read once with its JSON type checked, are
    ``contest.candidates``, ``votes_per_voter`` and ``precinct_count``;
    each row's ``precinct_id``, ``county_id``, ``ballot_bound``, ``votes``,
    ``sampled`` and ``mro`` (``null`` unless sampled); and ``risk.weight``,
    ``sampling`` and ``margin_threshold``.  They go through the code that
    built the document (``prepare_contest``, :func:`outcome_block`,
    ``precinct_bound``, ``assess_sample`` and :func:`risk_block`), and each
    output must equal its rebuilt value, JSON type and all: ``schema``,
    ``totals``, ``winners``, ``losers``, ``pairwise_margins``, each row's
    ``bound`` and the whole ``risk`` block, P-value bit for bit.
    ``tool_version``, ``inputs`` and ``contest.pooled`` are carried, with
    only their types checked.

    Raises:
        ValidationError: a field is missing or of the wrong type, or an
            output differs (``"<where>: stored <field> X != recomputed Y"``).
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
    if "pooled" in contest:
        pooled = _read(contest, "contest", "pooled", dict)
        _strings(pooled, "contest.pooled", "members")
        _read(pooled, "contest.pooled", "pooled_id", str)
    _read(document, "document", "tool_version", str)
    inputs = _read(document, "document", "inputs", dict)
    for name in inputs:
        _read(_read(inputs, "inputs", name, dict), f"inputs.{name}",
              "sha256", str)
    risk = _read(document, "document", "risk", dict)
    sampling = _read(risk, "risk", "sampling", dict)
    config = TestConfig(
        WeightFunction(_read(risk, "risk", "weight", str)),
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
        returns.append(PrecinctReturns(
            precinct_id, _read(row, where, "county_id", str),
            _read(row, where, "ballot_bound", int),
            _read(row, where, "votes", dict),
        ))
        if _read(row, where, "sampled", bool):
            mros[precinct_id] = _fraction(row, where, "mro")
        else:
            _match(_read(row, where, "mro"), None, where, "mro")

    totals = prepare_contest(setup, returns).totals
    for key, value in {"schema": SCHEMA, **outcome_block(totals)}.items():
        _match(_read(document, "document", key), value, "document", key)
    bounds, sample = [], []
    for row, ret in zip(rows, returns):
        bound = precinct_bound(ret, totals.pairwise_margins)
        where = f"precinct {ret.precinct_id}"
        _match(_read(row, where, "bound"), fraction_str(bound), where, "bound")
        bounds.append(bound)
        if ret.precinct_id in mros:
            sample.append(PrecinctDiscrepancy(
                ret.precinct_id, mros[ret.precinct_id], bound))
    _match(risk, risk_block(assess_sample(bounds, sample, config)),
           "document", "risk")
    return True

"""Versioned JSON audit report: schema ``mro-audit/1``.

The document embeds every intermediate the risk computation used plus
SHA-256 digests of the input files, so an audit is a reproducible artifact:
re-loading the document and re-deriving the P-value from its own fields must
give the stored float back bit for bit.

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

from .core import (
    ContestSetup,
    ContestTotals,
    PrecinctReturns,
    _check_vote_map,
    tabulate,
)
from .discrepancy import PrecinctDiscrepancy, precinct_bound
from .errors import CandidateMismatch, ValidationError
from .risk import (
    RiskReport,
    SamplingDesign,
    WeightFunction,
    p_value,
    taint_count,
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
        "totals": dict(totals.totals),
        "winners": list(totals.winners),
        "losers": list(totals.losers),
        "pairwise_margins": [
            {"winner": w, "loser": l, "margin": margin}
            for (w, l), margin in totals.pairwise_margins.items()
        ],
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


def _fields(part: object, where: str, *keys: str) -> list:
    """The values of ``keys`` in the document object at ``where``."""
    if not isinstance(part, Mapping):
        raise ValidationError(f"{where} is not a JSON object")
    for key in keys:
        if key not in part:
            raise ValidationError(f"{where} has no field {key!r}")
    return [part[key] for key in keys]


def _stored_fraction(text: object, where: str) -> Fraction:
    """A stored ``"n/d"`` string, in lowest terms as :func:`fraction_str`
    writes it."""
    if isinstance(text, str):
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if fraction_str(value) == text:
                return value
    raise ValidationError(f"{where} {text!r} is not an \"n/d\" fraction")


def verify_document(document: Mapping) -> bool:
    """Re-derive the P-value and tabulation facts from the document itself.

    Every row's ``votes`` must cover exactly the contest's candidates and
    obey the count rules of :mod:`mro_audit.core` with its
    ``ballot_bound``; the totals and margins are tabulated from them.  The
    observed statistic is re-derived from the sampled rows' ``mro`` and
    ``bound`` under the stored weight, each row's ``bound`` from its votes,
    its ballot bound and the stored margins, and the taint count (and
    whether the null is infeasible) from those bounds, that statistic and
    the stored margin threshold; the P-value from the stored count.

    Raises:
        ValidationError: any stored number disagrees with its recomputation,
            including a P-value that does not match bit for bit; a row
            breaks a count rule; a field is missing; a fraction is not an
            ``"n/d"`` string; or a row's ``sampled`` is not a boolean.
        CandidateMismatch: a row's votes, or a winner/loser pair, name
            other candidates than the contest's.
        ZeroBoundWithTaintWeight: a sampled row's stored bound is zero
            under the taint weight.
        EmptyPairSet: the document lists no winner/loser pairs.
    """
    contest, stored_totals, pair_entries, rows, risk = _fields(
        document, "document",
        "contest", "totals", "pairwise_margins", "precincts", "risk",
    )
    (sampling, stored_p, stored_count, population, sample_size, weight_kind,
     stored_statistic, threshold, stored_infeasible) = _fields(
        risk, "risk", "sampling", "p_value", "taint_count", "population_size",
        "sample_size", "weight", "observed_statistic", "margin_threshold",
        "null_infeasible",
    )
    design = SamplingDesign(*_fields(sampling, "risk.sampling",
                                     "method", "draws"))
    recomputed = p_value(stored_count, population, design)
    if recomputed != stored_p:
        raise ValidationError(
            f"stored p_value {stored_p!r} != recomputed {recomputed!r}"
        )
    setup = ContestSetup(*_fields(contest, "contest", "candidates",
                                  "votes_per_voter", "precinct_count"))
    sampled = []
    for index, row in enumerate(rows):
        precinct_id, _, ballot_bound, votes, _, is_sampled, _ = _fields(
            row, f"precincts[{index}]", "precinct_id", "county_id",
            "ballot_bound", "votes", "bound", "sampled", "mro",
        )
        where = f"precinct {precinct_id}"
        _check_vote_map(setup, votes, ballot_bound, where)
        if not isinstance(is_sampled, bool):
            raise ValidationError(
                f"{where}: sampled is {is_sampled!r}, not true or false"
            )
        if is_sampled:
            sampled.append(row)
    totals = tabulate(setup.candidates, [row["votes"] for row in rows])
    if totals != stored_totals:
        raise ValidationError("per-precinct votes do not add up to the totals")
    margins = {}
    for index, entry in enumerate(pair_entries):
        where = f"pairwise_margins[{index}]"
        winner, loser, stored_margin = _fields(entry, where, "winner",
                                               "loser", "margin")
        for name in (winner, loser):
            if name not in totals:
                raise CandidateMismatch(
                    f"{where} names {name!r}, not a candidate of the contest"
                )
        margins[winner, loser] = margin = totals[winner] - totals[loser]
        if margin != stored_margin:
            raise ValidationError(
                f"margin for ({winner}, {loser}) is {stored_margin}, "
                f"recomputed {margin}"
            )
    if len(sampled) != sample_size:
        raise ValidationError(
            f"{len(sampled)} precincts flagged sampled but sample_size is "
            f"{sample_size}"
        )
    if not sampled:
        raise ValidationError("no precinct is flagged sampled")
    if len(rows) != population:
        raise ValidationError(
            f"{len(rows)} precinct rows but population_size is {population}"
        )
    weight = WeightFunction(weight_kind)
    statistic = max(
        weight.apply(*(
            _stored_fraction(row[key], f"precinct {row['precinct_id']}: {key}")
            for key in ("mro", "bound")
        ))
        for row in sampled
    )
    if fraction_str(statistic) != stored_statistic:
        raise ValidationError(
            f"stored observed_statistic {stored_statistic} != "
            f"recomputed {fraction_str(statistic)}"
        )
    bounds = []
    for row in rows:
        bound = precinct_bound(
            PrecinctReturns(row["precinct_id"], row["county_id"],
                            row["ballot_bound"], row["votes"]),
            margins,
        )
        if fraction_str(bound) != row["bound"]:
            raise ValidationError(
                f"precinct {row['precinct_id']}: stored bound {row['bound']} "
                f"!= recomputed {fraction_str(bound)}"
            )
        bounds.append(bound)
    raw_count = taint_count(
        bounds, statistic, weight,
        _stored_fraction(threshold, "risk.margin_threshold"),
    )
    count = min(raw_count, len(rows))
    infeasible = raw_count > len(rows)
    if (count, infeasible) != (stored_count, stored_infeasible):
        raise ValidationError(
            f"stored taint_count {stored_count} (null_infeasible "
            f"{stored_infeasible}) != recomputed {count} ({infeasible})"
        )
    return True

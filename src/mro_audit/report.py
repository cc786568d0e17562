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
from collections.abc import Mapping, Sequence
from fractions import Fraction
from pathlib import Path

from .core import ContestSetup, ContestTotals, PrecinctReturns
from .discrepancy import PrecinctDiscrepancy
from .errors import ValidationError
from .risk import RiskReport, SamplingDesign, p_value

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


def document_json(document: Mapping) -> str:
    return json.dumps(document, indent=2)


def verify_document(document: Mapping) -> bool:
    """Re-derive the P-value and tabulation facts from the document itself.

    Raises:
        ValidationError: any stored number disagrees with its recomputation,
            including a P-value that does not match bit for bit.
    """
    risk = document["risk"]
    design = SamplingDesign(
        method=risk["sampling"]["method"], draws=risk["sampling"]["draws"]
    )
    recomputed = p_value(risk["taint_count"], risk["population_size"], design)
    if recomputed != risk["p_value"]:
        raise ValidationError(
            f"stored p_value {risk['p_value']!r} != recomputed {recomputed!r}"
        )
    totals = {candidate: 0 for candidate in document["contest"]["candidates"]}
    for row in document["precincts"]:
        for candidate, count in row["votes"].items():
            totals[candidate] += count
    if totals != document["totals"]:
        raise ValidationError("per-precinct votes do not add up to the totals")
    for entry in document["pairwise_margins"]:
        margin = totals[entry["winner"]] - totals[entry["loser"]]
        if margin != entry["margin"]:
            raise ValidationError(
                f"margin for ({entry['winner']}, {entry['loser']}) is "
                f"{entry['margin']}, recomputed {margin}"
            )
    sampled = sum(1 for row in document["precincts"] if row["sampled"])
    if sampled != risk["sample_size"]:
        raise ValidationError(
            f"{sampled} precincts flagged sampled but sample_size is "
            f"{risk['sample_size']}"
        )
    return True

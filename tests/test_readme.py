"""The README's ``## Library`` example runs as written on the docs example,
and the report of its results verifies."""

import json
import re
import shutil
from pathlib import Path

from mro_audit import __version__
from mro_audit.core import pool_audit_records, pool_candidates
from mro_audit.io import load_audits, load_returns
from mro_audit.report import file_digest, report_json, verify_document
from mro_audit.risk import IDENTITY, SamplingDesign, TestConfig, run_test

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first Python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example(tmp_path, monkeypatch, capsys, docs_returns_path,
                         docs_audits_path):
    shutil.copy(docs_returns_path, tmp_path / "returns.csv")
    shutil.copy(docs_audits_path, tmp_path / "audits.csv")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(library_example(), str(README), "exec"), names)

    setup, returns = pool_candidates(*load_returns(docs_returns_path),
                                     ["Gamma"], "Minor")
    audits = pool_audit_records(load_audits(docs_audits_path), ["Gamma"], "Minor")
    config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 2))
    report = run_test(setup, returns, audits, config)
    assert names["report"] == report
    assert list(names["bounds"].precinct_ids) == [r.precinct_id for r in returns]
    assert [d.precinct_id for d in names["discrepancies"]] == ["P-102", "P-104"]
    assert capsys.readouterr().out == (
        f"{names['contest'].totals.pairwise_margins} "
        f"{report.taint_count} {report.p_value}\n"
    )
    document = json.loads(report_json(
        names["contest"], names["bounds"], names["discrepancies"], report,
        tool_version=__version__,
        input_digests={"returns": file_digest(docs_returns_path),
                       "audits": file_digest(docs_audits_path)},
        pooled={"members": ["Gamma"], "pooled_id": "Minor"}))
    assert verify_document(document)

"""Selector artifacts, their evaluation reports and the ``/select``
bodies of a served artifact must reproduce the committed golden byte
for byte."""

from pathlib import Path

from repro.ml import FormatSelector

from tests.golden.artifacts import (
    REPORTS_PATH, SELECT_PATH, SHA_PATH, artifact_names, build_all,
    golden_table, selector_artifacts, selector_reports,
)
from tests.golden.golden import sha256


def _committed_shas():
    return dict(
        reversed(line.split("  ", 1))
        for line in SHA_PATH.read_text().splitlines()
    )


def test_committed_files_match_their_digests():
    shas = _committed_shas()
    assert shas[REPORTS_PATH.name] == sha256(REPORTS_PATH.read_bytes())
    assert shas[SELECT_PATH.name] == sha256(SELECT_PATH.read_bytes())


def test_selector_artifacts_match_golden(tmp_path):
    shas, reports, bodies = build_all(tmp_path)
    want = _committed_shas()
    got = dict(reversed(line.split("  ", 1))
               for line in shas.splitlines())
    drifted = [name for name in want if got.get(name) != want[name]]
    assert not drifted, f"selector golden drifted: {drifted}"
    assert reports == REPORTS_PATH.read_bytes()
    assert bodies == SELECT_PATH.read_bytes()


def test_dict_row_reports_match_golden(tmp_path):
    table = golden_table()
    artifacts = selector_artifacts(table, tmp_path)
    assert (selector_reports(table, artifacts, rows=True)
            == REPORTS_PATH.read_bytes())


def test_reloaded_artifacts_resave_identically(tmp_path):
    artifacts = selector_artifacts(golden_table(), tmp_path)
    for name in artifact_names():
        path = Path(artifacts[name])
        again = tmp_path / "again.npz"
        FormatSelector.from_npz(path).to_npz(again)
        assert again.read_bytes() == path.read_bytes(), name

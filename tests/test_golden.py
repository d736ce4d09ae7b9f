"""``--deterministic survey`` of the default catalog and of a manifest of
larger graphs, byte for byte against recorded reports.  A refactor must leave them unchanged; regenerate the files
only for a deliberate change to the report."""

import io
from pathlib import Path

import pytest

from equiarbor.cli import ENV_CATALOG, run_command

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["--format", "json"], "survey.json"),
    (["--format", "text"], "survey.txt"),
    (["--format", "json", "--enumeration-limit", "8"], "survey.json"),
])
def test_deterministic_survey_matches_golden_file(monkeypatch, argv, golden):
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    out = io.StringIO()
    assert run_command(argv + ["--deterministic", "survey"], out, io.StringIO()) == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_stress_survey_matches_golden_file():
    # Q5, J(7,3), J(6,3), H(3,3), K30, C30 and H(2,5): the largest
    # Laplacian determinants in the test suite.
    out = io.StringIO()
    argv = ["--format", "json", "--deterministic", "survey",
            str(GOLDEN / "stress_manifest.json")]
    assert run_command(argv, out, io.StringIO()) == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / "stress_survey.json").read_bytes()

"""``--deterministic survey`` of the default catalog and of a manifest of
larger graphs, and ``verify claims`` over two degree ranges, byte for byte
against recorded output.  A refactor must leave them unchanged; regenerate
the files only for a deliberate change to the output."""

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


@pytest.mark.parametrize("argv,stem,suffix", [
    (["verify", "claims", "--k-range", "3..130"], "verify_claims_3_130", "json"),
    (["--format", "text", "verify", "claims", "--k-range", "3..130"],
     "verify_claims_3_130", "txt"),
    (["verify", "claims"], "verify_claims_7_40", "json"),
])
def test_verify_claims_matches_golden_files(argv, stem, suffix):
    # Recorded from the pair-by-pair grid walk; the algebraic certificate
    # must print the same bytes on both streams and exit 0.
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, out, err) == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{stem}.{suffix}").read_bytes()
    assert err.getvalue().encode("utf-8") == (GOLDEN / f"{stem}.stderr").read_bytes()

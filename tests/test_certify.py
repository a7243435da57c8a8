"""The reproduction certificate: every verdict as declared, every figure
covered, and EXPERIMENTS.md in step with it."""

from pathlib import Path

import pytest

from repro.experiments import certify

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
BEGIN = "<!-- certify:begin -->"
END = "<!-- certify:end -->"


class TestCertificate:
    @pytest.fixture(scope="class")
    def verdicts(self):
        return certify.run()

    def test_every_figure_covered(self, verdicts):
        figures = {v.claim.source.replace("Fig. ", "").rstrip("ab")
                   for v in verdicts if v.claim.source.startswith("Fig. ")}
        assert figures == {"1", "2", "3", "4", "5", "12", "13", "14", "15",
                           "16", "17"}

    def test_every_verdict_matches_its_declaration(self, verdicts):
        """A reproduced claim that fails and a "not reproduced" claim
        that starts passing both fail here."""
        changed = [v.describe() for v in verdicts if not v.as_declared]
        assert not changed, changed

    def test_format_reports_score(self, verdicts):
        text = certify.format_table(verdicts)
        assert f"{len(verdicts)}/{len(verdicts)} verdicts as declared" in text

    def test_experiments_md_carries_the_certificate(self, verdicts):
        text = EXPERIMENTS_MD.read_text()
        block = text.split(BEGIN)[1].split(END)[0].strip("\n")
        assert block == certify.format_table(verdicts), (
            "EXPERIMENTS.md drifted from the certificate: paste the output "
            "of `python -m repro.experiments.certify` between the markers"
        )

"""The reproduction certificate: every verdict as declared, every figure
covered, and EXPERIMENTS.md in step with it."""

from pathlib import Path

import pytest

from repro.experiments import certify, ext_synth, registry
from repro.experiments.registry import EXPERIMENTS

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


class TestEveryExperimentClaims:
    """No experiment prints a table that nothing checks, and no claim
    holds on an empty selection."""

    def test_every_experiment_has_a_claim(self):
        unclaimed = [n for n, e in EXPERIMENTS.items() if not e.claims]
        assert not unclaimed, unclaimed

    @pytest.mark.parametrize(
        "name", ["ext_plans", "ext_recovery", "ext_synth"]
    )
    def test_a_claim_on_no_rows_raises(self, name):
        """So each claim's selection is non-empty on the default run:
        :meth:`TestCertificate.verdicts` would raise otherwise, whatever
        the declared verdict."""
        for claim in EXPERIMENTS[name].claims:
            with pytest.raises(ValueError, match="selects no rows"):
                claim.check([])

    def test_every_synth_topology_is_assigned_one_claim(self):
        stock = set(registry._SYNTH_STOCK)
        degraded = set(registry._SYNTH_DEGRADED)
        assert not stock & degraded
        names = [t.name for t in ext_synth.default_topologies()]
        assert sorted(names) == sorted(stock | degraded)

"""Tests for the equivalence deep probe."""

from __future__ import annotations

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.core.errors import MutationError
from repro.generator.driver import DriverGenerator
from repro.harness.oracles import experiment_oracle
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.equivalence import probe_equivalence
from repro.mutation.generate import generate_mutants
from repro.mutation.triage import MutantTriage, StaticTriage, TriageStatus


#: Keep probes cheap in unit tests: a capped probe model and few survivors.
PROBE_OPTIONS = dict(max_transactions=30, extra_variants=0)


@pytest.fixture(scope="module")
def survivors():
    """Survivors of a deliberately small suite over Sort1 mutants (capped)."""
    mutants, _ = generate_mutants(
        CSortableObList, ["Sort1"], type_model=OBLIST_TYPE_MODEL
    )
    suite = DriverGenerator(CSortableObList.__tspec__).generate()
    from dataclasses import replace
    tiny = replace(suite, cases=suite.cases[:40])
    run = MutationAnalysis(
        CSortableObList, tiny, oracle=experiment_oracle(CSortableObList.__tspec__)
    ).analyze(mutants)
    alive_idents = {o.mutant.ident for o in run.outcomes if not o.killed}
    return [m for m in mutants if m.ident in alive_idents][:12]


class TestProbe:
    def test_partitions_survivors(self, survivors):
        assert survivors, "the tiny suite must leave survivors"
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            **PROBE_OPTIONS,
        )
        classified = set(report.likely_equivalent) | set(report.escaped)
        assert classified == {m.ident for m in survivors}
        assert not (set(report.likely_equivalent) & set(report.escaped))

    def test_probe_finds_escapes(self, survivors):
        # A weak main suite leaves revealable mutants; the one stronger
        # probe suite must kill at least one of them, and without
        # overrides the escapes are exactly its kills.
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            **PROBE_OPTIONS,
        )
        assert report.escaped
        assert set(report.escaped) == set(report.probe_kill_reasons)

    def test_one_suite_per_probe(self, survivors, monkeypatch):
        built = []
        real_generate = DriverGenerator.generate

        def spy_generate(generator, *args, **kwargs):
            suite = real_generate(generator, *args, **kwargs)
            built.append(len(suite))
            return suite

        monkeypatch.setattr(DriverGenerator, "generate", spy_generate)
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            **PROBE_OPTIONS,
        )
        # The survivor the suite cannot kill gets no second suite.
        assert report.likely_equivalent
        assert built == [report.probe_suite_size]
        assert report.probe_suite_size > 0

        # Nothing left to probe: no suite at all.
        built.clear()
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            manual_equivalent=[m.ident for m in survivors], **PROBE_OPTIONS,
        )
        assert built == []
        assert report.probe_suite_size == 0

    def test_manual_overrides(self, survivors):
        target = survivors[0].ident
        forced_equivalent = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            manual_equivalent=[target], **PROBE_OPTIONS,
        )
        assert target in forced_equivalent.likely_equivalent

        forced_not = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            manual_not_equivalent=[target], **PROBE_OPTIONS,
        )
        assert target in forced_not.escaped
        assert target not in forced_not.likely_equivalent

    def test_unknown_manual_ident_rejected(self, survivors):
        with pytest.raises(MutationError, match="M9999"):
            probe_equivalence(
                CSortableObList, CSortableObList.__tspec__, survivors,
                manual_equivalent=["M9999"], **PROBE_OPTIONS,
            )
        with pytest.raises(MutationError, match="not in the survivor set"):
            probe_equivalence(
                CSortableObList, CSortableObList.__tspec__, survivors,
                manual_not_equivalent=["TYPO1"], **PROBE_OPTIONS,
            )

    @pytest.mark.parametrize("triage", [
        None, StaticTriage(class_name="CSortableObList"),
    ], ids=["untriaged", "empty-triage"])
    def test_ident_in_both_override_lists_rejected(self, survivors, triage):
        target = survivors[0].ident
        with pytest.raises(MutationError, match=target):
            probe_equivalence(
                CSortableObList, CSortableObList.__tspec__, survivors,
                manual_equivalent=[target], manual_not_equivalent=[target],
                triage=triage, **PROBE_OPTIONS,
            )

    def test_triage_proofs_skip_the_probe(self, survivors, monkeypatch):
        """A survivor the static pass proved equivalent is classified
        without probing; a redundant survivor inherits its executed
        representative's classification."""
        proven = survivors[0]
        member = survivors[1]
        representative = survivors[2]
        triage = StaticTriage(
            class_name="CSortableObList",
            entries=(
                MutantTriage(
                    ident=proven.ident, method_name="Sort1",
                    status=TriageStatus.BYTECODE_EQUIVALENT, digest="d0",
                ),
                MutantTriage(
                    ident=member.ident, method_name="Sort1",
                    status=TriageStatus.REDUNDANT, digest="d1",
                    representative=representative.ident,
                ),
            ),
        )
        probed = []
        real_analyze = MutationAnalysis.analyze

        def spy_analyze(analysis, mutants, *args, **kwargs):
            probed.extend(mutant.ident for mutant in mutants)
            return real_analyze(analysis, mutants, *args, **kwargs)

        monkeypatch.setattr(MutationAnalysis, "analyze", spy_analyze)
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            triage=triage, **PROBE_OPTIONS,
        )
        assert proven.ident not in probed
        assert member.ident not in probed
        assert proven.ident in report.likely_equivalent
        assert proven.ident not in report.probe_kill_reasons
        # The probe kills the representative; the member, never probed,
        # is classified exactly as its representative was.
        assert representative.ident in report.escaped
        assert member.ident in report.escaped
        assert (report.probe_kill_reasons[member.ident]
                is report.probe_kill_reasons[representative.ident])

    def test_manual_not_equivalent_beats_triage(self, survivors):
        target = survivors[0]
        triage = StaticTriage(
            class_name="CSortableObList",
            entries=(
                MutantTriage(
                    ident=target.ident, method_name="Sort1",
                    status=TriageStatus.AST_EQUIVALENT, digest="d0",
                ),
            ),
        )
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            triage=triage,
            manual_not_equivalent=[target.ident], **PROBE_OPTIONS,
        )
        assert target.ident in report.escaped
        assert target.ident not in report.likely_equivalent

    def test_no_survivors_short_circuits(self):
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, [],
        )
        assert report.likely_equivalent == ()
        assert report.escaped == ()
        assert report.probe_suite_size == 0

    def test_summary(self, survivors):
        report = probe_equivalence(
            CSortableObList, CSortableObList.__tspec__, survivors,
            **PROBE_OPTIONS,
        )
        text = report.summary()
        assert "likely-equivalent" in text
        assert "escaped" in text
        assert f"(probe suite: {report.probe_suite_size} cases)" in text


class TestProbeSkipsStaticTriage:
    def test_table2_probe_never_triages(self, monkeypatch):
        """The full Table 2 run: static triage runs once, for the main
        battery, never inside the probe, and the report still finds the
        59 likely equivalents."""
        from repro.experiments import table2
        from repro.mutation import analysis as analysis_module

        probing = []
        triaged_while_probing = []
        real_triage = analysis_module.triage_mutants
        real_probe = table2.probe_equivalence

        def spy_triage(*args, **kwargs):
            triaged_while_probing.append(bool(probing))
            return real_triage(*args, **kwargs)

        def spy_probe(*args, **kwargs):
            probing.append(True)
            try:
                return real_probe(*args, **kwargs)
            finally:
                probing.pop()

        monkeypatch.setattr(analysis_module, "triage_mutants", spy_triage)
        monkeypatch.setattr(table2, "probe_equivalence", spy_probe)
        result = table2.run_table2()
        assert triaged_while_probing == [False]
        assert result.equivalence.equivalent_count == 59

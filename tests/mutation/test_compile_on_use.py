"""Each mutant compiles on first use.

Generation renders, dedupes, numbers and records every mutant but
compiles none: a ``CompiledMutant`` compiles its splice the first time its
code is needed, at ``build_class`` or at the pickle that ships it to a
pool worker.  The pins count calls to ``MethodContext.compile_mutant`` on
real runs: Table 1 and a warm Table 2 hit compile nothing, a cold Table 2
run compiles the mutants triage does not skip, and a smoke sweep the
mutants its budgets keep.  A mutant first built on another thread than
the one that generated it compiles through that thread's context, to the
same code.  A method that declares a name ``global`` keeps compiling at
generation, the one place a replacement can fail to compile.
"""

from __future__ import annotations

import threading
from unittest import mock

import pytest

from repro.components import CSortableObList, OBLIST_TYPE_MODEL
from repro.experiments.config import TABLE2_METHODS
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.mutation.cache import MutationOutcomeCache
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import CompiledMutant
from repro.mutation.operators import MethodContext, method_context
from repro.scenarios.registry import builtin_registry
from repro.scenarios.sweep import SweepRunner

from .context_reference import assert_same_code

#: What the module's ``global`` fixture method writes.
_TALLY = 0


class Tally:
    """A method that declares a name ``global`` after a use that a
    replacement by that name would rewrite."""

    def __init__(self):
        self.total = 0

    def add(self, amount):
        step = amount + 1
        kept = step * 2
        global _TALLY
        _TALLY = kept + step
        self.total = self.total + kept
        return _TALLY


class Compiles:
    """Counts ``MethodContext.compile_mutant`` calls, and checks that
    each one runs through the calling thread's context."""

    def __init__(self):
        self.calls = 0
        self.contexts = []

    def __enter__(self):
        compile_mutant = MethodContext.compile_mutant

        def counted(context, *args, **kwargs):
            assert context is method_context(context.owner,
                                             context.method_name)
            self.calls += 1
            self.contexts.append(context)
            return compile_mutant(context, *args, **kwargs)

        self._patch = mock.patch.object(MethodContext, "compile_mutant",
                                        counted)
        self._patch.start()
        return self

    def __exit__(self, *exc_info):
        self._patch.stop()


class TestCompileCounts:
    def test_table1_compiles_nothing(self):
        with Compiles() as compiles:
            run_table1()
        assert compiles.calls == 0  # 3045 when generation compiled

    def test_pooled_table2_compiles_at_the_pickle_and_a_hit_not_at_all(
            self, tmp_path):
        cache = MutationOutcomeCache(tmp_path)
        with Compiles() as cold:
            run_table2(with_equivalence=False, workers=2, max_cases=60,
                       cache=cache)
        with Compiles() as warm:
            result = run_table2(with_equivalence=False, workers=2,
                                max_cases=60, cache=cache)
        assert result.run.cache_stats.hits == 707
        # The parent compiles each dispatched mutant to ship it.
        assert cold.calls == 707
        assert warm.calls == 0  # 709 when generation compiled

    def test_cold_serial_table2_compiles_what_runs(self):
        with Compiles() as compiles:
            result = run_table2(with_equivalence=False, max_cases=60)
        assert result.run.triage.redundant == ("M0495", "M0604")
        assert compiles.calls == 707  # 709 when generation compiled

    def test_smoke_sweep_compiles_the_mutants_it_keeps(self, tmp_path):
        with Compiles() as compiles:
            report = SweepRunner(builtin_registry().filtered("smoke"),
                                 workspace=tmp_path).run()
        assert not report.errors
        assert report.mutants_total == 1924
        assert compiles.calls == 1924  # 2827 when generation compiled


class TestFirstUseOnAnotherThread:
    def test_code_equals_the_generating_threads(self):
        generated = {}

        def generate():
            # Two batteries from one context; the first compiles here.
            for name in ("here", "elsewhere"):
                generated[name], _ = generate_mutants(
                    CSortableObList, TABLE2_METHODS,
                    type_model=OBLIST_TYPE_MODEL)
            for mutant in generated["here"]:
                mutant.build_class()

        with Compiles() as compiles:
            thread = threading.Thread(target=generate)
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
            generating = set(map(id, compiles.contexts))
            assert compiles.calls == len(generated["here"]) == 709
            for mutant in generated["elsewhere"]:
                mutant.build_class()
        assert compiles.calls == 2 * 709
        building = set(map(id, compiles.contexts[709:]))
        assert not building & generating
        for mutant, expected in zip(generated["elsewhere"],
                                    generated["here"]):
            assert mutant.record == expected.record
            assert mutant.function.__code__ in mutant.code.co_consts
            assert_same_code(mutant.code, expected.code, mutant.ident)
            assert_same_code(mutant.function.__code__,
                             expected.function.__code__, mutant.ident)


class TestGlobalDeclaration:
    def test_generation_compiles_and_drops_what_fails(self):
        with Compiles() as compiles:
            mutants, report = generate_mutants(Tally, ["add"])
        # Every new source compiles here: 49 mutants and one failure,
        # `kept = _TALLY * 2` before `global _TALLY`.
        assert compiles.calls == 50
        assert report.compile_failures == 1
        assert (report.generated, report.duplicates) == (49, 0)
        assert report.per_method_operator == {
            ("add", "IndVarBitNeg"): 5,
            ("add", "IndVarRepGlob"): 5,
            ("add", "IndVarRepLoc"): 9,
            ("add", "IndVarRepReq"): 30,
        }
        assert [mutant.ident for mutant in mutants] == [
            f"M{number:04d}" for number in range(1, 50)]
        assert [(mutant.ident, mutant.record.variable,
                 mutant.record.occurrence, mutant.record.replacement)
                for mutant in mutants
                if mutant.operator == "IndVarRepLoc"] == [
            ("M0011", "_TALLY", 0, "kept"),
            ("M0012", "_TALLY", 0, "step"),
            ("M0013", "step", 0, "kept"),
            ("M0014", "kept", 0, "_TALLY"),
            ("M0015", "kept", 0, "step"),
            ("M0016", "step", 1, "_TALLY"),
            ("M0017", "step", 1, "kept"),
            ("M0018", "kept", 1, "_TALLY"),
            ("M0019", "kept", 1, "step"),
        ]
        with Compiles() as compiles:
            for mutant in mutants:
                mutant.build_class()
        assert compiles.calls == 0

    def test_a_mutant_takes_its_code_or_a_compiler_not_both(self):
        # A mutant compiled at generation keeps no compiler, which would
        # hold the replacement's tree for the mutant's whole life.
        mutant = generate_mutants(Tally, ["add"])[0][0]
        with pytest.raises(TypeError, match="exactly one"):
            CompiledMutant(mutant.record, Tally, code=mutant.code,
                           compiler=lambda: mutant.code)
        with pytest.raises(TypeError, match="exactly one"):
            CompiledMutant(mutant.record, Tally)

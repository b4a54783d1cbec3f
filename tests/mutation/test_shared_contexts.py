"""One parsed context per method and one hash per suite, per process.

Generation, pruning, triage and the lint read one ``MethodContext`` per
(class, method) and thread (``method_context``), and a ``TestSuite``
stores its fingerprint the first time it is asked.  Generation with shared
contexts must equal generation with a fresh context per generator run
(``context_reference``), field for field and code object for code object;
the pins below count the contexts and suite hashes two real runs build.
A pool worker runs the very code the generator compiled, so an untyped
battery, whose text does not always re-parse, gives the serial verdicts.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace
from itertools import groupby
from unittest import mock

import pytest

from repro.components import CObList, CSortableObList, OBLIST_TYPE_MODEL
from repro.core.fingerprint import canonical, sha256_hex
from repro.experiments.config import (
    TABLE2_METHODS,
    TABLE3_METHODS,
    incremental_plan,
    sortable_oracle,
    sortable_suite,
    truncated_suite,
)
from repro.experiments.table1 import run_table1
from repro.generator import suite as suite_module
from repro.generator.driver import DriverGenerator
from repro.generator.values import TypeBinding
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.generate import MutantGenerator, generate_mutants
from repro.mutation.operators import ALL_OPERATORS, MethodContext
from repro.mutation.operators.base import method_context
from repro.mutation.parallel import ParallelMutationAnalysis
from repro.scenarios.families import FAMILY_NAMES
from repro.scenarios.genspec import GeneratorSpec, synthesize
from repro.scenarios.materialize import materialize
from repro.scenarios.registry import (
    ScenarioRegistry,
    builtin_registry,
    default_methods,
)
from repro.scenarios.sweep import SweepRunner

from .context_reference import (
    assert_pickle_keeps_code,
    assert_same_generation,
    empty_contexts,
    fresh_contexts,
)
from .test_operators import Machine

#: Table 1's 20 generator runs, in ``run_table1`` order.
TABLE1_RUNS = [
    (operator, target, methods, model)
    for operator in ALL_OPERATORS
    for target, methods in ((CSortableObList, TABLE2_METHODS),
                            (CObList, TABLE3_METHODS))
    for model in (None, OBLIST_TYPE_MODEL)
]


def table1_run(operator, target, methods, model):
    return MutantGenerator(target, operators=(operator,),
                           type_model=model).generate(methods)


class Counting:
    """Counts ``MethodContext`` constructions and suite hashes."""

    def __init__(self):
        self.contexts = 0
        self.suite_hashes = 0

    def __enter__(self):
        build = MethodContext.__init__
        hash_parts = suite_module.sha256_hex

        def counted_build(context, *args, **kwargs):
            self.contexts += 1
            build(context, *args, **kwargs)

        def counted_hash(*parts):
            self.suite_hashes += 1
            return hash_parts(*parts)

        self._patches = [
            mock.patch.object(MethodContext, "__init__", counted_build),
            mock.patch.object(suite_module, "sha256_hex", counted_hash),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in reversed(self._patches):
            patch.stop()


# ---------------------------------------------------------------------------
# Shared contexts generate what fresh ones do
# ---------------------------------------------------------------------------


class TestSameAsFreshContexts:
    @pytest.mark.parametrize("order", ["table1", "reversed"])
    def test_table1_runs(self, order):
        runs = TABLE1_RUNS if order == "table1" else TABLE1_RUNS[::-1]
        with empty_contexts():
            shared = [table1_run(*run) for run in runs]
        with fresh_contexts():
            fresh = [table1_run(*run) for run in runs]
        for generated, expected in zip(shared, fresh):
            assert_same_generation(generated, expected)

    @pytest.mark.parametrize("target, methods, prefix", [
        (CSortableObList, TABLE2_METHODS, "M"),
        (CObList, TABLE3_METHODS, "B"),
    ], ids=["table2", "table3"])
    def test_typed_table_battery(self, target, methods, prefix):
        def battery():
            return generate_mutants(target, methods, ident_prefix=prefix,
                                    type_model=OBLIST_TYPE_MODEL)

        with empty_contexts():
            # The untyped run fills the contexts' templates first.
            generate_mutants(target, methods, ident_prefix=prefix)
            shared = battery()
        with fresh_contexts():
            fresh = battery()
        assert_same_generation(shared, fresh)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_scenario_family(self, family, tmp_path):
        # The sweep's operator-split scenarios, then the whole battery.
        cls = materialize(synthesize(GeneratorSpec(family, 1)), tmp_path)
        methods = default_methods(cls.__tspec__)
        batteries = [(operator,) for operator in ALL_OPERATORS]
        batteries.append(ALL_OPERATORS)

        def generate_all():
            return [generate_mutants(cls, methods, operators=operators)
                    for operators in batteries]

        with empty_contexts():
            shared = generate_all()
        with fresh_contexts():
            fresh = generate_all()
        for generated, expected in zip(shared, fresh):
            assert_same_generation(generated, expected)


# ---------------------------------------------------------------------------
# How often contexts and suite hashes are built
# ---------------------------------------------------------------------------


class TestCounts:
    def test_table1_builds_one_context_per_method(self):
        with empty_contexts(), Counting() as counts:
            run_table1()
        assert counts.contexts == len(TABLE2_METHODS) + len(TABLE3_METHODS)

    def test_sweep_of_one_component(self, tmp_path):
        smoke = builtin_registry().filtered("smoke")
        _, group = next(groupby(
            smoke, key=lambda scenario: scenario.component.describe()))
        scenarios = tuple(group)
        assert len(scenarios) == len(ALL_OPERATORS)
        with empty_contexts(), Counting() as counts:
            report = SweepRunner(ScenarioRegistry(scenarios),
                                 workspace=tmp_path).run()
        assert not any(result.error for result in report.results)
        methods = {method for result in report.results
                   for method in result.methods}
        assert counts.contexts == len(methods)
        assert counts.suite_hashes == 1


# ---------------------------------------------------------------------------
# One context per thread
# ---------------------------------------------------------------------------


class TestThreads:
    def test_threads_generate_with_their_own_contexts(self):
        serial = generate_mutants(CSortableObList, TABLE2_METHODS,
                                  type_model=OBLIST_TYPE_MODEL)
        names = ("a", "b", "c")
        barrier = threading.Barrier(len(names), timeout=60)
        generated, contexts, errors = {}, {}, []

        def work(name):
            try:
                barrier.wait()
                generated[name] = generate_mutants(
                    CSortableObList, TABLE2_METHODS,
                    type_model=OBLIST_TYPE_MODEL)
                contexts[name] = {
                    method: method_context(CSortableObList, method)
                    for method in TABLE2_METHODS}
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the generations finely
        try:
            threads = [threading.Thread(target=work, args=(name,))
                       for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for name in names:
            assert_same_generation(generated[name], serial)
        for method in TABLE2_METHODS:
            built = [contexts[name][method] for name in names]
            built.append(method_context(CSortableObList, method))
            assert len(set(map(id, built))) == len(built)

    def test_context_map_does_not_keep_class_alive(self):
        dynamic = type("Dynamic", (), {"drive": Machine.__dict__["drive"]})
        context = method_context(dynamic, "drive")
        assert method_context(dynamic, "drive") is context
        assert context.owner is dynamic
        alive = weakref.ref(dynamic)
        del dynamic
        gc.collect()
        assert alive() is None


# ---------------------------------------------------------------------------
# One hash per suite
# ---------------------------------------------------------------------------


def _suites():
    generated = DriverGenerator(CSortableObList.__tspec__, seed=7).generate()
    plan = incremental_plan(7)
    return {
        "generated": generated,
        "truncated": truncated_suite(generated, 25),
        "plan-full": plan.full_suite,
        "plan-executed": plan.executed_suite,
        "completed": generated.completed(TypeBinding()),
        "renumbered": generated.renumbered("R"),
    }


class TestSuiteFingerprint:
    @pytest.mark.parametrize("name", ["generated", "truncated", "plan-full",
                                      "plan-executed", "completed",
                                      "renumbered"])
    def test_stored_value_is_the_content_hash(self, name):
        suite = _suites()[name]
        expected = sha256_hex("testsuite", canonical(suite))
        with Counting() as counts:
            assert suite.fingerprint() == expected
            assert suite.fingerprint() == expected
        assert counts.suite_hashes == 1
        assert suite.__dict__["_fingerprint"] == expected

    def test_replace_rehashes(self):
        suite = sortable_suite()
        suite.fingerprint()
        shorter = replace(suite, cases=suite.cases[:10])
        assert "_fingerprint" not in shorter.__dict__
        assert shorter.fingerprint() == sha256_hex("testsuite",
                                                   canonical(shorter))
        assert shorter.fingerprint() != suite.fingerprint()

    def test_pickle_keeps_the_value(self):
        suite = sortable_suite()
        suite.fingerprint()
        with Counting() as counts:
            clone = pickle.loads(pickle.dumps(suite))
            assert clone.fingerprint() == suite.fingerprint()
        assert counts.suite_hashes == 0

    def test_equality_and_canonical_ignore_the_value(self):
        hashed = sortable_suite()
        hashed.fingerprint()
        plain = replace(hashed)
        assert "_fingerprint" not in plain.__dict__
        assert hashed == plain and hash(hashed) == hash(plain)
        assert canonical(hashed) == canonical(plain)
        assert "_fingerprint" not in repr(hashed)


# ---------------------------------------------------------------------------
# The pool runs the serial engine's code objects
# ---------------------------------------------------------------------------


class TestPoolShipsCode:
    def test_table1_mutants_pickle_with_their_code(self):
        for run in TABLE1_RUNS:
            mutants, _ = table1_run(*run)
            assert_pickle_keeps_code(mutants)

    def test_untyped_shellsort_on_the_pool_matches_serial(self):
        # Four of these mutants' sources do not parse back
        # (`-1 .next = after`); a worker must still run them.
        mutants, _ = generate_mutants(CSortableObList, ["ShellSort"])
        suite = truncated_suite(sortable_suite(), 60)
        serial = MutationAnalysis(CSortableObList, suite,
                                  oracle=sortable_oracle()).analyze(mutants)
        pooled = ParallelMutationAnalysis(
            CSortableObList, suite, oracle=sortable_oracle(), workers=2,
        ).analyze(mutants)
        assert pooled.same_results(serial)

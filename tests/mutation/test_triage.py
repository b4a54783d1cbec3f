"""Tests for static equivalent-mutant triage.

The centrepiece is the soundness property: across seeds, operators and
every shipped component, a mutant the static pass proves equivalent is
never killed by any generated suite, and members of one redundancy class
always receive the verdict of their executed representative.  Real
operator batteries contain almost no statically-provable mutants (the
generation gate already drops textual duplicates), so each battery is
spiked with synthetic variants that the checks must catch — a docstring
change, dead ``pass`` padding, a CPython-foldable constant spelling, and
a bytecode-identical redundant pair.
"""

from __future__ import annotations

import ast
import pickle
import textwrap
from dataclasses import replace

import pytest

from repro.components import (
    BankAccount,
    BoundedStack,
    CObList,
    CSortableObList,
    OBLIST_TYPE_MODEL,
    Product,
    Provider,
    reset_database,
)
from repro.core.errors import MutationError
from repro.core.fingerprint import sha256_hex
from repro.generator.driver import DriverGenerator
from repro.generator.values import TypeBinding
import repro.mutation.analysis as analysis_module
from repro.mutation.analysis import MutationAnalysis
from repro.mutation.cache import (
    CACHE_FORMAT_VERSION,
    _KIND_RUN,
    MutationOutcomeCache,
)
from repro.mutation.generate import generate_mutants
from repro.mutation.mutant import Mutant, rebuild_compiled_mutant
from repro.mutation.parallel import ParallelMutationAnalysis
from repro.mutation.score import build_score_table
from repro.mutation.triage import (
    TriageStatus,
    normalized_bytecode_digest,
    normalized_source_text,
    triage_mutants,
)

SEEDS = (20010701, 7, 99)


# ---------------------------------------------------------------------------
# Synthetic equivalent variants
# ---------------------------------------------------------------------------


def _method_source(cls: type, method_name: str) -> str:
    import inspect

    return textwrap.dedent(inspect.getsource(getattr(cls, method_name)))


def _first_int_literal(module: ast.Module):
    for node in ast.walk(module):
        if (isinstance(node, ast.Constant) and isinstance(node.value, int)
                and not isinstance(node.value, bool)):
            return node
    return None


class _ConstRewriter(ast.NodeTransformer):
    """Replaces the first plain-int literal with ``builder(k)``."""

    def __init__(self, builder):
        self._builder = builder
        self._done = False

    def visit_Constant(self, node: ast.Constant):  # noqa: N802
        if (not self._done and isinstance(node.value, int)
                and not isinstance(node.value, bool)):
            self._done = True
            return ast.copy_location(self._builder(node.value), node)
        return node


def _rewrite_constant(source: str, builder) -> str:
    module = ast.parse(source)
    rewritten = _ConstRewriter(builder).visit(module)
    ast.fix_missing_locations(rewritten)
    return ast.unparse(rewritten)


def _docstring_variant(source: str) -> str:
    module = ast.parse(source)
    function = module.body[0]
    marker = ast.Expr(value=ast.Constant(value="synthetic docstring"))
    if (function.body and isinstance(function.body[0], ast.Expr)
            and isinstance(function.body[0].value, ast.Constant)
            and isinstance(function.body[0].value.value, str)):
        function.body[0] = marker
    else:
        function.body.insert(0, marker)
    ast.fix_missing_locations(module)
    return ast.unparse(module)


def _pass_variant(source: str) -> str:
    module = ast.parse(source)
    module.body[0].body.append(ast.Pass())
    ast.fix_missing_locations(module)
    return ast.unparse(module)


def _synthetic(cls: type, method_name: str, ident: str, source: str,
               description: str):
    record = Mutant(
        ident=ident,
        operator="IndVarRepReq",
        class_name=cls.__name__,
        method_name=method_name,
        variable="<synthetic>",
        occurrence=0,
        line=1,
        replacement="<synthetic>",
        description=description,
        mutated_source=source,
    )
    return rebuild_compiled_mutant(record, cls)


def synthetic_equivalents(cls: type, method_name: str):
    """Variants the three checks must catch, plus the expected statuses.

    Returns ``(mutants, expected)`` where ``expected`` maps ident →
    :class:`TriageStatus`.  The docstring and ``pass`` variants fall to
    check 1; a constant respelled ``(k + 1) - 1`` survives AST
    normalization but meets the original under CPython's compile-time
    folding (check 2); ``k + 1`` vs ``1 + k`` fold to the same changed
    constant — behaviour-changing, but identical to *each other*, so the
    second is grouped as redundant (check 3).
    """
    source = _method_source(cls, method_name)
    mutants = [
        _synthetic(cls, method_name, "S0001",
                   _docstring_variant(source), "docstring changed"),
        _synthetic(cls, method_name, "S0002",
                   _pass_variant(source), "dead pass appended"),
    ]
    expected = {
        "S0001": TriageStatus.AST_EQUIVALENT,
        "S0002": TriageStatus.AST_EQUIVALENT,
    }
    if _first_int_literal(ast.parse(source)) is not None:
        mutants.append(_synthetic(
            cls, method_name, "S0003",
            _rewrite_constant(source, lambda k: ast.BinOp(
                left=ast.BinOp(left=ast.Constant(k), op=ast.Add(),
                               right=ast.Constant(1)),
                op=ast.Sub(), right=ast.Constant(1),
            )),
            "constant respelled (k + 1) - 1",
        ))
        mutants.append(_synthetic(
            cls, method_name, "S0004",
            _rewrite_constant(source, lambda k: ast.BinOp(
                left=ast.Constant(k), op=ast.Add(), right=ast.Constant(1),
            )),
            "constant bumped: k + 1",
        ))
        mutants.append(_synthetic(
            cls, method_name, "S0005",
            _rewrite_constant(source, lambda k: ast.BinOp(
                left=ast.Constant(1), op=ast.Add(), right=ast.Constant(k),
            )),
            "constant bumped: 1 + k",
        ))
        expected["S0003"] = TriageStatus.BYTECODE_EQUIVALENT
        expected["S0004"] = TriageStatus.UNDECIDED  # the representative
        expected["S0005"] = TriageStatus.REDUNDANT
    return mutants, expected


# ---------------------------------------------------------------------------
# Normalizer units
# ---------------------------------------------------------------------------


class TestNormalizer:
    def test_docstring_stripped(self):
        a = 'def f(self):\n    """doc"""\n    return 1\n'
        b = 'def f(self):\n    """other"""\n    return 1\n'
        c = "def f(self):\n    return 1\n"
        assert normalized_source_text(a) == normalized_source_text(b)
        assert normalized_source_text(a) == normalized_source_text(c)

    def test_pass_stripped_but_lone_pass_kept(self):
        padded = "def f(self):\n    x = 1\n    pass\n    return x\n"
        clean = "def f(self):\n    x = 1\n    return x\n"
        assert normalized_source_text(padded) == normalized_source_text(clean)
        lone = "def f(self):\n    pass\n"
        assert "pass" in normalized_source_text(lone)

    def test_not_not_folded_in_test_position_only(self):
        folded = "def f(self, b):\n    if not not b:\n        return 1\n"
        plain = "def f(self, b):\n    if b:\n        return 1\n"
        assert normalized_source_text(folded) == normalized_source_text(plain)
        # As a *value*, `not not b` is bool(b), not b — never folded.
        value = "def f(self, b):\n    return not not b\n"
        bare = "def f(self, b):\n    return b\n"
        assert normalized_source_text(value) != normalized_source_text(bare)

    def test_integral_folds_gated_on_type_model(self):
        with_zero = "def f(self, x):\n    return x + 0\n"
        without = "def f(self, x):\n    return x\n"
        untyped = normalized_source_text(with_zero)
        assert untyped != normalized_source_text(without)
        typed = normalized_source_text(
            with_zero, integral_locals=frozenset({"x"})
        )
        assert typed == normalized_source_text(
            without, integral_locals=frozenset({"x"})
        )

    def test_double_negations_folded_for_integrals(self):
        for spelling in ("~~x", "--x", "+x"):
            src = f"def f(self, x):\n    return {spelling}\n"
            assert normalized_source_text(
                src, integral_locals=frozenset({"x"})
            ) == normalized_source_text(
                "def f(self, x):\n    return x\n",
                integral_locals=frozenset({"x"}),
            )

    def test_constant_types_stay_distinct_in_digest(self):
        digests = {
            normalized_bytecode_digest(f"def f(self):\n    return {lit}\n")
            for lit in ("1", "1.0", "True")
        }
        assert len(digests) == 3

    def test_compile_folding_meets_at_bytecode(self):
        a = normalized_bytecode_digest("def f(self):\n    return 2\n")
        b = normalized_bytecode_digest("def f(self):\n    return 1 + 1\n")
        assert a == b

    def test_unparseable_source_raises(self):
        with pytest.raises(MutationError):
            normalized_source_text("def f(:\n")


# ---------------------------------------------------------------------------
# StaticTriage value object
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def findmax_battery():
    synths, expected = synthetic_equivalents(CSortableObList, "FindMax")
    real, _ = generate_mutants(
        CSortableObList, ["FindMax"], type_model=OBLIST_TYPE_MODEL
    )
    return synths + real[:15], expected


@pytest.fixture(scope="module")
def findmax_triage(findmax_battery):
    battery, _ = findmax_battery
    return triage_mutants(
        CSortableObList, battery, type_model=OBLIST_TYPE_MODEL
    )


def findmax_suite(seed: int, limit: int = 50):
    suite = DriverGenerator(CSortableObList.__tspec__, seed=seed).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name in ("FindMax", "FindMin")
               for step in case.steps)
    )[:limit]
    return replace(suite, cases=relevant)


class TestStaticTriage:
    def test_expected_statuses(self, findmax_battery, findmax_triage):
        _, expected = findmax_battery
        for ident, status in expected.items():
            assert findmax_triage.status_of(ident) is status, ident

    def test_redundant_names_its_representative(self, findmax_triage):
        assert findmax_triage.representative_of("S0005") == "S0004"
        assert findmax_triage.groups()["S0004"] == ("S0005",)

    def test_aggregates(self, findmax_triage):
        assert set(findmax_triage.ast_equivalent) == {"S0001", "S0002"}
        assert set(findmax_triage.bytecode_equivalent) == {"S0003"}
        assert set(findmax_triage.redundant) == {"S0005"}
        assert findmax_triage.skipped == 4

    def test_is_skipped_vs_is_equivalent(self, findmax_triage):
        assert findmax_triage.is_equivalent("S0003")
        assert not findmax_triage.is_equivalent("S0005")  # redundant ≠ equiv
        assert findmax_triage.is_skipped("S0005")
        assert not findmax_triage.is_skipped("S0004")  # the representative runs

    def test_unknown_ident_is_undecided(self, findmax_triage):
        assert findmax_triage.status_of("ZZZZ") is TriageStatus.UNDECIDED
        assert findmax_triage.representative_of("ZZZZ") == ""

    def test_pickle_roundtrip(self, findmax_triage):
        clone = pickle.loads(pickle.dumps(findmax_triage))
        assert clone == findmax_triage
        assert clone.status_of("S0003") is TriageStatus.BYTECODE_EQUIVALENT


# ---------------------------------------------------------------------------
# The soundness property
# ---------------------------------------------------------------------------


def provider_binding():
    return TypeBinding(
        {"Provider": lambda rng: Provider("p", rng.randint(0, 99))}
    )


#: (label, class, mutated method, type model, needs product fixtures)
COMPONENTS = (
    ("oblist", CObList, "AddHead", OBLIST_TYPE_MODEL, False),
    ("sortable_oblist", CSortableObList, "FindMax", OBLIST_TYPE_MODEL, False),
    ("stack", BoundedStack, "Push", None, False),
    ("account", BankAccount, "Deposit", None, False),
    ("product", Product, "UpdateQty", None, True),
    ("warehouse", Product, "InsertProduct", None, True),
)


def component_suite(cls: type, method_name: str, seed: int, with_provider:
                    bool, limit: int = 40):
    bindings = provider_binding() if with_provider else None
    suite = DriverGenerator(
        cls.__tspec__, seed=seed, bindings=bindings
    ).generate()
    relevant = tuple(
        case for case in suite.cases
        if any(step.method_name == method_name for step in case.steps)
    )[:limit]
    if not relevant:
        relevant = suite.cases[:limit]
    return replace(suite, cases=relevant)


class TestSoundnessProperty:
    """No statically-equivalent mutant is ever killed by any suite."""

    @pytest.mark.parametrize(
        "label, cls, method, type_model, needs_db", COMPONENTS,
        ids=[row[0] for row in COMPONENTS],
    )
    def test_equivalents_survive_every_suite(self, label, cls, method,
                                             type_model, needs_db):
        synths, expected = synthetic_equivalents(cls, method)
        # The real battery spans all five IND operators (the generator's
        # default registry); statically-triaged members join the check.
        real, _ = generate_mutants(cls, [method], type_model=type_model)
        battery = synths + real
        triage = triage_mutants(cls, battery, type_model=type_model)
        for ident, status in expected.items():
            assert triage.status_of(ident) is status, (label, ident)
        groups = triage.groups()
        executed_idents = {
            entry.ident for entry in triage.entries
            if entry.status is not TriageStatus.UNDECIDED
        } | set(groups)
        subjects = [m for m in battery if m.ident in executed_idents]
        assert subjects, "property test must not run vacuously"

        setup = reset_database if needs_db else None
        for seed in SEEDS:
            suite = component_suite(cls, method, seed, needs_db)
            # Triage off: the proven-equivalent mutants really execute.
            run = MutationAnalysis(
                cls, suite, static_triage=False, setup=setup,
            ).analyze(subjects)
            by_ident = {o.mutant.ident: o for o in run.outcomes}
            for ident in executed_idents:
                if triage.is_equivalent(ident):
                    outcome = by_ident[ident]
                    assert not outcome.killed, (
                        f"{label}: statically-proven equivalent {ident} "
                        f"killed under seed {seed} ({outcome.reason})"
                    )
            # Redundancy classes: every member behaves exactly like its
            # executed representative, under every suite.
            for representative, members in groups.items():
                rep = by_ident[representative]
                for member in members:
                    got = by_ident[member]
                    assert got.killed == rep.killed, (label, member, seed)
                    assert got.reason is rep.reason, (label, member, seed)

    def test_real_table2_redundancy_class_is_sound(self):
        """The typed 709-mutant Table 2 battery holds no AST- or
        bytecode-equivalent mutant and two redundant pairs: the
        ``ShellSort`` uses of ``size`` and ``gap`` replaced by the
        constants 0 and 1 (both ``// 2`` spellings fold to ``0``).  Each
        pair verdict-matches its representative under a real suite."""
        mutants, _ = generate_mutants(
            CSortableObList,
            ("Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"),
            type_model=OBLIST_TYPE_MODEL,
        )
        triage = triage_mutants(
            CSortableObList, mutants, type_model=OBLIST_TYPE_MODEL
        )
        assert len(mutants) == 709
        assert triage.equivalent == ()
        groups = triage.groups()
        assert groups == {"M0494": ("M0495",), "M0603": ("M0604",)}
        involved = set(groups) | {m for ms in groups.values() for m in ms}
        subjects = [m for m in mutants if m.ident in involved]
        assert {m.record.method_name for m in subjects} == {"ShellSort"}
        suite = findmax_suite(SEEDS[0])
        run = MutationAnalysis(
            CSortableObList, suite, static_triage=False
        ).analyze(subjects)
        by_ident = {o.mutant.ident: o for o in run.outcomes}
        for representative, members in groups.items():
            for member in members:
                assert (by_ident[member].killed
                        == by_ident[representative].killed)
                assert by_ident[member].reason is by_ident[representative].reason


# ---------------------------------------------------------------------------
# Engine integration: verdict parity, zero dispatch, cache
# ---------------------------------------------------------------------------


class TestEngineParity:
    """Triage-on ≡ triage-off on every executed mutant, both engines."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_same_verdicts_modulo_triage(self, workers, findmax_battery):
        battery, _ = findmax_battery
        suite = findmax_suite(SEEDS[0])

        def run(static_triage: bool):
            if workers > 1:
                return ParallelMutationAnalysis(
                    CSortableObList, suite, workers=workers,
                    static_triage=static_triage,
                    triage_type_model=OBLIST_TYPE_MODEL,
                ).analyze(battery)
            return MutationAnalysis(
                CSortableObList, suite, static_triage=static_triage,
                triage_type_model=OBLIST_TYPE_MODEL,
            ).analyze(battery)

        with_triage = run(True)
        without = run(False)
        assert with_triage.triage is not None
        assert without.triage is None
        assert with_triage.same_verdicts(without)
        assert without.same_verdicts(with_triage)
        # Spell the contract out for the *dispatched* mutants: their
        # outcomes are bit-identical, not merely verdict-identical.
        for mine, theirs in zip(with_triage.outcomes, without.outcomes):
            if mine.dispatched:
                assert mine.comparable() == theirs.comparable()

    def test_parallel_equals_serial_with_triage(self, findmax_battery):
        battery, _ = findmax_battery
        suite = findmax_suite(SEEDS[1])
        serial = MutationAnalysis(
            CSortableObList, suite, static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(battery)
        parallel = ParallelMutationAnalysis(
            CSortableObList, suite, workers=2, static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(battery)
        assert parallel.same_results(serial)
        assert parallel.triage == serial.triage

    def test_synthesized_outcomes_annotated(self, findmax_battery):
        battery, _ = findmax_battery
        run = MutationAnalysis(
            CSortableObList, findmax_suite(SEEDS[0]), static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(battery)
        by_ident = {o.mutant.ident: o for o in run.outcomes}
        for ident in ("S0001", "S0002"):
            assert by_ident[ident].static_status == "ast_equivalent"
            assert not by_ident[ident].killed
        assert by_ident["S0003"].static_status == "bytecode_equivalent"
        assert by_ident["S0005"].static_status == "redundant:S0004"
        assert by_ident["S0005"].killed == by_ident["S0004"].killed
        assert len(run.statically_equivalent) == 3
        assert run.dispatched_count == len(battery) - 4


class TestZeroDispatch:
    """Statically-triaged mutants are never dispatched, in either engine."""

    def test_serial_engine_never_executes_triaged(self, monkeypatch,
                                                  findmax_battery):
        battery, _ = findmax_battery
        executed = []
        original = MutationAnalysis.analyze_single

        def spy(self, mutant):
            executed.append(mutant.ident)
            return original(self, mutant)

        monkeypatch.setattr(MutationAnalysis, "analyze_single", spy)
        run = MutationAnalysis(
            CSortableObList, findmax_suite(SEEDS[0]), static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(battery)
        skipped = {
            entry.ident for entry in run.triage.entries
            if entry.status is not TriageStatus.UNDECIDED
        }
        assert skipped == {"S0001", "S0002", "S0003", "S0005"}
        assert not set(executed) & skipped
        assert len(executed) == len(battery) - len(skipped)

    def test_parallel_engine_never_dispatches_triaged(self, findmax_battery):
        from repro.obs import MemorySink, Telemetry

        battery, _ = findmax_battery
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        run = ParallelMutationAnalysis(
            CSortableObList, findmax_suite(SEEDS[0]), workers=2,
            static_triage=True, triage_type_model=OBLIST_TYPE_MODEL,
            telemetry=telemetry,
        ).analyze(battery)
        telemetry.close()
        dispatched = {
            event["attrs"]["mutant"] for event in sink.events
            if event["name"] == "parallel.dispatch"
        }
        skipped = {
            entry.ident for entry in run.triage.entries
            if entry.status is not TriageStatus.UNDECIDED
        }
        assert skipped == {"S0001", "S0002", "S0003", "S0005"}
        assert not dispatched & skipped
        assert dispatched == {m.ident for m in battery} - skipped


class TestTriageCache:
    """A stored run keeps its triage, and the run key names the setting."""

    def test_verdicts_cached_and_replayed(self, tmp_path, findmax_battery,
                                          monkeypatch):
        battery, _ = findmax_battery
        cache = MutationOutcomeCache(tmp_path / "cache")

        def run():
            return MutationAnalysis(
                CSortableObList, findmax_suite(SEEDS[0], limit=25),
                cache=cache, triage_type_model=OBLIST_TYPE_MODEL,
            ).analyze(battery)

        cold = run()
        assert cold.triage == triage_mutants(
            CSortableObList, battery, type_model=OBLIST_TYPE_MODEL
        )
        monkeypatch.setattr(analysis_module, "triage_mutants",
                            lambda *args, **kwargs: pytest.fail("triaged"))
        assert run().triage == cold.triage

    def test_store_lookup_roundtrip_and_corruption(self, tmp_path,
                                                   findmax_triage):
        cache = MutationOutcomeCache(tmp_path / "cache")
        key = sha256_hex("triage-roundtrip")
        assert cache.lookup(key) == (None, False)
        cache.store(key, (), findmax_triage)
        entry, corrupt = cache.lookup(key)
        assert entry.triage == findmax_triage and not corrupt
        # A corrupt payload (scribbled segment record) is a miss, never an
        # exception — the lookup-time CRC rejects it.
        location = cache._indexes[_KIND_RUN][key]
        with open(cache.segment_path, "r+b") as handle:
            handle.seek(location.offset + location.length - 8)
            handle.write(b"\x80damaged")
        assert cache.lookup(key) == (None, True)

    def test_fingerprint_covers_fold_configuration(self, findmax_battery):
        battery, _ = findmax_battery
        suite = findmax_suite(SEEDS[0], limit=25)

        def key(**options):
            return MutationAnalysis(
                CSortableObList, suite, **options
            ).run_fingerprint(battery)

        typed = key(triage_type_model=OBLIST_TYPE_MODEL)
        assert typed != key()
        assert typed != key(static_triage=False,
                            triage_type_model=OBLIST_TYPE_MODEL)
        # With triage off the model folds nothing, so it is no input.
        assert key(static_triage=False) == key(
            static_triage=False, triage_type_model=OBLIST_TYPE_MODEL)

    def test_cache_format_version_bumped_for_triage(self):
        assert CACHE_FORMAT_VERSION >= 3

    def test_outcome_cache_cold_warm_and_triage_off(self, tmp_path,
                                                    findmax_battery):
        """Warm replays the whole run; triage off is another run key, so
        that run misses and executes every mutant."""
        battery, _ = findmax_battery
        suite = findmax_suite(SEEDS[0], limit=25)
        cache = MutationOutcomeCache(tmp_path / "cache")

        def run(static_triage: bool):
            return MutationAnalysis(
                CSortableObList, suite, cache=cache,
                static_triage=static_triage,
                triage_type_model=OBLIST_TYPE_MODEL,
            ).analyze(battery)

        cold = run(True)
        assert cold.cache_stats.hits == 0
        warm = run(True)
        assert warm.same_results(cold)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == cold.dispatched_count
        off = run(False)
        assert off.same_verdicts(cold)
        assert off.cache_stats.hits == 0
        assert off.cache_stats.misses == len(battery)


# ---------------------------------------------------------------------------
# Score integration
# ---------------------------------------------------------------------------


class TestScoreIntegration:
    def test_static_equivalents_excluded_from_denominator(self,
                                                          findmax_battery):
        battery, _ = findmax_battery
        run = MutationAnalysis(
            CSortableObList, findmax_suite(SEEDS[0]), static_triage=True,
            triage_type_model=OBLIST_TYPE_MODEL,
        ).analyze(battery)
        table = build_score_table(run)
        assert table.total_static_equivalent == 3
        assert table.total_equivalent >= 3
        killed = table.total_killed
        assert table.total_raw_score == killed / table.total_generated
        assert table.total_score == killed / (
            table.total_generated - table.total_equivalent
        )
        assert table.total_score > table.total_raw_score
        rendered = table.format()
        assert "Score(raw)" in rendered
        assert "equivalents proven by static triage: 3" in rendered

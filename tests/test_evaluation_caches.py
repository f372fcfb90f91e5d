"""Evaluation memos: each one against its uncached path.

Three in-process memos sit on the evaluation path — assembled programs
per machine shape (``program``), compiled-backend schedules per
(program, shape, strict) (``codegen``) and golden expectations per
workload (``golden``). Every test here compares a memoized result with
the result of the slow path it replaces.
"""

import gc
import importlib.util
import json
import os
import weakref

import pytest

from repro.cli import main
from repro.conformance.mutations import no_decrement_program
from repro.dse.config import ArchitectureConfiguration
from repro.memo import CACHE_METRIC, EvaluationMemo
from repro.obs import MetricsRegistry, set_registry
from repro.programs import forwarding, runner
from repro.programs.forwarding import (
    ForwardingProgramFactory,
    build_forwarding_program,
)
from repro.programs.machine import build_machine
from repro.programs.runner import (
    RunOptions,
    expected_forwarding,
    run_forwarding,
)
from repro.tta import compiled
from repro.tta.backends import BACKEND_COMPILED, BACKEND_INTERPRETER
from repro.verify import table1_grid
from repro.verify.backends import run_signature, signature_bytes
from repro.workload import generate_routes, worst_case_workload

BACKENDS = (BACKEND_INTERPRETER, BACKEND_COMPILED)
CONFIG = ArchitectureConfiguration(bus_count=2, table_kind="sequential")
RESTRICTED = {"cks0": frozenset({0}), "msk0": frozenset({0}),
              "shf0": frozenset({0}), "liu0": frozenset({0})}


def clear_evaluation_caches():
    """Empty every evaluation memo (a test helper, not a user knob)."""
    for memo in (forwarding._PROGRAMS, compiled._SCHEDULES, runner._GOLDEN):
        memo.clear()


@pytest.fixture(autouse=True)
def cold():
    clear_evaluation_caches()
    yield
    clear_evaluation_caches()


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def workload():
    routes = generate_routes(10)
    return routes, worst_case_workload(routes, 2)


def _machine(config, routes, connectivity=None):
    machine = build_machine(config, table_capacity=max(len(routes), 100),
                            connectivity=connectivity)
    machine.load_routes(routes)
    return machine


def _lookups(registry, cache, result):
    return registry.counter(CACHE_METRIC, "", ("cache", "result")).value(
        cache=cache, result=result)


class TestColdWarmIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_grid_config_is_byte_identical(self, backend, workload):
        routes, packets = workload
        for config in table1_grid():
            clear_evaluation_caches()
            cold_run = run_forwarding(config, routes, packets,
                                      options=RunOptions(backend=backend))
            warm_run = run_forwarding(config, routes, packets,
                                      options=RunOptions(backend=backend))
            assert cold_run.correct and warm_run.correct
            assert signature_bytes(run_signature(cold_run)) \
                == signature_bytes(run_signature(warm_run)), config

    def test_warm_run_hits_every_memo(self, registry, workload):
        routes, packets = workload
        options = RunOptions(backend=BACKEND_COMPILED)
        run_forwarding(CONFIG, routes, packets, options=options)
        for cache in ("program", "codegen", "golden"):
            assert _lookups(registry, cache, "miss") == 1
            assert _lookups(registry, cache, "hit") == 0
        run_forwarding(CONFIG, routes, packets, options=options)
        for cache in ("program", "codegen", "golden"):
            assert _lookups(registry, cache, "miss") == 1
            assert _lookups(registry, cache, "hit") == 1

    def test_disabled_registry_records_nothing(self, workload):
        routes, packets = workload
        disabled = MetricsRegistry(enabled=False)
        previous = set_registry(disabled)
        try:
            run_forwarding(CONFIG, routes, packets,
                           options=RunOptions(backend=BACKEND_COMPILED))
        finally:
            set_registry(previous)
        assert CACHE_METRIC not in disabled.snapshot()["counters"]


class TestSchemaLabels:
    def _checker(self):
        spec = importlib.util.spec_from_file_location(
            "check_metrics_schema",
            os.path.join(os.path.dirname(__file__), os.pardir,
                         "scripts", "check_metrics_schema.py"))
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        with open(checker.SCHEMA_PATH, encoding="utf-8") as handle:
            return checker, json.load(handle)

    def test_cache_labels_validate_and_unknown_ones_fail(self, registry,
                                                         tmp_path):
        output = tmp_path / "table1.json"
        assert main(["table1", "--entries", "20", "--packets", "4",
                     "--backend", "compiled", "--output", str(output)]) == 0
        checker, schema = self._checker()
        assert checker.check(str(output), schema) == 0
        document = json.loads(output.read_text())
        values = document["metrics"]["counters"][CACHE_METRIC]["values"]
        assert {entry["labels"]["cache"] for entry in values} \
            == {"program", "codegen", "golden"}
        values[0]["labels"]["cache"] = "bogus"
        output.write_text(json.dumps(document))
        assert checker.check(str(output), schema) == 1


class TestProgramMemo:
    def test_cached_program_equals_a_fresh_assembly(self, workload):
        routes, _ = workload
        for config in table1_grid():
            machine = _machine(config, routes)
            first = build_forwarding_program(machine)
            cached = build_forwarding_program(_machine(config, routes))
            fresh = ForwardingProgramFactory(machine).assemble()
            assert cached is first
            assert list(cached) == list(fresh)
            assert cached == fresh

    def test_restricted_connectivity_misses_the_unrestricted_program(
            self, workload):
        routes, packets = workload
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        open_machine = _machine(config, routes)
        tight_machine = _machine(config, routes, connectivity=RESTRICTED)
        assert open_machine.processor.shape_key() \
            != tight_machine.processor.shape_key()
        unrestricted = build_forwarding_program(open_machine)
        restricted = build_forwarding_program(tight_machine)
        assert restricted is not unrestricted
        assert list(restricted) \
            == list(ForwardingProgramFactory(tight_machine).assemble())
        tight_machine.processor.validate_program(restricted)
        for backend in BACKENDS:
            result = run_forwarding(
                config, routes, packets,
                machine=_machine(config, routes, connectivity=RESTRICTED),
                options=RunOptions(backend=backend))
            assert result.correct, result.mismatches

    def test_shape_follows_the_rtu_latency_not_the_config(self, workload):
        routes, _ = workload
        cam = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        slow = _machine(cam.with_cam_latency(3), routes)
        assert _machine(cam, routes).processor.shape_key() \
            != slow.processor.shape_key()
        assert _machine(cam.with_cam_latency(3), routes).processor \
            .shape_key() == slow.processor.shape_key()

    def test_program_factory_mutant_still_fails_on_warm_caches(
            self, workload):
        routes, packets = workload
        assert run_forwarding(CONFIG, routes, packets).correct
        for backend in BACKENDS:
            mutant = run_forwarding(
                CONFIG, routes, packets,
                options=RunOptions(backend=backend,
                                   program_factory=no_decrement_program))
            assert not mutant.correct
            assert run_forwarding(CONFIG, routes, packets,
                                  options=RunOptions(backend=backend)).correct


class TestCodegenMemo:
    def test_hit_emits_no_source(self, monkeypatch, workload):
        routes, packets = workload
        options = RunOptions(backend=BACKEND_COMPILED)
        reference = run_forwarding(CONFIG, routes, packets, options=options)

        def refuse(*args):
            raise AssertionError("source emitted on a codegen hit")

        monkeypatch.setattr(compiled, "_generate", refuse)
        warm = run_forwarding(CONFIG, routes, packets, options=options)
        assert warm.backend == BACKEND_COMPILED
        assert signature_bytes(run_signature(warm)) \
            == signature_bytes(run_signature(reference))

    def test_cached_schedule_matches_a_fresh_generation(self, workload):
        routes, _ = workload
        machine = _machine(CONFIG, routes)
        program = build_forwarding_program(machine)
        cached = compiled.compile_program(machine.processor, program).schedule
        fresh = compiled._generate(machine.processor, program, True)
        assert compiled.compile_program(
            machine.processor, program).schedule is cached
        for field in ("length", "bus_count", "occupancy", "moves_per_pc",
                      "tracked"):
            assert getattr(cached, field) == getattr(fresh, field)

    def test_strictness_is_part_of_the_key(self, workload):
        routes, _ = workload
        machine = _machine(CONFIG, routes)
        program = build_forwarding_program(machine)
        strict = compiled.compile_program(machine.processor, program, True)
        lax = compiled.compile_program(machine.processor, program, False)
        assert strict.schedule is not lax.schedule


class TestGoldenMemo:
    def test_memo_equals_a_recomputation(self, workload):
        routes, packets = workload
        memoized = runner._golden(routes, packets)
        assert memoized == tuple(expected_forwarding(routes, packets))
        # keyed on content: equal copies hit the same entry
        assert runner._golden(list(routes), list(packets)) is memoized

    def test_distinct_workloads_do_not_share_an_entry(self, workload):
        routes, packets = workload
        other = worst_case_workload(routes, 3, seed=5)
        assert runner._golden(routes, other) \
            == tuple(expected_forwarding(routes, other))
        assert runner._golden(routes, packets) \
            == tuple(expected_forwarding(routes, packets))
        assert len(runner._GOLDEN) == 2


class TestNoPinningAndBounds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropped_result_frees_its_processor(self, backend, workload):
        routes, packets = workload
        result = run_forwarding(CONFIG, routes, packets,
                                options=RunOptions(backend=backend))
        processor = weakref.ref(result.machine.processor)
        memory = weakref.ref(result.machine.memory)
        assert len(forwarding._PROGRAMS) and len(runner._GOLDEN)
        if backend == BACKEND_COMPILED:
            assert len(compiled._SCHEDULES)
        del result
        gc.collect()
        assert processor() is None
        assert memory() is None

    def test_each_memo_stays_within_its_bound(self, monkeypatch):
        bound = 2
        memos = (forwarding._PROGRAMS, compiled._SCHEDULES, runner._GOLDEN)
        for memo in memos:
            monkeypatch.setattr(memo, "maxsize", bound)
        routes = generate_routes(10)
        for buses in (1, 2, 3, 4):  # more distinct shapes than the bound
            config = ArchitectureConfiguration(bus_count=buses)
            packets = worst_case_workload(routes, 2, seed=buses)
            result = run_forwarding(
                config, routes, packets,
                options=RunOptions(backend=BACKEND_COMPILED))
            assert result.correct
            for memo in memos:
                assert len(memo) <= bound

    def test_least_recently_used_entry_is_evicted(self, registry):
        memo = EvaluationMemo("test", maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes a
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert len(memo) == 2

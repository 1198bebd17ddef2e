"""Unit tests for the deterministic stage profiler."""

import json

import pytest

from repro.obs import prof
from repro.obs.prof import (
    HANDICAP_ENV,
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    _apply_handicap,
    activate_profiler,
    staged,
    to_speedscope,
)
from repro.simnet import SimClock


def spin(ns: int = 50_000) -> None:
    """Burn at least ``ns`` wall nanoseconds of real work."""
    from time import perf_counter_ns

    deadline = perf_counter_ns() + ns
    while perf_counter_ns() < deadline:
        pass


class TestStageAccounting:
    def test_self_time_excludes_children(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("outer")
        spin()
        profiler.enter("inner")
        spin(500_000)
        profiler.exit()
        spin()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        outer = profile["stages"]["outer"]["wall_seconds"]
        inner = profile["stages"]["inner"]["wall_seconds"]
        assert inner >= 500_000 / 1e9
        # outer's self time is its own two spins, not inner's big one.
        assert outer < inner

    def test_calls_counted_per_stage(self):
        profiler = Profiler()
        profiler.start()
        for _ in range(3):
            profiler.enter("stage")
            profiler.exit()
        profiler.stop()
        assert profiler.profile()["stages"]["stage"]["calls"] == 3

    def test_sim_time_attributed_to_the_advancing_stage(self):
        clock = SimClock()
        profiler = Profiler(clock=clock)
        profiler.start()
        profiler.enter("dispatch")
        clock.advance(10.0)
        profiler.enter("compute")
        profiler.exit()
        profiler.exit()
        profiler.enter("compute")
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["dispatch"]["sim_seconds"] == 10.0
        assert profile["stages"]["compute"]["sim_seconds"] == 0.0
        assert profile["total_sim_seconds"] == 10.0

    def test_nested_sim_advance_is_the_childs(self):
        clock = SimClock()
        profiler = Profiler(clock=clock)
        profiler.start()
        profiler.enter("outer")
        profiler.enter("inner")
        clock.advance(4.0)
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["inner"]["sim_seconds"] == 4.0
        assert profile["stages"]["outer"]["sim_seconds"] == 0.0

    def test_first_clock_binding_wins(self):
        first, second = SimClock(), SimClock()
        profiler = Profiler()
        profiler.bind_clock(first)
        profiler.bind_clock(second)
        first.advance(3.0)
        profiler.start()
        profiler.enter("s")
        profiler.exit()
        profiler.stop()
        assert profiler.clock is first

    def test_recursive_stage_accumulates(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("dht.op")
        profiler.enter("dht.op")  # query_area -> lookup nests dht.op
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["dht.op"]["calls"] == 2
        paths = profiler.path_totals()
        assert ("dht.op",) in paths
        assert ("dht.op", "dht.op") in paths


class TestOverheadAccounting:
    def test_profiler_overhead_is_a_distinct_stage(self):
        profiler = Profiler()
        profiler.start()
        for _ in range(100):
            profiler.enter("hot")
            profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        overhead = profile["stages"]["obs.profiler"]
        assert overhead["wall_seconds"] > 0
        assert overhead["calls"] == 200  # one per enter + one per exit
        assert profile["profiler_overhead_seconds"] == overhead["wall_seconds"]

    def test_totals_reconcile(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("a")
        spin()
        profiler.enter("b")
        spin()
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        accounted = (
            sum(row["wall_seconds"] for row in profile["stages"].values())
            + profile["unattributed_wall_seconds"]
        )
        assert accounted == pytest.approx(profile["total_wall_seconds"], abs=5e-6)

    def test_add_flat_charges_stage_and_credits_caller(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("caller")
        profiler.add_flat("obs.recorder", 1_000_000)
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["obs.recorder"]["wall_seconds"] == pytest.approx(0.001)
        assert profile["stages"]["obs.recorder"]["calls"] == 1
        # The millisecond went to obs.recorder, not the caller's self time.
        assert profile["stages"]["caller"]["wall_seconds"] < 0.001

    def test_profile_of_open_window_is_consistent(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("s")
        profiler.exit()
        profile = profiler.profile()  # window still open
        assert profile["total_wall_seconds"] > 0
        profiler.stop()
        assert profiler.profile()["total_wall_seconds"] >= profile["total_wall_seconds"]


class TestHandicap:
    def test_additive_handicap_inflates_one_stage(self, monkeypatch):
        monkeypatch.setenv(HANDICAP_ENV, "vm.execute:+2.0")
        profiler = Profiler()
        profiler.start()
        profiler.enter("vm.execute")
        profiler.exit()
        profiler.enter("crypto.sign")
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["vm.execute"]["wall_seconds"] >= 2.0
        assert profile["stages"]["crypto.sign"]["wall_seconds"] < 1.0
        assert profile["handicap"] == "vm.execute:+2.0"

    def test_no_handicap_records_none(self, monkeypatch):
        monkeypatch.delenv(HANDICAP_ENV, raising=False)
        profiler = Profiler()
        profiler.start()
        profiler.stop()
        assert profiler.profile()["handicap"] is None

    def test_multiplicative_and_malformed_clauses(self):
        assert _apply_handicap("s:x3", "s", 2.0) == 6.0
        assert _apply_handicap("s:+1.5", "s", 2.0) == 3.5
        assert _apply_handicap("other:x3", "s", 2.0) == 2.0
        assert _apply_handicap("nonsense", "s", 2.0) == 2.0
        assert _apply_handicap("s:xoops", "s", 2.0) == 2.0
        assert _apply_handicap("a:+1,s:x2", "s", 2.0) == 4.0


class TestNullProfilerAndActivation:
    def test_null_profiler_is_inert(self):
        NULL_PROFILER.start()
        NULL_PROFILER.enter("s")
        NULL_PROFILER.add_flat("s", 10)
        NULL_PROFILER.exit()
        NULL_PROFILER.stop()
        assert NULL_PROFILER.profile() == {}
        assert NULL_PROFILER.enabled is False

    def test_profiler_is_a_null_profiler_subtype(self):
        assert isinstance(Profiler(), NullProfiler)

    def test_activation_installs_and_restores(self):
        profiler = Profiler()
        assert prof.ACTIVE is NULL_PROFILER
        with activate_profiler(profiler) as active:
            assert active is profiler
            assert prof.ACTIVE is profiler
        assert prof.ACTIVE is NULL_PROFILER

    def test_activation_restores_on_exception(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with activate_profiler(profiler):
                raise RuntimeError("boom")
        assert prof.ACTIVE is NULL_PROFILER


@staged("test.outer")
def staged_outer(value: int) -> int:
    """Double ``value`` through a nested stage."""
    return staged_inner(value) * 2


@staged("test.inner")
def staged_inner(value: int) -> int:
    return value + 1


@staged("test.fails")
def staged_failure() -> None:
    raise ValueError("stage body failed")


class TestStaged:
    def test_one_stage_per_call(self):
        profiler = Profiler()
        profiler.start()
        with activate_profiler(profiler):
            results = [staged_outer(value) for value in range(3)]
        profiler.stop()
        assert results == [2, 4, 6]
        stages = profiler.profile()["stages"]
        assert stages["test.outer"]["calls"] == 3
        assert stages["test.inner"]["calls"] == 3
        assert set(profiler.path_totals()) == {("test.outer",), ("test.outer", "test.inner")}

    def test_exception_still_closes_the_stage(self):
        profiler = Profiler()
        profiler.start()
        with activate_profiler(profiler):
            profiler.enter("caller")
            with pytest.raises(ValueError, match="stage body failed"):
                staged_failure()
            # The failed stage is closed: this exit pops the caller.
            profiler.exit()
        profiler.stop()
        assert profiler._stack == []
        assert profiler.profile()["stages"]["test.fails"]["calls"] == 1
        assert ("caller", "test.fails") in profiler.path_totals()

    def test_profiling_off_returns_the_plain_result(self):
        assert prof.ACTIVE is NULL_PROFILER
        assert staged_outer(4) == 10
        with pytest.raises(ValueError):
            staged_failure()

    def test_wrapper_keeps_the_function_identity(self):
        assert staged_outer.__name__ == "staged_outer"
        assert staged_outer.__doc__ == "Double ``value`` through a nested stage."


def profiled_fixture() -> Profiler:
    """A profiler with a known two-path shape for the export tests."""
    profiler = Profiler()
    profiler.start()
    profiler.enter("root")
    spin(200_000)
    profiler.enter("child")
    spin(200_000)
    profiler.exit()
    profiler.exit()
    profiler.stop()
    return profiler


class TestExports:
    def test_speedscope_profile_shape(self):
        profiler = profiled_fixture()
        doc = to_speedscope(profiler, name="test")
        assert doc["profiles"][0]["type"] == "sampled"
        samples = doc["profiles"][0]["samples"]
        weights = doc["profiles"][0]["weights"]
        assert len(samples) == len(weights) >= 3  # root, root;child, overhead
        assert doc["profiles"][0]["endValue"] == sum(weights)
        frames = doc["shared"]["frames"]
        names = {frame["name"] for frame in frames}
        assert {"root", "child", "obs.profiler"} <= names
        json.dumps(doc)  # round-trippable

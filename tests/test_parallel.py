"""Tests for the parallel sweep engine (repro.parallel) and its ports.

The contract under test everywhere: any worker count produces results
element-for-element identical to a serial run, and the persistent
exploration store makes warm re-runs free.
"""

import json
import os

import pytest

from repro import parallel
from repro.crypto.modexp import ModExpConfig, iter_configs
from repro.explore import (AlgorithmExplorer, ExplorationStore,
                           RsaDecryptWorkload, exploration_digest)
from repro.macromodel import characterize_platform
from repro.macromodel.persist import modelset_to_dict
from repro.mp.prng import DeterministicPrng
from repro.parallel import (ProcessExecutor, SerialExecutor,
                            ThreadExecutor, chunk_bounds, chunked,
                            executor_scope, get_executor, resolve_jobs)


def _square(x):
    return x * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "4")
        assert resolve_jobs() == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestChunking:
    def test_serial_is_one_chunk(self):
        assert chunk_bounds(10, 1) == [(0, 10)]

    def test_empty(self):
        assert chunk_bounds(0, 4) == []

    def test_bounds_cover_exactly_once(self):
        for n_items in (1, 2, 7, 45, 450):
            for jobs in (2, 3, 4, 8):
                bounds = chunk_bounds(n_items, jobs)
                flat = [i for s, e in bounds for i in range(s, e)]
                assert flat == list(range(n_items))

    def test_deterministic(self):
        assert chunk_bounds(450, 4) == chunk_bounds(450, 4)

    def test_chunked_preserves_order(self):
        items = list(range(23))
        assert [x for c in chunked(items, 4) for x in c] == items


class TestExecutors:
    @pytest.mark.parametrize("make", [
        SerialExecutor, lambda: ThreadExecutor(2),
        lambda: ProcessExecutor(2)])
    def test_map_preserves_order(self, make):
        with make() as pool:
            assert pool.map(_square, list(range(20))) == \
                [x * x for x in range(20)]

    def test_on_result_sees_every_index(self):
        seen = {}
        with ThreadExecutor(2) as pool:
            pool.map(_square, [3, 4, 5],
                     on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 9, 1: 16, 2: 25}

    def test_get_executor_kinds(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
        assert get_executor().kind == "serial"
        assert get_executor(1).kind == "serial"
        pool = get_executor(3)
        assert (pool.kind, pool.jobs) == ("process", 3)
        pool.close()

    def test_executor_scope_reuses_given_executor(self):
        own = SerialExecutor()
        with executor_scope(executor=own) as pool:
            assert pool is own

    def test_map_publishes_obs(self):
        from repro.obs import get_registry, metrics_summary
        with SerialExecutor() as pool:
            pool.map(_square, [1, 2], label="t")
        summary = metrics_summary(get_registry())
        assert summary["parallel.chunks_scheduled{kind=serial}"][
            "value"] == 2


class TestPrngFork:
    def test_fork_is_deterministic(self):
        a = DeterministicPrng(7).fork("mpn_add_n")
        b = DeterministicPrng(7).fork("mpn_add_n")
        assert [a.next_u64() for _ in range(4)] == \
            [b.next_u64() for _ in range(4)]

    def test_fork_ignores_draw_position(self):
        fresh = DeterministicPrng(7)
        drained = DeterministicPrng(7)
        for _ in range(10):
            drained.next_u64()
        assert fresh.fork("x").next_u64() == \
            drained.fork("x").next_u64()

    def test_fork_labels_diverge(self):
        prng = DeterministicPrng(7)
        assert prng.fork("mpn_add_n").next_u64() != \
            prng.fork("mpn_sub_n").next_u64()


@pytest.fixture(scope="module")
def models():
    return characterize_platform(reps=1, sizes=(1, 2, 4, 8, 16))


class TestCharacterizeParallel:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_identical_to_serial(self, jobs):
        serial = characterize_platform(8, 8, reps=1, sizes=(1, 2, 4))
        with ThreadExecutor(jobs) as pool:
            par = characterize_platform(8, 8, reps=1, sizes=(1, 2, 4),
                                        executor=pool)
        assert modelset_to_dict(par) == modelset_to_dict(serial)

    def test_process_identical_to_serial(self):
        serial = characterize_platform(reps=1, sizes=(1, 2, 4))
        with ProcessExecutor(2) as pool:
            par = characterize_platform(reps=1, sizes=(1, 2, 4),
                                        executor=pool)
        assert modelset_to_dict(par) == modelset_to_dict(serial)


def _result_key(results):
    return [(r.label, r.estimated_cycles, r.correct) for r in results]


class TestExploreParallel:
    @pytest.fixture(scope="class")
    def workload(self):
        return RsaDecryptWorkload.bits512()

    @pytest.fixture(scope="class")
    def subset(self):
        return list(iter_configs())[::110]      # 5 spread-out candidates

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_thread_identical_to_serial(self, models, workload, subset,
                                        jobs):
        explorer = AlgorithmExplorer(models, workload)
        off = ExplorationStore(enabled=False)
        serial = explorer.explore(subset, store=off)
        with ThreadExecutor(jobs) as pool:
            par = explorer.explore(subset, executor=pool, store=off)
        assert _result_key(par) == _result_key(serial)

    def test_warm_store_evaluates_nothing(self, models, workload,
                                          subset, tmp_path):
        explorer = AlgorithmExplorer(models, workload)
        cold = explorer.explore(subset,
                                store=ExplorationStore(
                                    cache_dir=str(tmp_path)))
        assert explorer.last_run.evaluated == len(subset)
        # A fresh store object over the same directory simulates a new
        # process: everything must come off disk.
        warm = explorer.explore(subset,
                                store=ExplorationStore(
                                    cache_dir=str(tmp_path)))
        assert explorer.last_run.evaluated == 0
        assert explorer.last_run.cached == len(subset)
        assert _result_key(warm) == _result_key(cold)

    def test_interrupted_run_resumes_without_reevaluation(
            self, models, workload, subset, tmp_path):
        store = ExplorationStore(cache_dir=str(tmp_path))
        explorer = AlgorithmExplorer(models, workload)
        # "Interrupted": only part of the sweep finished and was
        # flushed before the process died.
        explorer.explore(subset[:2], store=store)
        resumed = explorer.explore(
            subset, store=ExplorationStore(cache_dir=str(tmp_path)))
        assert explorer.last_run.cached == 2
        assert explorer.last_run.evaluated == len(subset) - 2
        full = explorer.explore(subset, store=ExplorationStore(
            enabled=False))
        assert _result_key(resumed) == _result_key(full)

    def test_store_rekeys_on_workload_change(self, models, workload,
                                             tmp_path):
        subset = [ModExpConfig()]
        store = ExplorationStore(cache_dir=str(tmp_path))
        explorer = AlgorithmExplorer(models, workload)
        explorer.explore(subset, store=store)
        other = AlgorithmExplorer(
            models, RsaDecryptWorkload(keypair=workload.keypair,
                                       operations=2))
        other.explore(subset,
                      store=ExplorationStore(cache_dir=str(tmp_path)))
        assert other.last_run.evaluated == 1    # different digest

    @pytest.mark.parametrize("document", ["[1]", '"x"', "null",
                                          "{not json", '{"schema": 1}'])
    def test_damaged_store_file_is_a_miss(self, tmp_path, document):
        path = ExplorationStore(cache_dir=str(tmp_path)).path_for("d")
        with open(path, "w") as fh:
            fh.write(document)
        store = ExplorationStore(cache_dir=str(tmp_path))
        rows = store.rows_for("d")
        assert rows == {}
        rows["k"] = {"config": {}, "label": "x"}
        store.flush("d")
        with open(path) as fh:
            assert json.load(fh)["rows"] == {"k": {"config": {},
                                                   "label": "x"}}

    @pytest.mark.parametrize("field, value", [
        ("estimated_cycles", None), ("estimated_cycles", "12"),
        ("wall_seconds", float("nan")), ("correct", 1), ("label", 3),
        ("config", [1]), ("config", {"window": 4}), ("row", [1])])
    def test_damaged_row_is_reevaluated(self, models, workload, tmp_path,
                                        field, value):
        subset = [ModExpConfig()]
        explorer = AlgorithmExplorer(models, workload)
        first = explorer.explore(
            subset, store=ExplorationStore(cache_dir=str(tmp_path)))
        path = ExplorationStore(cache_dir=str(tmp_path)).path_for(
            exploration_digest(models, workload))
        with open(path) as fh:
            entry = json.load(fh)
        (key, row), = entry["rows"].items()
        if field == "row":
            entry["rows"][key] = value
        elif value is None:
            del row[field]
        else:
            row[field] = value
        with open(path, "w") as fh:
            json.dump(entry, fh)
        again = explorer.explore(
            subset, store=ExplorationStore(cache_dir=str(tmp_path)))
        assert explorer.last_run.evaluated == 1
        assert _result_key(again) == _result_key(first)
        with open(path) as fh:
            rewritten = json.load(fh)["rows"][key]
        assert rewritten["estimated_cycles"] == first[0].estimated_cycles

    def test_no_candidates_skips_best_cycles_gauge(self, models,
                                                   workload):
        from repro.obs import get_registry, metrics_summary
        explorer = AlgorithmExplorer(models, workload)
        assert explorer.explore([], store=ExplorationStore(
            enabled=False)) == []
        summary = metrics_summary(get_registry())
        assert "explore.best_cycles" not in summary

    def test_wall_seconds_in_result_dict(self, models, workload):
        explorer = AlgorithmExplorer(models, workload)
        row = explorer.evaluate(ModExpConfig()).as_dict()
        assert set(row) == {"label", "estimated_cycles", "wall_seconds",
                            "correct"}
        assert row["wall_seconds"] > 0


class TestAdcurvesParallel:
    def test_curves_identical_to_serial(self):
        from repro.tie.formulation import (adcurve_aes_block,
                                           adcurve_des_block,
                                           adcurve_mpn_add_n,
                                           adcurve_mpn_addmul_1)

        def snapshot(executor=None):
            curves = [adcurve_mpn_add_n(8, executor=executor),
                      adcurve_mpn_addmul_1(8, executor=executor),
                      adcurve_des_block(executor=executor),
                      adcurve_aes_block(executor=executor)]
            return [[(p.cycles, p.area, p.instructions)
                     for p in curve.points] for curve in curves]

        serial = snapshot()
        with ThreadExecutor(4) as pool:
            assert snapshot(pool) == serial
        with ProcessExecutor(2) as pool:
            assert snapshot(pool) == serial


class TestExploreCliResume:
    def test_resume_without_store_errors(self, capsys):
        from repro.cli import main
        env_dir = os.environ.pop("REPRO_COSTS_CACHE_DIR", None)
        try:
            assert main(["explore", "--stride", "450", "--resume",
                         "--no-cache"]) == 2
        finally:
            if env_dir is not None:
                os.environ["REPRO_COSTS_CACHE_DIR"] = env_dir
        assert "--resume" in capsys.readouterr().err

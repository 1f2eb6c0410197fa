"""Tests for the parallel experiment harness and its result store."""

from __future__ import annotations

import importlib
import json
import os
import shutil
from pathlib import Path

import pytest

import repro
from repro.experiments import fig2, fig6, summary, table51
from repro.harness.api import HarnessError, run_artefacts
from repro.harness.jobs import (JobPolicy, JobSpec, execute_job, expand_jobs,
                                make_job, render_rows, retry_backoff_delay)
from repro.harness.manifest import (STATUS_COMPUTED, STATUS_FAILED,
                                    STATUS_HIT, RunManifest)
from repro.harness.registry import ARTEFACTS, ArtefactSpec
from repro.harness import store as store_module
from repro.harness.store import (ResultStore, rows_from_payload,
                                 rows_to_payload)
from repro.util.hashing import tree_fingerprint

import tests.harness_helpers as helpers

SCALE = 0.02
WORKLOADS = ["li", "com", "swm", "go"]

BOOM = ArtefactSpec("boom", "tests.harness_helpers", "Boom")


# ---------------------------------------------------------------------------
# job model


class TestJobModel:
    def test_expand_jobs_paper_order(self):
        jobs = expand_jobs("fig2", 0.5)
        assert len(jobs) == 18
        assert jobs[0] == JobSpec("fig2", "go", 0.5)
        assert [j.workload for j in jobs][:3] == ["go", "m88", "gcc"]

    def test_expand_jobs_validates_artefact(self):
        with pytest.raises(ValueError, match="unknown artefact"):
            expand_jobs("fig99", 0.5)

    def test_key_is_cell_identity_only(self):
        assert list(make_job("fig2", "li", 0.1).key_fields()) == [
            "artefact", "workload", "scale", "params"]

    def test_key_changes_with_every_component(self, tmp_path):
        store = ResultStore(tmp_path)
        base = make_job("fig2", "li", 0.1)
        assert store.key_for(base) == store.key_for(make_job("fig2", "li", 0.1))
        assert store.key_for(base) != store.key_for(make_job("fig2", "li", 0.2))
        assert store.key_for(base) != store.key_for(make_job("fig2", "go", 0.1))
        assert store.key_for(base) != store.key_for(make_job("fig5", "li", 0.1))
        assert store.key_for(base) != store.key_for(
            make_job("fig2", "li", 0.1, {"max_n": 8}))
        assert store.key_for(base) != store.key_for(base, fingerprint="other")


# ---------------------------------------------------------------------------
# serialization / store


class TestStore:
    def test_rows_round_trip(self):
        rows = fig2.run(scale=SCALE, workloads=["li"])
        payload = json.loads(json.dumps(rows_to_payload(rows)))
        assert rows_from_payload(payload) == rows

    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        rows = fig2.run(scale=SCALE, workloads=["li"])
        key = store.key_for(spec)
        assert store.get(key) is None
        store.put(key, spec, rows)
        assert store.get(key) == rows
        assert store.has(key)
        assert store.clean() == 1
        assert not store.has(key)


class TestStoreCrashSafety:
    """``put`` is atomic: a writer killed at any point never leaves a
    truncated object, only (at worst) a stale ``.tmp`` file."""

    @staticmethod
    def _fork(target, *args):
        import multiprocessing

        proc = multiprocessing.get_context("fork").Process(
            target=target, args=args)
        proc.start()
        proc.join(timeout=60)
        return proc

    @staticmethod
    def _age(path, seconds=120.0):
        """Backdate a file past the stale-tmp age threshold."""
        import os
        import time

        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_writer_killed_before_replace_leaves_no_object(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        rows = fig2.run(scale=SCALE, workloads=["li"])
        key = store.key_for(spec)

        def die_mid_put():
            import os
            import signal

            def killing_replace(src, dst):
                os.kill(os.getpid(), signal.SIGKILL)

            os.replace = killing_replace
            ResultStore(tmp_path).put(key, spec, rows)

        proc = self._fork(die_mid_put)
        assert proc.exitcode == -9  # SIGKILL, not a clean exit
        # No object was exposed; the leftover tmp is visible, never served.
        assert store.get(key) is None
        assert not store.has(key)
        # Moments after the crash the tmp is indistinguishable from an
        # in-flight put, so the default age threshold hides it ...
        assert store.stale_tmps() == []
        stale = store.stale_tmps(min_age=0.0)
        assert len(stale) == 1
        assert stale[0].name.endswith(".tmp")
        # ... and once it has aged past the threshold it is reported.
        self._age(stale[0])
        assert store.stale_tmps() == stale
        # A later writer succeeds and clean() sweeps the leftover.
        store.put(key, spec, rows)
        assert store.get(key) == rows
        assert store.clean() == 2  # the object and the stale tmp
        assert store.stale_tmps(min_age=0.0) == []

    def test_concurrent_writers_same_key_leave_valid_object(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        rows = fig2.run(scale=SCALE, workloads=["li"])
        key = store.key_for(spec)

        def write():
            ResultStore(tmp_path).put(key, spec, rows)

        procs = [self._fork(write) for _ in range(4)]
        assert all(proc.exitcode == 0 for proc in procs)
        assert store.get(key) == rows
        assert store.stale_tmps() == []

    def test_truncated_tmp_is_never_served(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        key = store.key_for(spec)
        path = store._object_path(key)
        path.parent.mkdir(parents=True)
        tmp = path.with_name(f".{path.name}.12345.tmp")
        tmp.write_text('{"row_type": "trunc', encoding="utf-8")
        assert store.get(key) is None
        self._age(tmp)
        assert store.stale_tmps() == [tmp]

    def test_in_flight_put_tmp_is_never_reported_or_swept(self, tmp_path):
        """The race this age threshold exists for: a live writer's fresh
        ``.tmp`` must be invisible to ``stale_tmps`` and survive
        ``clean`` — sweeping it would make the writer's ``os.replace``
        fail mid-``put``."""
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        key = store.key_for(spec)
        path = store._object_path(key)
        path.parent.mkdir(parents=True)
        live = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        live.write_text('{"row_type"', encoding="utf-8")  # mid-write
        assert store.stale_tmps() == []           # not reported ...
        assert store.clean() == 0
        assert live.exists()                      # ... and not swept
        # Once aged past the threshold the same file is dead-writer
        # debris: reported, and clean() removes it.
        self._age(live)
        assert store.stale_tmps() == [live]
        assert store.clean() == 1
        assert not live.exists()


# ---------------------------------------------------------------------------
# parallel == serial


class TestParallelEqualsSerial:
    def test_fig2_fig6_sections_byte_identical(self):
        outcome = run_artefacts([("fig2", SCALE), ("fig6", SCALE)],
                                WORKLOADS, workers=4)
        assert (fig2.render(outcome.rows("fig2"))
                == fig2.render(fig2.run(scale=SCALE, workloads=WORKLOADS)))
        assert (fig6.render(outcome.rows("fig6"))
                == fig6.render(fig6.run(scale=SCALE, workloads=WORKLOADS)))

    def test_summary_parallel_matches_serial(self):
        requests = summary.requests(SCALE)
        serial = run_artefacts(requests, ["li", "com"], workers=0)
        parallel = run_artefacts(requests, ["li", "com"], workers=4)
        assert (summary.compose_sections(parallel)
                == summary.compose_sections(serial))

    def test_cached_rows_render_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = run_artefacts([("fig2", SCALE)], WORKLOADS, workers=2,
                              store=store).rows("fig2")
        cached = run_artefacts([("fig2", SCALE)], WORKLOADS, workers=0,
                               store=store).rows("fig2")
        assert fig2.render(cached) == fig2.render(fresh)


# ---------------------------------------------------------------------------
# inline runs: one trace pass per (workload, scale)

#: the accuracy artefacts, which observe a shared trace
ACCURACY = ("table51", "fig2", "fig5", "fig6", "fig7", "table52",
            "ext_hybrid", "ext_distance")

MIDSTREAM = ArtefactSpec("midstream", "tests.midstream_helpers", "Midstream")


@pytest.fixture
def trace_calls(monkeypatch):
    """Every ``Workload.trace`` call's workload abbreviation, in order."""
    from repro.workloads.base import Workload

    calls = []
    original = Workload.trace

    def counting(self, *args, **kwargs):
        calls.append(self.abbrev)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(Workload, "trace", counting)
    return calls


class TestSharedPass:
    def test_renders_like_each_cell_alone(self, tmp_path):
        kernels = ["li", "tom"]  # one integer and one FP kernel
        store = ResultStore(tmp_path)
        outcome = run_artefacts([(name, SCALE) for name in ACCURACY],
                                kernels, workers=0, store=store)
        for name in ACCURACY:
            alone = {spec: execute_job(spec)
                     for spec in expand_jobs(name, SCALE, kernels)}
            assert (render_rows(name, outcome.rows(name))
                    == render_rows(name, [row for rows in alone.values()
                                          for row in rows])), name
            # one store object per cell, under the key a lone cell uses
            for spec, rows in alone.items():
                assert store.get(store.key_for(spec)) == rows

    def test_one_trace_per_kernel(self, trace_calls):
        run_artefacts([(name, SCALE) for name in ACCURACY], ["li", "tom"],
                      workers=0)
        assert sorted(trace_calls) == ["li", "tom"]

    def test_one_model_per_distinct_config(self, monkeypatch):
        """fig6's 2-bit engine is fig7's, and table52 reads ext_hybrid's
        engine and 16K last-value predictor: 3 engines and 1 predictor
        where each cell alone builds 5 and 2."""
        from repro.core.cloaking import CloakingEngine
        from repro.predictors.value_prediction import LastValuePredictor

        built = []
        for cls in (CloakingEngine, LastValuePredictor):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                built.append(self)
            monkeypatch.setattr(cls, "__init__", counting_init)
        names = ("fig6", "fig7", "table52", "ext_hybrid")
        outcome = run_artefacts([(name, SCALE) for name in names], ["li"],
                                workers=0)
        engines = [m for m in built if isinstance(m, CloakingEngine)]
        predictors = [m for m in built if isinstance(m, LastValuePredictor)]
        assert len(engines) == 3
        assert len(predictors) == 1
        assert predictors[0]._table.capacity == 16 * 1024
        for name in names:
            assert outcome.rows(name) == execute_job(make_job(name, "li",
                                                              SCALE)), name

    def test_timing_figures_keep_their_own_pass(self, trace_calls):
        """fig9 and fig10 share no pass: one fig9+fig10 pass would hold
        both figures' machines at once for one interpretation."""
        run_artefacts([("fig9", SCALE), ("fig10", SCALE)], ["li"],
                      workers=0)
        assert trace_calls == ["li", "li"]

    def test_faulty_observer_fails_alone(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "midstream", MIDSTREAM)
        policy = JobPolicy(retries=1, retry_backoff=0.0)
        outcome = run_artefacts([("midstream", SCALE), ("table51", SCALE)],
                                ["li"], workers=0, retries=policy.retries,
                                retry_backoff=policy.retry_backoff,
                                allow_failures=True)
        records = {job.artefact: job for job in outcome.manifest.jobs}
        failed = records["midstream"]
        assert failed.status == STATUS_FAILED
        assert failed.attempts == policy.attempts
        assert "observer failed mid-stream" in failed.error
        assert records["table51"].status == STATUS_COMPUTED
        assert records["table51"].attempts == 1
        assert outcome.rows("table51") == table51.run(scale=SCALE,
                                                      workloads=["li"])


# ---------------------------------------------------------------------------
# caching + manifest


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest1 = tmp_path / "m1.json"
        manifest2 = tmp_path / "m2.json"
        run_artefacts([("fig2", SCALE)], WORKLOADS, workers=2, store=store,
                      manifest_path=manifest1)
        first = RunManifest.load(manifest1)
        assert first.computed == len(WORKLOADS)
        assert first.hits == 0
        assert all(job.worker is not None for job in first.jobs)

        run_artefacts([("fig2", SCALE)], WORKLOADS, workers=2, store=store,
                      manifest_path=manifest2)
        second = RunManifest.load(manifest2)
        assert second.hits == len(WORKLOADS)
        assert second.computed == 0
        assert second.cache_hit_rate == 1.0
        # the hit keys are exactly the keys computed on the first run
        assert ({job.key for job in first.jobs}
                == {job.key for job in second.jobs})

    def test_manifest_records_backend_and_worker_attribution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = tmp_path / "manifest.json"
        outcome = run_artefacts([("fig2", SCALE)], ["li", "go"], workers=2,
                                store=store, manifest_path=path)
        assert outcome.manifest.backend == "fork"
        loaded = RunManifest.load(path)
        assert loaded.backend == "fork"
        assert all(isinstance(job.worker, str) and ":" in job.worker
                   for job in loaded.jobs)  # the queue worker's host:pid
        assert sum(loaded.by_worker().values()) == 2

        inline = run_artefacts([("fig2", SCALE)], ["li"], workers=0).manifest
        assert inline.backend == "inline"
        assert inline.jobs[0].worker is None
        assert inline.by_worker() == {"inline": 1}

    def test_manifest_without_backend_field_loads_with_default(self, tmp_path):
        path = tmp_path / "old.json"
        data = RunManifest(workers=1).to_json()
        del data["backend"]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert RunManifest.load(path).backend == ""

    def test_manifest_written_into_store_by_default(self, tmp_path):
        store = ResultStore(tmp_path)
        run_artefacts([("fig2", SCALE)], ["li"], workers=0, store=store)
        assert len(store.manifests()) == 1
        manifest = RunManifest.load(store.manifests()[0])
        assert manifest.jobs[0].status == STATUS_COMPUTED
        assert manifest.fingerprint

    def test_config_change_invalidates_cache(self, tmp_path, monkeypatch):
        """A paper configuration is a constant in fingerprinted source, so
        editing it changes the code fingerprint and the cell recomputes."""
        store = ResultStore(tmp_path / "store")
        run_artefacts([("fig2", SCALE)], ["li"], store=store)
        outcome = run_artefacts([("fig2", SCALE)], ["li"], store=store)
        assert outcome.manifest.hits == 1

        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert (tree_fingerprint(tree, exclude=("harness",))
                == store_module.code_fingerprint())
        source = tree / "experiments" / "fig2.py"
        text = source.read_text(encoding="utf-8")
        windows = 'WINDOWS = {"infinite": None, "4K": 4096}'
        assert windows in text
        source.write_text(
            text.replace(windows, windows[:-1] + ', "8K": 8192}'),
            encoding="utf-8")
        edited = tree_fingerprint(tree, exclude=("harness",))
        assert edited != store_module.code_fingerprint()

        monkeypatch.setattr(store_module, "code_fingerprint", lambda: edited)
        outcome = run_artefacts([("fig2", SCALE)], ["li"], store=store)
        assert outcome.manifest.hits == 0
        assert outcome.manifest.computed == 1

    def test_no_cache_flag_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_artefacts([("fig2", SCALE)], ["li"], store=store)
        outcome = run_artefacts([("fig2", SCALE)], ["li"], store=store,
                                use_cache=False)
        assert outcome.manifest.hits == 0
        assert outcome.manifest.computed == 1


# ---------------------------------------------------------------------------
# crash isolation


class TestFailureIsolation:
    @pytest.fixture(autouse=True)
    def _register_boom(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)

    def test_raising_job_does_not_abort_the_sweep(self):
        outcome = run_artefacts([("boom", 1.0)], ["li", "go", "com"],
                                workers=2, retries=0, allow_failures=True)
        manifest = outcome.manifest
        assert len(manifest.failed) == 1
        failed = manifest.failed[0]
        assert failed.workload == helpers.RAISING_WORKLOAD
        assert failed.status == STATUS_FAILED
        assert "injected failure" in failed.error
        assert failed.attempts == 1
        # the healthy cells completed and aggregated
        assert outcome.runs[0].failed == ["go"]
        assert [r.abbrev for r in outcome.rows("boom")] == ["li", "com"]

    def test_dying_worker_fails_one_cell_not_the_sweep(self):
        outcome = run_artefacts([("boom", 1.0)], ["li", "m88", "com"],
                                workers=2, retries=0, allow_failures=True)
        manifest = outcome.manifest
        assert len(manifest.failed) == 1
        failed = manifest.failed[0]
        assert failed.workload == helpers.DYING_WORKLOAD
        assert "worker died" in failed.error
        assert [r.abbrev for r in outcome.rows("boom")] == ["li", "com"]

    def test_bounded_retry_attempts_recorded(self):
        outcome = run_artefacts([("boom", 1.0)], ["go"], workers=1,
                                retries=2, allow_failures=True)
        assert outcome.manifest.failed[0].attempts == 3

    def test_failures_raise_without_allow_failures(self):
        with pytest.raises(HarnessError, match="boom/go"):
            run_artefacts([("boom", 1.0)], ["li", "go"], workers=2,
                          retries=0)

    def test_inline_failure_isolated_too(self):
        outcome = run_artefacts([("boom", 1.0)], ["li", "go"], workers=0,
                                retries=0, allow_failures=True)
        assert len(outcome.manifest.failed) == 1
        assert outcome.manifest.failed[0].worker is None


# ---------------------------------------------------------------------------
# run_artefacts odds and ends


class TestScheduler:
    def test_duplicate_jobs_run_once(self):
        outcome = run_artefacts([("fig2", SCALE), ("fig2", SCALE)], ["li"])
        assert len(outcome.manifest.jobs) == 1
        assert outcome.runs[0].rows == outcome.runs[1].rows != []

    def test_rejects_bad_parameters(self):
        for settings in ({"workers": -1}, {"retries": -1},
                         {"term_grace": -1}, {"retry_backoff": -0.5},
                         {"timeout": 0}, {"backend": "nope"},
                         {"backend": "fork", "workers": 0},
                         {"backend": "worker", "workers": 1}):  # no store
            with pytest.raises(ValueError):
                run_artefacts([("fig2", SCALE)], ["li"], **settings)


class TestHangEscalation:
    @pytest.fixture(autouse=True)
    def _register_boom(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)

    def test_sigterm_ignoring_worker_is_killed(self):
        """A worker that masks SIGTERM must not hang the sweep: the
        scheduler escalates to SIGKILL after ``term_grace``."""
        import time

        started = time.time()
        outcome = run_artefacts(
            [("boom", 1.0)], ["li", helpers.HANGING_WORKLOAD],
            workers=2, retries=0, timeout=1.0, term_grace=0.2,
            allow_failures=True)
        elapsed = time.time() - started
        assert elapsed < 30  # far below the worker's one-hour sleep
        failed = outcome.manifest.failed
        assert [f.workload for f in failed] == [helpers.HANGING_WORKLOAD]
        assert "timed out" in failed[0].error
        assert [r.abbrev for r in outcome.rows("boom")] == ["li"]


class TestMonotonicDurations:
    def test_wall_clock_step_does_not_time_out_a_fork_job(self,
                                                          monkeypatch):
        """Durations and timeouts run on a monotonic clock: stepping the
        wall clock an hour forward while a job runs must neither kill it
        under ``timeout=30`` nor inflate its recorded wall time."""
        import time

        from repro.harness.jobs import set_injection_hook

        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        real_time = time.time
        stepped_at = real_time() + 0.3
        monkeypatch.setattr(
            time, "time",
            lambda: real_time() + (3600.0 if real_time() > stepped_at
                                   else 0.0))
        previous = set_injection_hook(lambda spec: time.sleep(1.0))
        try:
            outcome = run_artefacts([("boom", 1.0)], ["li"], workers=1,
                                    retries=0, timeout=30,
                                    backend="fork", allow_failures=True)
        finally:
            set_injection_hook(previous)
        [record] = outcome.manifest.jobs
        assert record.status == STATUS_COMPUTED, record.error
        assert record.wall_time < 30
        assert outcome.manifest.wall_time < 30


class TestRetryBackoff:
    def test_backoff_is_exponential_with_bounded_jitter(self):
        spec = make_job("fig2", "li", SCALE)
        delays = [retry_backoff_delay(spec, attempt, 0.1)
                  for attempt in (1, 2, 3)]
        for attempt, delay in zip((1, 2, 3), delays):
            base = 0.1 * 2 ** (attempt - 1)
            assert base * 0.5 <= delay <= base
        assert delays[0] < delays[1] < delays[2]

    def test_backoff_is_deterministic_per_job(self):
        base = JobPolicy().retry_backoff
        a = retry_backoff_delay(make_job("fig2", "li", SCALE), 2, base)
        b = retry_backoff_delay(make_job("fig2", "li", SCALE), 2, base)
        c = retry_backoff_delay(make_job("fig2", "go", SCALE), 2, base)
        assert a == b
        assert a != c

    def test_zero_backoff_disables_delay(self):
        assert retry_backoff_delay(make_job("fig2", "li", SCALE), 3,
                                   0.0) == 0.0

    def test_backoff_is_sensitive_to_params(self):
        plain = retry_backoff_delay(make_job("fig2", "li", SCALE), 2, 0.1)
        tuned = retry_backoff_delay(
            make_job("fig2", "li", SCALE, {"max_n": 8}), 2, 0.1)
        assert plain != tuned

    def test_backoff_derives_from_the_job_key_not_worker_state(self):
        """Any backend (or host) computes the same retry schedule."""
        spec = make_job("fig2", "li", SCALE)
        # the spec as a queue worker on another host rebuilds it
        shipped = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert (retry_backoff_delay(shipped, 2, 0.1)
                == retry_backoff_delay(spec, 2, 0.1))

    def test_retries_are_spaced_by_backoff(self, monkeypatch):
        """The failing cell's attempts must be separated in time."""
        import time

        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        started = time.time()
        outcome = run_artefacts(
            [("boom", 1.0)], ["go"], workers=1, retries=2,
            retry_backoff=0.2, allow_failures=True)
        elapsed = time.time() - started
        assert outcome.manifest.failed[0].attempts == 3
        # two backoffs of at least 0.2*0.5 and 0.4*0.5 seconds
        assert elapsed >= 0.3


# ---------------------------------------------------------------------------
# store quarantine


class TestQuarantine:
    def _corrupt(self, store, spec, text):
        key = store.key_for(spec)
        store.put(key, spec, fig2.run(scale=SCALE, workloads=["li"]))
        store._object_path(key).write_text(text, encoding="utf-8")
        return key

    def test_undecodable_object_is_quarantined_not_served(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        key = self._corrupt(store, spec, "not json at all")
        assert store.get(key) is None
        assert len(store.quarantined()) == 1
        assert "corrupt" in store.quarantine_reason(store.quarantined()[0])
        assert not store.has(key)  # the bad object is gone from objects/

    def test_schema_drift_rejected_not_empty(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        key = self._corrupt(store, spec,
                            json.dumps({"rowType": "x", "rows": [{}]}))
        assert store.get(key) is None  # NOT an empty-rows cache hit
        assert len(store.quarantined()) == 1

    def test_rows_from_payload_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed rows payload"):
            rows_from_payload({"rows": []})
        with pytest.raises(ValueError, match="no row_type"):
            rows_from_payload({"row_type": None, "rows": [{"a": 1}]})
        assert rows_from_payload({"row_type": None, "rows": []}) == []

    def test_sweep_recomputes_after_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        run_artefacts([("fig2", SCALE)], ["li"], store=store)
        path = store.objects()[0]
        path.write_text("{broken", encoding="utf-8")
        outcome = run_artefacts([("fig2", SCALE)], ["li"], store=store)
        assert outcome.manifest.hits == 0
        assert outcome.manifest.computed == 1
        assert len(store.quarantined()) == 1

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 40) is None
        assert store.quarantined() == []

    def test_clean_removes_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig2", "li", SCALE)
        key = self._corrupt(store, spec, "junk")
        store.get(key)
        assert store.quarantined()
        store.clean()
        assert store.quarantined() == []


# ---------------------------------------------------------------------------
# harness CLI


class TestHarnessCLI:
    def test_run_writes_store_and_manifest(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        args = ["run", "fig2", "--scale", str(SCALE), "--workers", "2",
                "--workloads", "li", "com", "--store", str(tmp_path),
                "--quiet"]
        assert harness_main(args) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        store = ResultStore(tmp_path)
        assert len(store.objects()) == 2
        assert len(store.manifests()) == 1
        # the rerun hits the cache and prints byte-identical stdout
        assert harness_main(args) == 0
        assert capsys.readouterr().out == out
        assert RunManifest.load(store.manifests()[-1]).cache_hit_rate == 1.0

    def test_status_and_clean(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        run_artefacts([("fig2", SCALE)], ["li"], store=ResultStore(tmp_path))
        assert harness_main(["status", "--store", str(tmp_path)]) == 0
        assert "objects:      1" in capsys.readouterr().out
        assert harness_main(["clean", "--store", str(tmp_path)]) == 0
        assert ResultStore(tmp_path).objects() == []

    def test_run_unknown_artefact(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        assert harness_main(["run", "nope", "--store", str(tmp_path)]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["repro", "nope"],
        ["harness", "run", "nope"],
        ["harness", "enqueue", "nope"],
        ["harness", "run", "fig6", "--backend", "numpy"],
        ["harness", "enqueue", "fig6", "--backend", "numpy"],
    ], ids=["repro", "run", "enqueue", "run-backend", "enqueue-backend"])
    def test_usage_errors_start_with_error(self, tmp_path, capsys, argv):
        from repro.__main__ import main as cli_main
        from repro.harness.__main__ import main as harness_main

        main = cli_main if argv[0] == "repro" else harness_main
        assert main(argv[1:] + ["--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: "), err

    @pytest.mark.parametrize("command", ["run", "enqueue"])
    @pytest.mark.parametrize("workloads, message", [
        (["xx"], "unknown workload abbreviation 'xx'; valid abbreviations: "
                 "go, m88"),
        (["li", "li"], "duplicate workload abbreviation 'li'"),
    ], ids=["unknown", "duplicate"])
    def test_bad_workloads_are_usage_errors(self, tmp_path, capsys,
                                            command, workloads, message):
        from repro.harness.__main__ import main as harness_main

        assert harness_main([command, "fig5", "--workloads", *workloads,
                             "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_repro_cli_writes_nothing_by_default(self, tmp_path, capsys,
                                                 monkeypatch):
        """``python -m repro`` runs inline with no store: no results/store,
        no manifest, unless --store or --json asks for a file."""
        from repro.__main__ import main as cli_main

        monkeypatch.chdir(tmp_path)
        assert cli_main(["fig2", "--scale", str(SCALE),
                         "--workloads", "li"]) == 0
        assert "Figure 2" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# satellite fixes


class TestSatellites:
    def test_artefact_help_passes_through(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["fig2", "--help"]) == 0
        assert "--scale" in capsys.readouterr().out

    def test_artefact_bad_option_exit_status(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["fig2", "--no-such-flag"]) == 2

    def test_unknown_workload_is_a_clean_error(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["fig2", "--workloads", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload abbreviation 'nope'" in err
        assert "li" in err  # the valid list is shown

    def test_select_workloads_rejects_duplicates(self):
        from repro.experiments.runner import select_workloads

        with pytest.raises(ValueError, match="duplicate"):
            select_workloads(["li", "li"])

    def test_json_flag_emits_store_format(self, tmp_path):
        from repro.__main__ import main as cli_main

        path = tmp_path / "rows.json"
        assert cli_main(["fig2", "--scale", str(SCALE), "--workloads", "li",
                         "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["row_type"] == "repro.experiments.fig2:LocalityRow"
        assert rows_from_payload(payload) == fig2.run(scale=SCALE,
                                                      workloads=["li"])


class TestRegistryHygiene:
    def test_register_rejects_duplicate_names(self):
        from repro.harness.registry import register

        with pytest.raises(ValueError, match="already registered"):
            register(ArtefactSpec("fig2", "tests.harness_helpers", "Dup"))
        # The original registration is untouched.
        assert ARTEFACTS["fig2"].module == "repro.experiments.fig2"

    def test_register_accepts_fresh_name_once(self):
        from repro.harness.registry import register

        spec = ArtefactSpec("fresh-artefact", "tests.harness_helpers",
                            "Fresh")
        try:
            assert register(spec) is spec
            assert ARTEFACTS["fresh-artefact"] is spec
            with pytest.raises(ValueError, match="fresh-artefact"):
                register(ArtefactSpec("fresh-artefact",
                                      "tests.harness_helpers", "Again"))
        finally:
            ARTEFACTS.pop("fresh-artefact", None)

    def test_ext_static_distance_is_registered(self):
        from repro.harness.registry import get_artefact

        spec = get_artefact("ext_static_distance")
        assert spec.module == "repro.experiments.ext_static_distance"

    def test_every_artefact_module_is_fingerprinted(self):
        """The store key is the cell identity plus a code fingerprint that
        skips ``repro/harness``, so an artefact module (and the
        configuration constants it bakes in) must live outside it."""
        package = Path(repro.__file__).resolve().parent
        for spec in ARTEFACTS.values():
            module = importlib.import_module(spec.module)
            relative = Path(module.__file__).resolve().relative_to(package)
            assert relative.parts[0] != "harness", spec.name

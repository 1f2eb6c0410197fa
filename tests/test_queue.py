"""Tests for the leased work queue, the worker loop and the queue
execution backends — including the parallel==serial byte-identity
guarantee across all three backends and the failure-model drills."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from repro.experiments import fig2
from repro.harness import (
    ARTEFACTS,
    ArtefactSpec,
    JobPolicy,
    JobQueue,
    ResultStore,
    run_artefacts,
    worker_loop,
)
from repro.harness.jobs import JobSpec, make_job, set_injection_hook
from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED
from repro.harness.queue import DEFAULT_LEASE_TTL, default_worker_id
from repro.harness.worker import poll_delay

import tests.harness_helpers as helpers

SCALE = 0.02
WORKLOADS = ["li", "com", "swm", "go"]

BOOM = ArtefactSpec("boom", "tests.harness_helpers", "Boom")


def _enqueue(queue, store, workload="li", policy=JobPolicy()):
    spec = make_job("fig2", workload, SCALE)
    key = store.key_for(spec)
    queue.enqueue(spec, key, policy)
    return spec, key


def _note_and_sleep(log, seconds, spec):
    """Injection hook: append ``pid ppid start`` of the process running
    the job to ``log``, then sleep ``seconds``."""
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()} {os.getppid()} {time.monotonic()}\n")
    time.sleep(seconds)


def _kill_the_lease_owner_once(queue_root, key, log, spec):
    """Injection hook: append ``pid lease-owner start`` to ``log``; the
    first attempt then SIGKILLs the worker holding its lease.  Every
    attempt sleeps 1 s."""
    owner = JobQueue(queue_root).lease_info(key)["pid"]
    first = not _attempts(log)
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()} {owner} {time.monotonic()}\n")
    if first:
        os.kill(owner, signal.SIGKILL)
    time.sleep(1.0)


def _attempts(log):
    """The complete lines an injection hook has appended to ``log``."""
    try:
        text = log.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    return text.splitlines()[:text.count("\n")]


@contextmanager
def _hooked(hook):
    previous = set_injection_hook(hook)
    try:
        yield
    finally:
        set_injection_hook(previous)


class _Overran(BaseException):
    """Raised by :func:`_deadline`; not an ``Exception``, so no
    ``except Exception`` in the code under test can swallow it."""


@contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, a block still running after ``seconds``."""
    def _expired(signum, frame):
        raise _Overran(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _running(pid):
    """Whether ``pid`` is alive; a zombie awaiting its reaper is not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ---------------------------------------------------------------------------
# JobSpec round-trip serialization


class TestJobSpecRoundTrip:
    def test_round_trip_through_json_text(self):
        spec = make_job("fig2", "li", 0.1)
        data = json.loads(json.dumps(spec.to_json()))
        assert JobSpec.from_json(data) == spec

    def test_round_trip_preserves_tuple_params_and_key(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_job("fig5", "go", 0.25,
                        {"sizes": (128, 256), "backend": "numpy"})
        rebuilt = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec
        assert rebuilt.params_dict == {"sizes": (128, 256),
                                       "backend": "numpy"}
        assert store.key_for(rebuilt) == store.key_for(spec)


# ---------------------------------------------------------------------------
# lease lifecycle


def _claim_and_abandon(queue_root, worker_id):
    """Child-process body: lease a job, then die without finishing it."""
    JobQueue(queue_root).claim(worker_id)


def _drain_victim(queue_root, store_root):
    """Child-process body: run the worker loop until killed."""
    worker_loop(JobQueue(queue_root), ResultStore(store_root),
                worker_id="victim", poll=0.01)


class TestLeaseLifecycle:
    def test_claim_returns_the_serialized_spec(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec, key = _enqueue(queue, store)
        claim = queue.claim("w1")
        assert claim is not None
        assert claim.spec == spec
        assert claim.key == key
        assert claim.attempt == 1
        assert claim.worker == "w1"

    def test_double_lease_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _enqueue(queue, ResultStore(tmp_path / "s"))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # live lease blocks the claim
        assert queue.stats()["leased"] == 1

    def test_release_allows_reclaim_with_attempt_count(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        first = queue.claim("w1")
        queue.release(key, error="flaky")
        second = queue.claim("w2")
        assert first.attempt == 1
        assert second.attempt == 2

    def test_backoff_window_blocks_claims(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        queue.claim("w1")
        queue.release(key, error="boom", not_before=time.time() + 30)
        assert queue.claim("w2") is None
        assert queue.stats()["backing_off"] == 1

    def test_expired_lease_is_reclaimed(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        _enqueue(queue, ResultStore(tmp_path / "s"))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None  # not expired yet
        time.sleep(0.06)
        stolen = queue.claim("w2")
        assert stolen is not None
        assert stolen.attempt == 2  # the dead attempt still counted

    def test_dead_owner_lease_is_taken_over(self, tmp_path):
        """A lease whose owner pid is gone is reclaimable immediately,
        long before its deadline."""
        queue = JobQueue(tmp_path / "q", lease_ttl=DEFAULT_LEASE_TTL)
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_claim_and_abandon,
                           args=(queue.root, "doomed"))
        proc.start()
        proc.join()
        lease = queue.lease_info(key)
        assert lease is not None and lease["pid"] == proc.pid
        assert lease["deadline"] > time.time()  # far from expiry
        takeover = queue.claim("survivor")
        assert takeover is not None
        assert takeover.attempt == 2

    def test_exhausted_budget_finalizes_as_failed(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.05)
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"),
                          policy=JobPolicy(retries=0))
        queue.claim("w1")
        time.sleep(0.06)
        assert queue.claim("w2") is None
        outcome = queue.outcome(key)
        assert outcome["status"] == "failed"
        assert "retry budget exhausted" in outcome["error"]
        assert outcome["attempts"] == 1

    def test_complete_and_re_enqueue_reset(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec, key = _enqueue(queue, store)
        claim = queue.claim("w1")
        queue.complete(key, worker=claim.worker, elapsed=0.5,
                       attempts=claim.attempt)
        assert queue.remaining() == []
        assert queue.outcome(key)["status"] == "ok"
        assert queue.claim("w2") is None  # done jobs are never re-leased
        # a fresh enqueue of the same cell resets outcome and retry state
        assert queue.enqueue(spec, key) is False  # job file already known
        assert queue.outcome(key) is None
        assert queue.claim("w2").attempt == 1

    def test_claim_returns_the_enqueued_policy(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        policy = JobPolicy(timeout=3, retries=2, term_grace=0.5,
                           retry_backoff=0.0)
        _enqueue(queue, ResultStore(tmp_path / "s"), policy=policy)
        assert queue.claim("w1").policy == policy

    def test_job_without_a_policy_is_claimed_under_the_defaults(
            self, tmp_path):
        """A job file written before jobs carried a policy."""
        queue = JobQueue(tmp_path / "q")
        spec = make_job("fig2", "li", SCALE)
        key = ResultStore(tmp_path / "s").key_for(spec)
        jobs = queue.root / "jobs"
        jobs.mkdir(parents=True)
        (jobs / f"{key}.json").write_text(
            json.dumps({"key": key, "spec": spec.to_json()}),
            encoding="utf-8")
        claim = queue.claim("w1")
        assert claim.spec == spec
        assert claim.policy == JobPolicy()

    def test_job_with_a_malformed_policy_fails_instead_of_crashing(
            self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        job = queue.root / "jobs" / f"{key}.json"
        document = json.loads(job.read_text(encoding="utf-8"))
        document["policy"]["retries"] = -1
        job.write_text(json.dumps(document), encoding="utf-8")
        assert queue.claim("w1") is None
        outcome = queue.outcome(key)
        assert outcome["status"] == "failed"
        assert "malformed job policy" in outcome["error"]
        assert queue.lease_info(key) is None

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            JobQueue(tmp_path, lease_ttl=0)

    def test_renewed_lease_outlives_its_ttl_for_its_owner_only(
            self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_ttl=0.2)
        _, key = _enqueue(queue, ResultStore(tmp_path / "s"))
        assert queue.claim("w1") is not None
        for _ in range(5):  # 0.5 s in all, well past one TTL
            time.sleep(0.1)
            assert queue.renew(key, "w1")
            assert queue.claim("w2") is None
        assert not queue.renew(key, "w2")  # only the owner renews
        queue.release(key)
        assert not queue.renew(key, "w1")  # nothing left to renew


# ---------------------------------------------------------------------------
# the worker loop


class TestWorkerLoop:
    def test_drains_queue_into_store(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        specs = [_enqueue(queue, store, w) for w in ("li", "com")]
        stats = worker_loop(queue, store, worker_id="w1", poll=0.01)
        assert stats.claimed == 2
        assert stats.completed == 2
        assert stats.failed == 0
        for spec, key in specs:
            assert store.get(key) == fig2.run(scale=SCALE,
                                              workloads=[spec.workload])
            outcome = queue.outcome(key)
            assert outcome == {"status": "ok", "worker": "w1",
                               "elapsed": outcome["elapsed"],
                               "attempts": 1, "error": None}

    def test_failing_job_retries_then_finalizes(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        spec = make_job("boom", helpers.RAISING_WORKLOAD, 1.0)
        key = store.key_for(spec)
        queue.enqueue(spec, key, JobPolicy(retries=1, retry_backoff=0.01))
        stats = worker_loop(queue, store, worker_id="w1", poll=0.01)
        assert stats.claimed == 2       # original attempt + one retry
        assert stats.failed == 2
        assert stats.finalized == 1
        outcome = queue.outcome(key)
        assert outcome["status"] == "failed"
        assert outcome["attempts"] == 2
        assert "injected failure" in outcome["error"]

    def test_worker_exits_immediately_on_empty_queue(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        stats = worker_loop(queue, store, poll=0.01)
        assert stats.claimed == 0

    def test_default_worker_id_is_host_pid(self):
        host, _, pid = default_worker_id().partition(":")
        assert host
        assert int(pid) > 0

    def test_poll_delay_is_deterministic_and_in_range(self):
        for worker_id in ("w1", "w2", "host-3:1234"):
            delay = poll_delay(worker_id, poll=0.05)
            assert delay == poll_delay(worker_id, poll=0.05)
            assert 0.025 <= delay < 0.05

    def test_poll_delay_dephases_a_lockstep_fleet(self):
        delays = {poll_delay(f"worker-{i}") for i in range(16)}
        assert len(delays) > 8  # worker-id hash spreads the wakeups

    def test_sigterm_kill_drill_releases_the_held_lease(self, tmp_path,
                                                        monkeypatch):
        """A worker drained with SIGTERM mid-job hands its lease back on
        the way out: the job is immediately reclaimable by a successor
        (with the attempt counted) instead of stranded until expiry."""
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        queue = JobQueue(tmp_path / "q", lease_ttl=DEFAULT_LEASE_TTL)
        store = ResultStore(tmp_path / "s")
        spec = make_job("boom", helpers.SLEEPING_WORKLOAD, 1.0)
        key = store.key_for(spec)
        queue.enqueue(spec, key)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_drain_victim,
                           args=(queue.root, store.root))
        proc.start()
        try:
            deadline = time.time() + 10
            while queue.lease_info(key) is None:
                assert time.time() < deadline, "worker never claimed"
                time.sleep(0.01)
            time.sleep(0.05)  # let the claim reach the sleeping job body
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(10)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
                pytest.fail("drained worker did not exit on SIGTERM")
        assert proc.exitcode == 128 + signal.SIGTERM
        assert queue.lease_info(key) is None  # released, not stranded
        successor = queue.claim("successor")
        assert successor is not None
        assert successor.attempt == 2  # the interrupted attempt counted


# ---------------------------------------------------------------------------
# the worker execution backend: byte-identity across backends


class TestBackendParity:
    def test_all_three_backends_render_byte_identical(self, tmp_path):
        serial = fig2.render(fig2.run(scale=SCALE, workloads=WORKLOADS))
        for backend, workers in (("inline", 0), ("fork", 2), ("worker", 2)):
            store = ResultStore(tmp_path / backend)
            outcome = run_artefacts([("fig2", SCALE)], WORKLOADS,
                                    workers=workers, backend=backend,
                                    store=store)
            assert fig2.render(outcome.rows("fig2")) == serial, backend
            assert outcome.manifest.backend == backend

    def test_four_worker_drain_matches_serial(self, tmp_path):
        """The ISSUE's acceptance drill: a 4-worker queue drain of the
        full 18-kernel grid produces a byte-identical report."""
        store = ResultStore(tmp_path / "store")
        outcome = run_artefacts([("fig2", SCALE)], workers=4,
                                backend="worker", store=store)
        assert (fig2.render(outcome.rows("fig2"))
                == fig2.render(fig2.run(scale=SCALE)))
        manifest = outcome.manifest
        assert manifest.backend == "worker"
        assert manifest.computed == 18
        # per-worker attribution: every computed cell names its queue
        # worker as host:pid, and the counts add back up to the total
        for record in manifest.jobs:
            assert record.status == STATUS_COMPUTED
            assert isinstance(record.worker, str) and ":" in record.worker
        assert sum(manifest.by_worker().values()) == 18

    def test_worker_backend_results_are_cache_hits_later(self, tmp_path):
        store = ResultStore(tmp_path)
        run_artefacts([("fig2", SCALE)], ["li", "com"], workers=2,
                      backend="worker", store=store)
        rerun = run_artefacts([("fig2", SCALE)], ["li", "com"], workers=0,
                              store=store)
        assert rerun.manifest.hits == 2
        assert rerun.manifest.computed == 0

    def test_worker_backend_requires_a_store(self):
        with pytest.raises(ValueError, match="requires a result store"):
            run_artefacts([("fig2", SCALE)], ["li"], workers=1,
                          backend="worker", store=None)


class TestWorkerBackendFailures:
    @pytest.fixture(autouse=True)
    def _register_boom(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)

    def test_crashed_and_raising_cells_fail_without_sinking_the_drain(
            self, tmp_path):
        """One cell raises, one kills the child running it mid-job; both
        end up terminally failed while the healthy cells complete."""
        store = ResultStore(tmp_path)
        outcome = run_artefacts(
            [("boom", 1.0)],
            ["li", helpers.RAISING_WORKLOAD, helpers.DYING_WORKLOAD, "com"],
            workers=2, retries=0, backend="worker", store=store,
            allow_failures=True)
        failed = {record.workload: record
                  for record in outcome.manifest.failed}
        assert set(failed) == {helpers.RAISING_WORKLOAD,
                               helpers.DYING_WORKLOAD}
        assert "injected failure" in failed[helpers.RAISING_WORKLOAD].error
        assert "worker died" in failed[helpers.DYING_WORKLOAD].error
        assert [r.abbrev for r in outcome.rows("boom")] == ["li", "com"]
        assert outcome.runs[0].failed == [helpers.RAISING_WORKLOAD,
                                          helpers.DYING_WORKLOAD]

    def test_drain_poll_reaps_a_dead_worker_behind_a_live_one(self):
        """One poll reaps every exited local worker, not only those
        before the first live one: an unreaped zombie passes the queue's
        ``os.kill(pid, 0)`` owner check and holds its lease for the TTL."""
        from repro.harness.backends.worker import await_drain

        ctx = multiprocessing.get_context("fork")
        alive = ctx.Process(target=time.sleep, args=(60,))
        dead = ctx.Process(target=time.sleep, args=(0,))
        alive.start()
        dead.start()
        try:
            deadline = time.monotonic() + 10
            # wait for the exit without reaping it (WNOWAIT)
            while os.waitid(os.P_PID, dead.pid, os.WEXITED | os.WNOHANG
                            | os.WNOWAIT) is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            polls = iter((["key"], []))  # one drain round, then drained
            queue = type("OnePollQueue", (), {
                "remaining": lambda self, keys: next(polls)})()
            await_drain(queue, ["key"], [alive, dead])
            with pytest.raises(ChildProcessError):
                os.waitpid(dead.pid, os.WNOHANG)
        finally:
            alive.terminate()
            alive.join()
            dead.join(1)


# ---------------------------------------------------------------------------
# one failure model: drills through the queue workers' per-claim children


def _run_cli(tmpdir, argv):
    """Forked-process body: ``python -m repro`` with its TMPDIR at
    ``tmpdir``."""
    from repro.harness.__main__ import run_main

    tempfile.tempdir = tmpdir
    sys.exit(run_main(argv))


class TestQueueWorkerFailureModel:
    def test_job_outliving_its_lease_ttl_runs_once(self, tmp_path):
        """The heartbeat keeps a live worker's lease: a 2 s job under a
        0.5 s TTL is neither stolen nor charged a second attempt."""
        log = tmp_path / "attempts.log"
        with _hooked(partial(_note_and_sleep, log, 2.0)), _deadline(60):
            outcome = run_artefacts([("fig2", SCALE)], ["li"], workers=2,
                                    backend="worker", lease_ttl=0.5,
                                    store=ResultStore(tmp_path / "s"))
        [record] = outcome.manifest.jobs
        assert record.status == STATUS_COMPUTED, record.error
        assert record.attempts == 1
        assert len(_attempts(log)) == 1  # ran once, in one process

    def test_hung_job_is_killed_at_its_timeout(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        started = time.monotonic()
        with _deadline(60):
            outcome = run_artefacts(
                [("boom", 1.0)], ["li", helpers.HANGING_WORKLOAD],
                workers=2, retries=0, timeout=1, term_grace=0.2,
                backend="worker", store=ResultStore(tmp_path),
                allow_failures=True)
        assert time.monotonic() - started < 20
        failed = outcome.manifest.failed
        assert [f.workload for f in failed] == [helpers.HANGING_WORKLOAD]
        assert "timed out after 1s" in failed[0].error
        assert [r.abbrev for r in outcome.rows("boom")] == ["li"]

    def test_killed_workers_lease_is_reclaimed_and_its_child_dies(
            self, tmp_path):
        """SIGKILL one local worker mid-job: the survivor reclaims the
        lease as soon as the drain poll reaps the dead owner (not after
        the TTL), completes the cell, and the dead worker's per-claim
        child goes with it."""
        log = tmp_path / "attempts.log"
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "s")
        key = store.key_for(make_job("fig2", "li", SCALE))
        hook = partial(_kill_the_lease_owner_once, queue.root, key, log)
        with _hooked(hook), _deadline(60):
            outcome = run_artefacts([("fig2", SCALE)], ["li"], workers=2,
                                    backend="worker", store=store,
                                    queue_dir=queue.root)
        [record] = outcome.manifest.jobs
        assert record.status == STATUS_COMPUTED, record.error
        assert record.attempts == 2  # the killed attempt counted
        (child, killed, killed_at), (_, survivor, restarted_at) = [
            line.split() for line in _attempts(log)]
        assert record.worker.rpartition(":")[2] == survivor != killed
        assert float(restarted_at) - float(killed_at) < DEFAULT_LEASE_TTL / 10
        give_up = time.monotonic() + 5
        while _running(int(child)) and time.monotonic() < give_up:
            time.sleep(0.01)
        assert not _running(int(killed))
        assert not _running(int(child))

    def test_sigterm_stops_the_run_its_workers_and_their_children(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)
        run_tmp = tmp_path / "tmp"
        run_tmp.mkdir()
        log = tmp_path / "attempts.log"
        ctx = multiprocessing.get_context("fork")
        with _hooked(partial(_note_and_sleep, log, 3600)):
            run = ctx.Process(target=_run_cli, args=(str(run_tmp), [
                "boom", "--workloads", "li", "com", "--workers", "2",
                "--exec-backend", "fork", "--quiet"]))
            run.start()
        pids = []
        try:
            give_up = time.monotonic() + 30
            while len(_attempts(log)) < 2:  # both workers are mid-job
                assert time.monotonic() < give_up, "jobs never started"
                time.sleep(0.01)
            pids = [int(pid) for line in _attempts(log)
                    for pid in line.split()[:2]]  # children and workers
            os.kill(run.pid, signal.SIGTERM)
            run.join(30)
            assert run.exitcode == 128 + signal.SIGTERM
            assert [pid for pid in pids if _running(pid)] == []
            assert list(run_tmp.iterdir()) == []
        finally:
            for pid in [run.pid] + pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            run.join()

    def test_fork_run_without_a_store_leaves_nothing_behind(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        outcome = run_artefacts([("fig2", SCALE)], ["li", "com"],
                                workers=2, backend="fork")
        assert (fig2.render(outcome.rows("fig2"))
                == fig2.render(fig2.run(scale=SCALE,
                                        workloads=["li", "com"])))
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the policy travels with the job: a worker started apart from the run


@contextmanager
def _awaiting_run(tmp_path, workloads, **policy):
    """A ``boom`` run on the worker backend with no local workers, in a
    thread.  Yields ``(queue, store, result)`` once every job is queued;
    ``result["outcome"]`` holds the run's outcome after the block.  A
    job still pending then is finalized, so the run's thread returns."""
    queue = JobQueue(tmp_path / "q")
    store = ResultStore(tmp_path / "s")
    result = {}

    def run():
        result["outcome"] = run_artefacts(
            [("boom", 1.0)], workloads, workers=0, backend="worker",
            store=store, queue_dir=queue.root, allow_failures=True,
            **policy)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        give_up = time.monotonic() + 30
        while len(queue.job_keys()) < len(workloads):
            assert thread.is_alive() and time.monotonic() < give_up
            time.sleep(0.01)
        yield queue, store, result
    finally:
        for key in queue.remaining():
            queue.finish_failed(key, error="abandoned by the test",
                                attempts=0)
        thread.join(30)
    assert not thread.is_alive(), "the run never returned"


class TestPolicyTravelsWithTheJob:
    @pytest.fixture(autouse=True)
    def _register_boom(self, monkeypatch):
        monkeypatch.setitem(ARTEFACTS, "boom", BOOM)

    def test_external_worker_applies_the_runs_retries(self, tmp_path):
        with _awaiting_run(tmp_path, ["li", helpers.RAISING_WORKLOAD],
                           retries=0) as (queue, store, result), \
                _deadline(30):
            worker_loop(queue, store)
        outcome = result["outcome"]
        [failed] = outcome.manifest.failed
        assert failed.workload == helpers.RAISING_WORKLOAD
        assert failed.attempts == 1
        assert [r.abbrev for r in outcome.rows("boom")] == ["li"]

    def test_external_worker_applies_the_runs_timeout(self, tmp_path):
        started = time.monotonic()
        with _awaiting_run(tmp_path, [helpers.HANGING_WORKLOAD], timeout=1,
                           term_grace=0.2, retries=0) as (queue, store,
                                                         result), \
                _deadline(10):
            worker_loop(queue, store)
        assert time.monotonic() - started < 10
        [failed] = result["outcome"].manifest.failed
        assert "timed out after 1s" in failed.error


# ---------------------------------------------------------------------------
# the distributed CLI: enqueue -> worker -> status -> run


class TestQueueCLI:
    def test_enqueue_worker_drain_and_cached_rerun(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        store_dir = str(tmp_path / "store")
        queue_dir = str(tmp_path / "queue")
        scale = str(SCALE)

        assert harness_main(["enqueue", "fig2", "--scale", scale,
                             "--workloads", "li", "com",
                             "--store", store_dir, "--queue", queue_dir]) == 0
        assert "enqueued 2 jobs" in capsys.readouterr().out

        assert harness_main(["worker", "--queue", queue_dir,
                             "--store", store_dir, "--poll", "0.01",
                             "--quiet"]) == 0
        assert "2 completed" in capsys.readouterr().err

        assert harness_main(["status", "--store", store_dir,
                             "--queue", queue_dir]) == 0
        status_out = capsys.readouterr().out
        assert "jobs:       2" in status_out
        assert "done:       2 (0 failed)" in status_out

        # the drained cells are cache hits for the rendering run, and the
        # report matches a direct serial rendering byte for byte
        assert harness_main(["run", "fig2", "--scale", scale,
                             "--workloads", "li", "com",
                             "--store", store_dir, "--workers", "0",
                             "--quiet"]) == 0
        captured = capsys.readouterr()
        serial = fig2.render(fig2.run(scale=SCALE, workloads=["li", "com"]))
        assert captured.out == serial + "\n"
        assert "2 cache hits, 0 computed" in captured.err

        assert harness_main(["clean", "--store", store_dir,
                             "--queue", queue_dir]) == 0
        assert JobQueue(queue_dir).job_keys() == []

    def test_enqueue_skips_cached_cells(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        store_dir = str(tmp_path / "store")
        run_artefacts([("fig2", SCALE)], ["li"], store=ResultStore(store_dir))
        assert harness_main(["enqueue", "fig2", "--scale", str(SCALE),
                             "--workloads", "li", "com",
                             "--store", store_dir,
                             "--queue", str(tmp_path / "q")]) == 0
        assert "enqueued 1 jobs (1 cache hits skipped)" in (
            capsys.readouterr().out)

    def test_run_exec_backend_worker_end_to_end(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        args = ["run", "fig2", "--scale", str(SCALE),
                "--workloads", "li", "com", "--exec-backend", "worker",
                "--workers", "2", "--store", str(tmp_path), "--quiet"]
        assert harness_main(args) == 0
        out = capsys.readouterr().out
        assert out == fig2.render(fig2.run(scale=SCALE,
                                           workloads=["li", "com"])) + "\n"

    def test_enqueue_unknown_artefact(self, tmp_path, capsys):
        from repro.harness.__main__ import main as harness_main

        assert harness_main(["enqueue", "nope",
                             "--store", str(tmp_path)]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "fig5", "--retries", "-1"],
        ["worker", "--max-jobs", "0"],
        ["worker", "--lease-ttl", "0"],
        ["worker", "--lease-ttl", "-1"],
        ["worker", "--poll", "0"],
        ["run", "fig5", "--timeout", "0"],
    ])
    def test_bad_numeric_options_are_usage_errors(self, argv, tmp_path,
                                                  capsys):
        from repro.harness.__main__ import main as harness_main

        where = (["--queue", str(tmp_path / "q")] if argv[0] == "worker"
                 else ["--scale", "0.1", "--workloads", "li", "com"])
        with pytest.raises(SystemExit) as exited:
            harness_main(argv + where + ["--store", str(tmp_path / "s")])
        assert exited.value.code == 2
        assert f"error: argument {argv[-2]}" in capsys.readouterr().err

"""Tests for the flow-sensitive concurrency families (AS1xx, SH2xx,
RS3xx) and the CFG IR they share.

Each rule gets a triggering and a non-triggering fixture, and the three
seeded-defect tests copy *real* modules from the source tree, inject one
defect, and assert the analyzer finds exactly that defect — proving both
detection and the absence of noise over the production code.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.staticcheck import check_paths
from repro.staticcheck.ir import EDGE_EXC, EDGE_NEXT, build_cfg

SRC = Path(__file__).resolve().parent.parent / "src"

AS_RULES = ["AS101", "AS102", "AS103", "AS104"]
SH_RULES = ["SH201", "SH202", "SH203"]
RS_RULES = ["RS301", "RS302", "RS303"]


def check(tmp_path, source, name="mod.py", rules=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return check_paths(paths=[tmp_path], root=tmp_path, rules=rules)


def rule_ids(report):
    return [finding.rule for finding in report.findings]


# -- the CFG IR ----------------------------------------------------------

def _cfg_for(source):
    func = ast.parse(textwrap.dedent(source)).body[0]
    return build_cfg(func)


def test_cfg_exception_edge_reaches_raise_exit():
    cfg = _cfg_for("""\
        def f():
            g()
            return 1
    """)
    call_node = next(n for n in cfg.statement_nodes()
                     if isinstance(n.stmt, ast.Expr))
    assert (cfg.raise_exit, EDGE_EXC) in call_node.succs
    assert cfg.exit in cfg.reachable_from([call_node.id])


def test_cfg_typed_handler_lets_exceptions_escape():
    cfg = _cfg_for("""\
        def f():
            try:
                g()
            except ValueError:
                pass
    """)
    call_node = next(n for n in cfg.statement_nodes()
                     if isinstance(n.stmt, ast.Expr))
    assert cfg.raise_exit in cfg.reachable_from([call_node.id])


def test_cfg_catch_all_handler_stops_escape():
    cfg = _cfg_for("""\
        def f():
            try:
                g()
            except Exception:
                pass
            return 1
    """)
    call_node = next(n for n in cfg.statement_nodes()
                     if isinstance(n.stmt, ast.Expr))
    assert cfg.raise_exit not in cfg.reachable_from([call_node.id])


def test_cfg_finally_feeds_both_continuations():
    cfg = _cfg_for("""\
        def f():
            try:
                g()
            finally:
                h()
    """)
    h_node = next(n for n in cfg.statement_nodes()
                  if isinstance(n.stmt, ast.Expr)
                  and isinstance(n.stmt.value, ast.Call)
                  and n.stmt.value.func.id == "h")
    reach = cfg.reachable_from([h_node.id])
    assert cfg.exit in reach and cfg.raise_exit in reach


def test_cfg_loop_has_zero_iteration_and_back_edges():
    cfg = _cfg_for("""\
        def f(items):
            for item in items:
                g(item)
            return 1
    """)
    head = next(n for n in cfg.statement_nodes()
                if isinstance(n.stmt, ast.For))
    body = next(n for n in cfg.statement_nodes()
                if isinstance(n.stmt, ast.Expr))
    assert any(kind == EDGE_NEXT for _dst, kind in head.succs)
    assert head.id in cfg.reachable_from([body.id])  # back edge
    assert cfg.exit in cfg.reachable_from([head.id])  # zero-iteration


# -- AS101: blocking call reachable from a coroutine ---------------------

def test_as101_direct_blocking_call(tmp_path):
    report = check(tmp_path, """\
        import time

        async def handler():
            time.sleep(0.1)
    """, rules=AS_RULES)
    assert rule_ids(report) == ["AS101"]
    assert "time.sleep" in report.findings[0].message


def test_as101_aliased_import_still_detected(tmp_path):
    report = check(tmp_path, """\
        import time as clock

        async def handler():
            clock.sleep(0.1)
    """, rules=["AS101"])
    assert rule_ids(report) == ["AS101"]


def test_as101_transitive_through_sync_helper(tmp_path):
    report = check(tmp_path, """\
        import time

        def pause():
            time.sleep(0.5)

        def settle():
            pause()

        async def handler():
            settle()
    """, rules=["AS101"])
    assert rule_ids(report) == ["AS101"]
    assert "settle -> " in report.findings[0].message
    assert "pause" in report.findings[0].message


def test_as101_pathlib_write_text_is_blocking(tmp_path):
    report = check(tmp_path, """\
        async def handler(path):
            path.write_text("x")
    """, rules=["AS101"])
    assert rule_ids(report) == ["AS101"]


def test_as101_clean_coroutine_and_nested_callback(tmp_path):
    report = check(tmp_path, """\
        import asyncio
        import time

        async def handler(loop):
            def deferred():
                time.sleep(0.1)   # runs in an executor, not the loop
            await asyncio.sleep(0)
            await loop.run_in_executor(None, deferred)
    """, rules=["AS101"])
    assert rule_ids(report) == []


def test_as101_sync_function_may_block(tmp_path):
    report = check(tmp_path, """\
        import time

        def plain():
            time.sleep(0.1)
    """, rules=["AS101"])
    assert rule_ids(report) == []


# -- AS102 / AS103: dropped coroutines and tasks -------------------------

def test_as102_unawaited_coroutine(tmp_path):
    report = check(tmp_path, """\
        async def job():
            return 1

        async def main():
            job()
    """, rules=["AS102"])
    assert rule_ids(report) == ["AS102"]
    assert "never awaited" in report.findings[0].message


def test_as102_awaited_and_gathered_are_clean(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        async def job():
            return 1

        async def main():
            await job()
            await asyncio.gather(job(), job())
    """, rules=["AS102"])
    assert rule_ids(report) == []


def test_as103_dropped_task_handle(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        async def job():
            return 1

        async def main():
            asyncio.create_task(job())
    """, rules=["AS103"])
    assert rule_ids(report) == ["AS103"]


def test_as103_assigned_but_never_read_handle(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        async def job():
            return 1

        async def main():
            task = asyncio.create_task(job())
    """, rules=["AS103"])
    assert rule_ids(report) == ["AS103"]


def test_as103_retained_handle_is_clean(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        async def job():
            return 1

        async def main(tasks):
            task = asyncio.create_task(job())
            tasks.append(task)
    """, rules=["AS103"])
    assert rule_ids(report) == []


# -- AS104: synchronous lock across await --------------------------------

def test_as104_sync_lock_held_across_await(tmp_path):
    report = check(tmp_path, """\
        import asyncio
        import threading

        async def handler():
            guard = threading.Lock()
            with guard:
                await asyncio.sleep(0)
    """, rules=["AS104"])
    assert rule_ids(report) == ["AS104"]


def test_as104_async_lock_and_awaitless_section_are_clean(tmp_path):
    report = check(tmp_path, """\
        import asyncio
        import threading

        async def handler(state):
            guard = threading.Lock()
            with guard:
                state.bump()
            async with asyncio.Lock():
                await asyncio.sleep(0)
    """, rules=["AS104"])
    assert rule_ids(report) == []


# -- SH201: class-level mutables -----------------------------------------

def test_sh201_shared_class_body_dict(tmp_path):
    report = check(tmp_path, """\
        class Cache:
            entries = {}

            def put(self, key, value):
                self.entries[key] = value
    """, rules=["SH201"])
    assert rule_ids(report) == ["SH201"]


def test_sh201_rebound_in_init_is_clean(tmp_path):
    report = check(tmp_path, """\
        class Cache:
            entries = {}

            def __init__(self):
                self.entries = {}

            def put(self, key, value):
                self.entries[key] = value
    """, rules=["SH201"])
    assert rule_ids(report) == []


# -- SH202: read/await/write race in a spawned coroutine -----------------

def test_sh202_stale_write_after_await(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        class Counter:
            async def bump(self):
                total = self.total
                await asyncio.sleep(0)
                self.total = total + 1

        async def main(counter: Counter):
            await asyncio.gather(counter.bump(), counter.bump())
    """, rules=["SH202"])
    assert rule_ids(report) == ["SH202"]
    assert "self.total" in report.findings[0].message


def test_sh202_reread_after_await_is_clean(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        class Counter:
            async def bump(self):
                await asyncio.sleep(0)
                self.total = self.total + 1

        async def main(counter: Counter):
            await asyncio.gather(counter.bump(), counter.bump())
    """, rules=["SH202"])
    assert rule_ids(report) == []


def test_sh202_unspawned_coroutine_is_not_flagged(tmp_path):
    report = check(tmp_path, """\
        import asyncio

        class Counter:
            async def bump(self):
                total = self.total
                await asyncio.sleep(0)
                self.total = total + 1

        async def main(counter: Counter):
            await counter.bump()   # sequential: no interleaving writers
    """, rules=["SH202"])
    assert rule_ids(report) == []


# -- SH203: fork closure targets -----------------------------------------

def test_sh203_bound_method_and_lambda_targets(tmp_path):
    report = check(tmp_path, """\
        import multiprocessing

        class Runner:
            def go(self):
                multiprocessing.Process(target=self.work).start()
                multiprocessing.Process(target=lambda: None).start()

            def work(self):
                pass
    """, rules=["SH203"])
    assert rule_ids(report) == ["SH203", "SH203"]


def test_sh203_module_level_target_is_clean(tmp_path):
    report = check(tmp_path, """\
        import multiprocessing

        def work(payload):
            return payload

        def go(payload):
            multiprocessing.Process(target=work, args=(payload,)).start()
    """, rules=["SH203"])
    assert rule_ids(report) == []


# -- RS301: leaked handles -----------------------------------------------

def test_rs301_unclosed_handle(tmp_path):
    report = check(tmp_path, """\
        def read(path):
            handle = open(path)
            return handle.read()
    """, rules=["RS301"])
    assert rule_ids(report) == ["RS301"]


def test_rs301_with_and_try_finally_are_clean(tmp_path):
    report = check(tmp_path, """\
        def read(path):
            handle = open(path)
            try:
                return handle.read()
            finally:
                handle.close()
    """, rules=["RS301"])
    assert rule_ids(report) == []


def test_rs301_ownership_transfer_ends_the_obligation(tmp_path):
    report = check(tmp_path, """\
        import os

        def adopt(path, registry):
            fd = os.open(path, os.O_RDONLY)
            registry.adopt(fd)
    """, rules=["RS301"])
    assert rule_ids(report) == []


# -- RS302: leaked leases ------------------------------------------------

def test_rs302_lease_leaks_on_exception_path(tmp_path):
    report = check(tmp_path, """\
        def drain(queue, run):
            claim = queue.claim("w1")
            if claim is None:
                return
            run(claim.spec)
            queue.complete(claim.key)
    """, rules=["RS302"])
    assert rule_ids(report) == ["RS302"]
    assert "exception path" in report.findings[0].message


def test_rs302_release_in_catch_all_handler_is_clean(tmp_path):
    report = check(tmp_path, """\
        def drain(queue, run):
            claim = queue.claim("w1")
            if claim is None:
                return
            try:
                run(claim.spec)
            except Exception:
                queue.release(claim.key)
                return
            queue.complete(claim.key)
    """, rules=["RS302"])
    assert rule_ids(report) == []


def test_rs302_claim_annotated_parameter_is_an_obligation(tmp_path):
    report = check(tmp_path, """\
        from repro.harness.queue import Claim

        def handle(queue, claim: Claim, run):
            run(claim.spec)
    """, rules=["RS302"])
    assert rule_ids(report) == ["RS302"]


def test_rs302_handoff_to_helper_is_trusted(tmp_path):
    report = check(tmp_path, """\
        def drain(queue, helper):
            claim = queue.claim("w1")
            if claim is None:
                return
            helper(claim)
    """, rules=["RS302"])
    assert rule_ids(report) == []


# -- RS303: orphaned tmp files -------------------------------------------

def test_rs303_tmp_orphaned_on_exception_path(tmp_path):
    report = check(tmp_path, """\
        import os

        def write(path, payload):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
    """, rules=["RS303"])
    assert rule_ids(report) == ["RS303"]


def test_rs303_unlink_on_failure_is_clean(tmp_path):
    report = check(tmp_path, """\
        import os

        def write(path, payload):
            tmp = path + ".tmp"
            try:
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except Exception:
                os.unlink(tmp)
                raise
    """, rules=["RS303"])
    assert rule_ids(report) == []


# -- seeded defects against the real tree --------------------------------

def _copy_real(tmp_path, rel, extra=""):
    source = (SRC / rel).read_text(encoding="utf-8")
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source + textwrap.dedent(extra))
    return check_paths(paths=[tmp_path], root=tmp_path,
                       rules=AS_RULES + SH_RULES + RS_RULES)


def test_real_serve_and_harness_modules_are_clean(tmp_path):
    for rel in ("repro/serve/server.py", "repro/harness/worker.py",
                "repro/harness/backends/worker.py"):
        report = _copy_real(tmp_path, rel)
        assert rule_ids(report) == [], rel


def test_seeded_blocking_call_in_serve_coroutine(tmp_path):
    report = _copy_real(tmp_path, "repro/serve/server.py", extra="""

        import time as _time

        async def _seeded_blocking(server):
            _time.sleep(0.01)
    """)
    assert rule_ids(report) == ["AS101"]
    assert "time.sleep" in report.findings[0].message


def test_seeded_lock_across_await_in_serve(tmp_path):
    report = _copy_real(tmp_path, "repro/serve/server.py", extra="""

        import threading as _threading

        async def _seeded_lock(server):
            guard = _threading.Lock()
            with guard:
                await asyncio.sleep(0)
    """)
    assert rule_ids(report) == ["AS104"]


def test_seeded_lease_leak_in_worker(tmp_path):
    report = _copy_real(tmp_path, "repro/harness/worker.py", extra="""

        def _seeded_leak(queue, store):
            claim = queue.claim("seeded")
            if claim is None:
                return
            rows = execute_job(claim.spec)
            store.put(claim.key, claim.spec, rows, 0.0)
            queue.complete(claim.key, worker=claim.worker, elapsed=0.0,
                           attempts=claim.attempt)
    """)
    assert rule_ids(report) == ["RS302"]
    assert "exception path" in report.findings[0].message

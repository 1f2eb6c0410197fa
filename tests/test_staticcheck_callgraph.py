"""Tests for CallGraph: aliased imports, ``self.method`` and
typed-receiver resolution, call-site records and coroutine flags.

The fixture is a two-module package written into ``tmp_path`` so module
names, relative imports and cross-module edges behave exactly as they do
over the real tree.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.staticcheck.callgraph import CallGraph
from repro.staticcheck.model import SourceFile

ENGINE = """\
    class Engine:
        def __init__(self):
            self.count = 0

        def step(self):
            self.count += 1
            return self.count

        async def pump(self):
            return self.step()

        async def cycle(self):
            return await self.pump()
"""

DRIVER = """\
    import pkg.engine as eng
    from pkg.engine import Engine as Motor

    def build():
        motor = Motor()
        return motor.step()

    def drive(machine: Motor):
        return machine.step()

    class Rig:
        def __init__(self):
            self.engine = eng.Engine()

        def run(self):
            return self.helper() + self.engine.step()

        def helper(self):
            return 1
"""


@pytest.fixture()
def graph(tmp_path):
    sources = []
    for rel, text in (("pkg/__init__.py", ""),
                      ("pkg/engine.py", ENGINE),
                      ("pkg/driver.py", DRIVER)):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        sources.append(SourceFile.load(path, tmp_path))
    return CallGraph(sources)


def test_aliased_class_import_types_a_constructed_local(graph):
    calls = graph.functions["pkg.driver:build"].calls
    assert "pkg.engine:Engine.__init__" in calls   # Motor() constructor
    assert "pkg.engine:Engine.step" in calls       # motor.step()


def test_annotated_parameter_resolves_through_the_alias(graph):
    calls = graph.functions["pkg.driver:drive"].calls
    assert "pkg.engine:Engine.step" in calls


def test_aliased_module_import_types_a_self_attribute(graph):
    assert (graph.self_attr_types["pkg.driver.Rig"]["engine"]
            == "pkg.engine.Engine")
    calls = graph.functions["pkg.driver:Rig.run"].calls
    assert "pkg.engine:Engine.step" in calls       # self.engine.step()


def test_self_method_call_resolves_within_the_class(graph):
    calls = graph.functions["pkg.driver:Rig.run"].calls
    assert "pkg.driver:Rig.helper" in calls
    assert "pkg.engine:Engine.step" in (
        graph.functions["pkg.engine:Engine.pump"].calls)


def test_callers_reverse_map_collects_every_edge(graph):
    callers = graph.callers["pkg.engine:Engine.step"]
    assert {"pkg.driver:build", "pkg.driver:drive",
            "pkg.driver:Rig.run", "pkg.engine:Engine.pump"} <= callers


def test_is_async_distinguishes_coroutines(graph):
    assert graph.is_async("pkg.engine:Engine.pump")
    assert graph.is_async("pkg.engine:Engine.cycle")
    assert not graph.is_async("pkg.engine:Engine.step")
    assert not graph.is_async("pkg.missing:nowhere")


def test_call_sites_record_await_context(graph):
    sites = graph.sites["pkg.engine:Engine.cycle"]
    pump_site = next(s for s in sites if s.attr == "pump")
    assert pump_site.awaited
    assert pump_site.callees == ("pkg.engine:Engine.pump",)

    sites = graph.sites["pkg.engine:Engine.pump"]
    step_site = next(s for s in sites if s.attr == "step")
    assert not step_site.awaited


def test_sites_are_ordered_by_position(graph):
    for sites in graph.sites.values():
        linenos = [(s.lineno, s.node.col_offset) for s in sites]
        assert linenos == sorted(linenos)

"""Unit tests for the repro.staticcheck analyzer.

Every rule family gets a triggering and a non-triggering example, plus
the inline-pragma suppression channel.  Sources are
written into ``tmp_path`` and analyzed with ``root=tmp_path``, so module
names (and the harness exemption, which keys off them) behave exactly as
they do over the real tree.
"""

import ast
import textwrap

import pytest

from repro.staticcheck import RULES, StaticcheckError, check_paths
from repro.staticcheck.model import (
    PragmaError,
    attach_decorator_pragmas,
    parse_pragmas,
)
from repro.staticcheck.rules import resolve


def check(tmp_path, source, name="mod.py", rules=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return check_paths(paths=[tmp_path], root=tmp_path, rules=rules)


def rule_ids(report):
    return [finding.rule for finding in report.findings]


# -- registry ------------------------------------------------------------

def test_registry_ids_and_slugs_resolve():
    assert resolve("DT101") == "DT101"
    assert resolve("set-iteration") == "DT101"
    assert resolve("module-mutable-state") == "FS101"
    with pytest.raises(ValueError):
        resolve("no-such-rule")


def test_registry_covers_all_seven_families():
    families = {rule.family for rule in RULES.values()}
    assert families == {"determinism", "float-hygiene", "fork-safety",
                        "cache-key", "async-soundness", "shared-state",
                        "resource-lifecycle"}


def test_family_names_expand_to_their_rules():
    from repro.staticcheck.rules import FAMILIES, expand
    assert set(expand(["async-soundness"])) == set(
        FAMILIES["async-soundness"])
    assert expand(["DT101", "resource-lifecycle"])[0] == "DT101"
    assert "RS302" in expand(["resource-lifecycle"])
    with pytest.raises(ValueError):
        expand(["no-such-family"])


# -- pragmas -------------------------------------------------------------

def test_trailing_pragma_suppresses_its_line():
    pragmas = parse_pragmas("x = 1  # staticcheck: ignore[DT101]\n")
    assert pragmas[1] == {"DT101"}


def test_comment_block_pragma_covers_next_code_line():
    text = ("# staticcheck: ignore[FS101] long justification that\n"
            "# wraps onto a second comment line\n"
            "CACHE = {}\n")
    pragmas = parse_pragmas(text)
    assert "FS101" in pragmas[3]


def test_docstring_mention_is_not_a_pragma():
    text = '"""Docs show `# staticcheck: ignore[DT101]` syntax."""\n'
    assert parse_pragmas(text) == {}


def test_pragma_above_dataclass_decorator_covers_the_class_line():
    text = ("from dataclasses import dataclass\n"
            "# staticcheck: ignore[SH201] frozen config table\n"
            "@dataclass\n"
            "class Config:\n"
            "    pass\n")
    suppressions = parse_pragmas(text)
    attach_decorator_pragmas(ast.parse(text), suppressions)
    assert "SH201" in suppressions[4]       # the ``class`` line itself


def test_pragma_above_decorated_async_def_suppresses_its_finding(tmp_path):
    source = """\
        from repro.harness.queue import Claim

        def keep(func):
            return func

        # staticcheck: ignore[RS302] lease is released by the driver
        @keep
        async def seeded(claim: Claim):
            return claim.key
    """
    report = check(tmp_path, source, rules=["RS302"])
    assert rule_ids(report) == []
    assert report.suppressed == 1
    # without the pragma the finding anchors at the ``async def`` line
    stripped = textwrap.dedent(source).replace(
        "# staticcheck: ignore[RS302] lease is released by the driver\n",
        "")
    report = check(tmp_path, stripped, rules=["RS302"])
    assert rule_ids(report) == ["RS302"]


def test_unknown_rule_in_pragma_is_an_error():
    with pytest.raises(PragmaError):
        parse_pragmas("x = 1  # staticcheck: ignore[XX999]\n")


def test_pragma_suppresses_finding(tmp_path):
    report = check(tmp_path, """\
        CACHE = {}  # staticcheck: ignore[FS101] test fixture

        def put(key, value):
            CACHE[key] = value
        """)
    assert rule_ids(report) == []
    assert report.suppressed == 1


# -- DT101 set iteration -------------------------------------------------

def test_dt101_flags_for_loop_over_set(tmp_path):
    report = check(tmp_path, """\
        def render(items):
            seen = set(items)
            return [str(x) for x in seen]
        """)
    assert rule_ids(report) == ["DT101"]


def test_dt101_flags_join_over_set(tmp_path):
    report = check(tmp_path, """\
        def render(items):
            return ",".join({str(x) for x in items})
        """)
    assert rule_ids(report) == ["DT101"]


def test_dt101_silent_on_sorted_and_order_free_uses(tmp_path):
    report = check(tmp_path, """\
        def render(items, probe):
            seen = set(items)
            ordered = [str(x) for x in sorted(seen)]
            count = len(seen)
            hit = probe in seen
            biggest = max(seen)
            as_set = frozenset(seen)
            return ordered, count, hit, biggest, as_set
        """)
    assert rule_ids(report) == []


def test_dt101_orderliness_bias_drops_sorted_rebind(tmp_path):
    report = check(tmp_path, """\
        def render(items):
            names = set(items)
            names = sorted(names)
            return [n for n in names]
        """)
    assert rule_ids(report) == []


# -- DT102 directory listings --------------------------------------------

def test_dt102_flags_unsorted_listdir(tmp_path):
    report = check(tmp_path, """\
        import os

        def collect(root):
            return [name for name in os.listdir(root)]
        """)
    assert rule_ids(report) == ["DT102"]


def test_dt102_flags_unsorted_iterdir_loop(tmp_path):
    report = check(tmp_path, """\
        def collect(root):
            out = []
            for path in root.iterdir():
                out.append(path.name)
            return out
        """)
    assert rule_ids(report) == ["DT102"]


def test_dt102_silent_when_sorted_wraps_the_listing(tmp_path):
    report = check(tmp_path, """\
        import os

        def collect(root):
            direct = sorted(os.listdir(root))
            names = sorted(p.name for p in root.iterdir())
            return direct, names
        """)
    assert rule_ids(report) == []


# -- DT201 unseeded randomness -------------------------------------------

def test_dt201_flags_module_global_rngs(tmp_path):
    report = check(tmp_path, """\
        import random
        import numpy as np

        def jitter():
            return random.random() + np.random.rand()

        def make_rng():
            return np.random.default_rng()
        """)
    assert rule_ids(report) == ["DT201", "DT201", "DT201"]


def test_dt201_silent_on_seeded_generators(tmp_path):
    report = check(tmp_path, """\
        import random
        import numpy as np

        def make(seed):
            return random.Random(seed), np.random.default_rng(seed)
        """)
    assert rule_ids(report) == []


# -- DT301 wall-clock reachability ---------------------------------------

def test_dt301_flags_wallclock_reachable_from_entry_point(tmp_path):
    report = check(tmp_path, """\
        import time

        def _stamp():
            return time.time()

        def run(scale=1.0, workloads=None):
            return [{"at": _stamp()}]
        """)
    assert rule_ids(report) == ["DT301"]


def test_dt301_silent_when_unreachable_from_entry_points(tmp_path):
    report = check(tmp_path, """\
        import time

        def profile_only():
            return time.time()

        def run(scale=1.0, workloads=None):
            return []
        """)
    assert rule_ids(report) == []


def test_dt301_flags_import_time_clock_read(tmp_path):
    report = check(tmp_path, """\
        import time

        STARTED = time.time()
        """)
    assert rule_ids(report) == ["DT301"]


def test_dt301_exempts_harness_modules(tmp_path):
    report = check(tmp_path, """\
        import time

        def run():
            return {"wall": time.time()}
        """, name="harness/scheduler.py")
    assert rule_ids(report) == []


# -- FH101 / FH102 float hygiene -----------------------------------------

def test_fh101_flags_float_dict_keys(tmp_path):
    report = check(tmp_path, """\
        SCALES = {0.5: "half"}

        def put(cache, scale):
            cache[1.5] = scale
            cache.setdefault(2.5, [])
        """)
    assert rule_ids(report) == ["FH101", "FH101", "FH101"]


def test_fh101_silent_on_rounded_and_int_keys(tmp_path):
    report = check(tmp_path, """\
        SIZES = {128: "paper"}

        def put(cache, scale):
            cache[round(float(scale), 9)] = scale
        """)
    assert rule_ids(report) == []


def test_fh102_flags_exact_float_comparison(tmp_path):
    report = check(tmp_path, """\
        def is_half(x):
            return x == 0.5
        """)
    assert rule_ids(report) == ["FH102"]


def test_fh102_silent_on_integer_comparison(tmp_path):
    report = check(tmp_path, """\
        def is_two(x):
            return x == 2
        """)
    assert rule_ids(report) == []


# -- FS* fork safety -----------------------------------------------------

def test_fs101_flags_mutated_module_container(tmp_path):
    report = check(tmp_path, """\
        CACHE = {}

        def put(key, value):
            CACHE[key] = value
        """)
    assert rule_ids(report) == ["FS101"]


def test_fs101_flags_global_rebinding(tmp_path):
    report = check(tmp_path, """\
        COUNT = 0

        def bump():
            global COUNT
            COUNT += 1
        """)
    assert rule_ids(report) == ["FS101"]


def test_fs101_silent_on_read_only_module_tables(tmp_path):
    report = check(tmp_path, """\
        TABLE = {"a": 1, "b": 2}

        def lookup(key):
            return TABLE[key]
        """)
    assert rule_ids(report) == []


def test_fs102_fs103_fs104_flag_module_lock_rng_handle(tmp_path):
    report = check(tmp_path, """\
        import random
        import threading

        LOCK = threading.Lock()
        RNG = random.Random(0)
        LOG = open("/dev/null", "w")
        """)
    assert sorted(rule_ids(report)) == ["FS102", "FS103", "FS104"]


# -- CK* cache-key soundness ---------------------------------------------

def test_ck101_flags_dynamic_import_outside_harness(tmp_path):
    report = check(tmp_path, """\
        import importlib

        def load(name):
            return importlib.import_module(name)
        """)
    assert rule_ids(report) == ["CK101"]


def test_ck101_silent_on_literal_import_and_in_harness(tmp_path):
    clean = check(tmp_path, """\
        import importlib

        def load():
            return importlib.import_module("json")
        """, name="literal.py")
    assert rule_ids(clean) == []
    harness = check(tmp_path, """\
        import importlib

        def load(name):
            return importlib.import_module(name)
        """, name="harness/jobs.py")
    assert rule_ids(harness) == []


def test_ck102_flags_computed_getattr_dispatch(tmp_path):
    report = check(tmp_path, """\
        def dispatch(module, name):
            return getattr(module, name)()
        """)
    assert rule_ids(report) == ["CK102"]


def test_ck102_silent_on_field_introspection(tmp_path):
    report = check(tmp_path, """\
        def project(row, fields):
            return [getattr(row, field) for field in fields]
        """)
    assert rule_ids(report) == []


# -- rule filter / errors ------------------------------------------------

def test_rule_filter_restricts_findings(tmp_path):
    source = """\
        CACHE = {}

        def put(key):
            CACHE[0.5] = key
        """
    everything = check(tmp_path, source)
    assert sorted(rule_ids(everything)) == ["FH101", "FS101"]
    only_fh = check(tmp_path, source, rules=["FH101"])
    assert rule_ids(only_fh) == ["FH101"]


def test_syntax_error_is_a_staticcheck_error(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    with pytest.raises(StaticcheckError):
        check_paths(paths=[tmp_path], root=tmp_path)

"""The harness package loads only the submodules a caller imports.

``repro.harness`` re-exports nothing, so a caller that needs the job
helpers (the prediction service's breaker) or the inline run path does
not pay for the work queue, the queue workers and their ``socket`` and
``selectors`` imports.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

REPORT = """
import json
import sys
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[:2] == ["repro", "harness"])))
"""


def harness_modules_after(code: str) -> list:
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_breaker_loads_only_jobs_and_registry():
    loaded = harness_modules_after("import repro.serve.breaker\n")
    assert loaded == ["repro.harness", "repro.harness.jobs",
                      "repro.harness.registry"]


def test_inline_run_loads_no_queue_or_worker():
    loaded = harness_modules_after("""
        from repro.harness.api import run_artefacts
        run_artefacts([("table51", 0.01)], ["li"])
    """)
    assert "repro.harness.api" in loaded
    assert "repro.harness.queue" not in loaded
    assert "repro.harness.worker" not in loaded

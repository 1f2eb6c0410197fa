"""The suite-wide structural gate: every kernel must lint clean.

This is the bar any future kernel has to clear — zero analyzer errors
*and* zero warnings at small, paper-quarter and full scale.  The
static pair sets are checked against the dynamic DDT by the soundness
gate in ``tests/test_static_distance.py``.
"""

import pytest

from repro.analysis import analyze_program
from repro.workloads import all_workloads, get_workload

GATE_SCALES = (0.05, 0.25, 1.0)


@pytest.mark.parametrize("scale", GATE_SCALES)
@pytest.mark.parametrize("abbrev", [w.abbrev for w in all_workloads()])
def test_kernel_lints_clean(abbrev, scale):
    report = analyze_program(get_workload(abbrev).program(scale))
    assert not report.errors and not report.warnings, (
        f"kernel {abbrev!r} at scale {scale} fails the structural gate:\n"
        + report.render())


@pytest.mark.parametrize("scale", GATE_SCALES)
@pytest.mark.parametrize("abbrev", [w.abbrev for w in all_workloads()])
def test_kernel_assembles_under_verify(abbrev, scale):
    # The opt-in hook the harness and experiments use.
    program = get_workload(abbrev).program(scale, verify=True)
    assert len(program.instructions) > 0


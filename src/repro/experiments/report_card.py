"""The reproduction report card.

DESIGN.md §3 commits to a list of *shape criteria* — orderings and
magnitude classes from the paper that the reproduction must exhibit.  This
harness measures every criterion in one run and grades it PASS/FAIL, so
the claim "the shapes reproduce" is checked by code rather than prose.

Run with ``python -m repro report_card [--scale S]``.  Criteria:

(i)    RAR adds substantial coverage on top of RAW; more for FP than INT
       in relative terms.
(ii)   RAW dominates INT visibility at a 128-entry DDT; RAR dominates FP.
(iii)  The 2-bit adaptive predictor cuts misspeculation by ≥5x vs the
       non-adaptive 1-bit, at ≤20% coverage cost.
(iv)   Selective invalidation outperforms squash invalidation (HM).
(v)    RAW+RAR speedup ≥ RAW speedup (HM, selective).
(vi)   Speedups grow when the base does not speculate on memory
       dependences (INT class).
(vii)  Cloaking-only coverage exceeds VP-only coverage for most programs.
(viii) RAR dependence locality(4) exceeds 70% for most programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments import fig9
from repro.experiments.report import format_table
from repro.harness.api import SweepOutcome, run_artefacts
from repro.predictors.confidence import ConfidenceKind
from repro.util.stats import harmonic_mean_speedup


@dataclass
class Criterion:
    ident: str
    description: str
    measured: str
    passed: bool

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def requests(scale: float,
             timing_scale: Optional[float] = None) -> List[tuple]:
    """The six artefact requests the card grades, for one pooled
    :func:`repro.harness.api.run_artefacts` pass; the timing figures run
    at ``timing_scale`` (default ``scale / 2``)."""
    timing_scale = timing_scale if timing_scale is not None else scale / 2
    return [("fig6", scale), ("fig5", scale, {"sizes": (128,)}),
            ("table52", scale), ("fig2", scale),
            ("fig9", timing_scale), ("fig10", timing_scale)]


def run(scale: float = 0.1, timing_scale: Optional[float] = None,
        workloads: Optional[Sequence[str]] = None,
        **harness_kwargs) -> List[Criterion]:
    """Measure every shape criterion; returns the graded list.

    The experiment rows come from one harness pass, so ``workers=N``
    parallelizes the whole grid and ``store=ResultStore(...)`` makes
    repeated gradings incremental.
    """
    return grade(run_artefacts(requests(scale, timing_scale), workloads,
                               **harness_kwargs))


def grade(outcome: SweepOutcome) -> List[Criterion]:
    """Grade every shape criterion over the rows of :func:`requests`."""
    criteria: List[Criterion] = []

    # --- accuracy-side experiments -------------------------------------
    fig6_rows = outcome.rows("fig6")
    adaptive = [r for r in fig6_rows
                if r.confidence == ConfidenceKind.TWO_BIT.value]
    one_bit = [r for r in fig6_rows
               if r.confidence == ConfidenceKind.ONE_BIT.value]
    int_rar = _mean([r.coverage_rar for r in adaptive if r.category == "int"])
    fp_rar = _mean([r.coverage_rar for r in adaptive if r.category == "fp"])
    criteria.append(Criterion(
        "i", "RAR adds coverage; FP gains more than INT",
        f"INT +{int_rar:.1%}, FP +{fp_rar:.1%}",
        int_rar > 0.05 and fp_rar > int_rar,
    ))

    fig5_rows = outcome.rows("fig5")
    int_rows = [r for r in fig5_rows if r.category == "int"]
    fp_rows = [r for r in fig5_rows if r.category == "fp"]
    int_raw = _mean([r.raw_fraction for r in int_rows])
    int_rar_vis = _mean([r.rar_fraction for r in int_rows])
    fp_raw = _mean([r.raw_fraction for r in fp_rows])
    fp_rar_vis = _mean([r.rar_fraction for r in fp_rows])
    criteria.append(Criterion(
        "ii", "INT leans RAW at DDT=128; FP roles reversed",
        f"INT {int_raw:.1%} RAW vs {int_rar_vis:.1%} RAR; "
        f"FP {fp_raw:.1%} vs {fp_rar_vis:.1%}",
        int_raw > int_rar_vis and fp_rar_vis > fp_raw,
    ))

    miss_adaptive = _mean([r.misspeculation for r in adaptive])
    miss_one_bit = _mean([r.misspeculation for r in one_bit])
    cov_adaptive = _mean([r.coverage for r in adaptive])
    cov_one_bit = _mean([r.coverage for r in one_bit])
    ratio = miss_one_bit / miss_adaptive if miss_adaptive else float("inf")
    criteria.append(Criterion(
        "iii", "adaptive cuts misspeculation >=5x at <=20% coverage cost",
        f"misspec {miss_one_bit:.2%} -> {miss_adaptive:.2%} ({ratio:.0f}x), "
        f"coverage {cov_one_bit:.1%} -> {cov_adaptive:.1%}",
        ratio >= 5 and cov_adaptive >= 0.8 * cov_one_bit,
    ))

    table52_rows = outcome.rows("table52")
    cloak_favoured = sum(1 for r in table52_rows
                         if r.cloak_only_total > r.frac(r.vp_only))
    criteria.append(Criterion(
        "vii", "cloaking-only exceeds VP-only for most programs",
        f"{cloak_favoured}/{len(table52_rows)} programs cloak-favoured",
        cloak_favoured > len(table52_rows) / 2,
    ))

    fig2_rows = [r for r in outcome.rows("fig2")
                 if r.window == "infinite" and r.sink_loads]
    high_locality = sum(1 for r in fig2_rows if r.locality[3] > 0.7)
    criteria.append(Criterion(
        "viii", "RAR locality(4) > 70% for most programs",
        f"{high_locality}/{len(fig2_rows)} programs above 70%",
        high_locality >= 0.7 * len(fig2_rows),
    ))

    # --- timing-side experiments ----------------------------------------
    fig9_rows = outcome.rows("fig9")
    summary = fig9.summarize(fig9_rows)
    sel = summary["selective/RAW+RAR"]["ALL"]
    squ = summary["squash/RAW+RAR"]["ALL"]
    criteria.append(Criterion(
        "iv", "selective invalidation beats squash (HM, RAW+RAR)",
        f"selective {sel - 1:+.2%} vs squash {squ - 1:+.2%}",
        sel > squ,
    ))
    sel_raw = summary["selective/RAW"]["ALL"]
    criteria.append(Criterion(
        "v", "RAW+RAR speedup >= RAW speedup (HM, selective)",
        f"RAW+RAR {sel - 1:+.2%} vs RAW {sel_raw - 1:+.2%}",
        sel >= sel_raw - 0.002,
    ))

    fig10_rows = outcome.rows("fig10")
    int9 = summary["selective/RAW+RAR"].get("INT")
    int10_values = [r.speedups["RAW+RAR"] for r in fig10_rows
                    if r.category == "int"]
    if int9 is not None and int10_values:
        int10 = harmonic_mean_speedup(int10_values)
        criteria.append(Criterion(
            "vi", "no-spec base amplifies INT speedups",
            f"Fig9 INT {int9 - 1:+.2%} -> Fig10 INT {int10 - 1:+.2%}",
            int10 > int9,
        ))

    return criteria


def render(criteria: List[Criterion]) -> str:
    rows = [[c.ident, c.verdict, c.description, c.measured]
            for c in criteria]
    passed = sum(1 for c in criteria if c.passed)
    body = format_table(
        ["#", "verdict", "criterion", "measured"], rows,
        title="Reproduction report card (DESIGN.md shape criteria)",
    )
    return f"{body}\n\n{passed}/{len(criteria)} criteria PASS"

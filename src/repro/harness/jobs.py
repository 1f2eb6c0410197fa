"""The job model: one experiment cell per (artefact, workload, scale).

Every experiment module exposes ``run(scale, workloads)`` returning a
list of per-workload row dataclasses, and rows for different workloads
are independent — so the whole evaluation decomposes into a grid of
:class:`JobSpec` cells that can execute in any order on any worker, with
the aggregate recomposed by concatenating each artefact's per-workload
rows in paper order (exactly what the serial loop produced).  A module
that also exposes ``observe(workload, scale, models, **params)`` (the
accuracy artefacts; see :mod:`repro.experiments.runner`) lets an inline
run compute all such cells of one (workload, scale) from one trace pass
that shares one instance of each model they read (:func:`execute_shared`).

How a job is run — its timeout, retry budget, kill grace and retry
backoff — is one :class:`JobPolicy`.  A queued job carries its policy in
its queue file, so every worker that claims it applies the run's
settings.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.registry import get_artefact
from repro.util.hashing import stable_hash

#: Pre-execution hook invoked with the JobSpec inside the executing
#: process (worker or inline).  Fork workers inherit it, so a hook set in
#: the parent before ``run_artefacts`` fires inside each child — this is
#: the seam the chaos subsystem (and the harness tests) use to sabotage
#: workers: crash, hang, or delay a cell without touching experiment code.
# staticcheck: ignore[FS101] deliberate cross-fork seam — inheriting the
# hook into fork children is the documented mechanism (see above)
_INJECTION_HOOK: Optional[Callable[["JobSpec"], None]] = None


def set_injection_hook(
        hook: Optional[Callable[["JobSpec"], None]]
) -> Optional[Callable[["JobSpec"], None]]:
    """Install (or clear, with ``None``) the fault-injection hook.

    Returns the previously installed hook so callers can restore it.
    """
    global _INJECTION_HOOK
    previous = _INJECTION_HOOK
    _INJECTION_HOOK = hook
    return previous


@dataclass(frozen=True)
class JobSpec:
    """One cell of the evaluation grid.

    ``params`` carries experiment-specific keyword arguments (for example
    ``sizes=(128,)`` for a reduced Figure 5 sweep); they are forwarded to
    the module's ``run_one`` (or ``run``) and participate in the store
    hash key.
    """

    artefact: str
    workload: str
    scale: float
    params: tuple = field(default_factory=tuple)  # sorted (key, value) pairs

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def label(self) -> str:
        return f"{self.artefact}/{self.workload}@{self.scale:g}"

    def key_fields(self) -> dict:
        """The hashable identity of this cell (code fingerprint excluded)."""
        return {
            "artefact": self.artefact,
            "workload": self.workload,
            "scale": repr(float(self.scale)),
            "params": {k: v for k, v in self.params},
        }

    def to_json(self) -> dict:
        """A JSON-able form that :meth:`from_json` rebuilds exactly.

        This is what the work queue persists: a job must survive the trip
        through a queue file to a worker on another host and come back
        *equal* (same dataclass equality, same store key), so tuple params
        are written as lists and re-tupled on the way in.
        """
        return {
            "artefact": self.artefact,
            "workload": self.workload,
            "scale": self.scale,
            "params": [[key, list(value) if isinstance(value, tuple)
                        else value]
                       for key, value in self.params],
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        """Rebuild a spec serialized by :meth:`to_json` (exact round-trip)."""
        params = tuple(
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in data["params"])
        return cls(artefact=data["artefact"], workload=data["workload"],
                   scale=float(data["scale"]), params=params)


@dataclass(frozen=True)
class JobPolicy:
    """How every attempt at a job runs, wherever it runs.

    ``timeout`` (seconds, None for none) bounds each attempt; a job is
    tried at most ``retries + 1`` times in total, across all workers;
    a timed-out attempt gets ``term_grace`` seconds between SIGTERM and
    SIGKILL; retry N waits about ``retry_backoff * 2**(N-1)`` seconds.
    """

    timeout: Optional[float] = None
    retries: int = 1
    term_grace: float = 5.0
    retry_backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.term_grace < 0:
            raise ValueError("term_grace must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")

    @property
    def attempts(self) -> int:
        """The attempt budget: ``retries + 1``."""
        return self.retries + 1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "JobPolicy":
        """The policy :meth:`to_json` wrote; the defaults for None."""
        return cls(**(data or {}))


def retry_backoff_delay(spec: JobSpec, attempts: int, base: float) -> float:
    """Delay before retry ``attempts + 1`` of ``spec``.

    Exponential in the attempt count with deterministic jitter hashed
    from the job's serialized identity — *all* of it, params included, so
    two cells differing only in params do not retry in lockstep, and the
    same cell backs off identically no matter which process or host is
    retrying it.
    """
    if base <= 0:
        return 0.0
    scale = base * (2 ** (attempts - 1))
    frac = int(stable_hash((spec.to_json(), attempts), length=8), 16)
    return scale * (0.5 + 0.5 * frac / 0xFFFFFFFF)


#: how an execution path reports one job's outcome:
#: ``settle(spec, rows, wall_time, worker=..., attempts=..., error=...)``,
#: with ``rows`` None for a failed job
SettleFn = Callable[..., None]


def make_job(artefact: str, workload: str, scale: float,
             params: Optional[dict] = None) -> JobSpec:
    """A :class:`JobSpec` with normalized (sorted, tuple-ized) params."""
    items = tuple(sorted((params or {}).items()))
    return JobSpec(artefact=artefact, workload=workload, scale=float(scale),
                   params=items)


def expand_jobs(artefact: str, scale: float,
                workloads: Optional[Sequence[str]] = None,
                params: Optional[dict] = None) -> List[JobSpec]:
    """Decompose one artefact request into per-workload jobs (paper order)."""
    from repro.experiments.runner import select_workloads

    get_artefact(artefact)  # validate the name early
    return [make_job(artefact, w.abbrev, scale, params)
            for w in select_workloads(workloads)]


def load_experiment_module(dotted: str):
    """Import an experiment implementation module by dotted path.

    The harness is the sanctioned home for dynamic module loading: it
    sits *outside* the code fingerprint, while every loadable target
    lives *inside* it — so routing dispatch through here keeps
    fingerprinted code free of fingerprint-invisible imports (staticcheck
    rule CK101) without weakening the cache key: the target's bytes are
    still hashed by :func:`repro.util.hashing.tree_fingerprint`.
    """
    return importlib.import_module(dotted)


def execute_job(spec: JobSpec) -> list:
    """Run one cell in the current process; returns the row list.

    Calls the module's ``run_one(workload, scale, **params)`` when it
    defines one, else ``run`` over the single workload.
    """
    if _INJECTION_HOOK is not None:
        _INJECTION_HOOK(spec)
    module = importlib.import_module(get_artefact(spec.artefact).module)
    run_one = getattr(module, "run_one", None)
    if run_one is not None:
        return run_one(spec.workload, spec.scale, **spec.params_dict)
    return module.run(scale=spec.scale, workloads=[spec.workload],
                      **spec.params_dict)


def job_observer(spec: JobSpec) -> Optional[Callable]:
    """The ``observe(workload, scale, models, **params)`` of the cell's
    module, or None when the module has none (the cell then runs only
    alone)."""
    module = importlib.import_module(get_artefact(spec.artefact).module)
    return getattr(module, "observe", None)


def execute_shared(specs: Sequence[JobSpec]) -> List[list]:
    """Run cells of one (workload, scale) from one trace pass, in the
    current process; returns each cell's row list, in order.

    Every cell's module must define ``observe``.  The cells share one
    :class:`~repro.experiments.runner.Models`, so a model and
    configuration several of them read is built and driven once.  Raises
    as soon as any cell's hook or observer does, so the caller can run
    the cells alone.
    """
    from repro.experiments.runner import Models, observe_pass
    from repro.workloads import get_workload

    workload = get_workload(specs[0].workload)
    models = Models()
    observers = []
    for spec in specs:
        if _INJECTION_HOOK is not None:
            _INJECTION_HOOK(spec)
        observers.append(job_observer(spec)(workload, spec.scale, models,
                                            **spec.params_dict))
    return observe_pass(workload, specs[0].scale, observers, models)


def render_rows(artefact: str, rows: list) -> str:
    """Render aggregated rows with the artefact's own ``render``."""
    module = importlib.import_module(get_artefact(artefact).module)
    return module.render(rows)

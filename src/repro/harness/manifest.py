"""The run manifest: what happened, cell by cell.

Written as JSON next to the store (``<store>/manifests/run-<id>.json``)
after every ``run_artefacts`` call.  Schema (see docs/harness.md):

    {
      "run_id": "20260805-143022.518200-1a2b3c",
      "created": "2026-08-05T14:30:22",
      "workers": 4,
      "backend": "fork",
      "fingerprint": "0f3a...",
      "jobs": [
        {"artefact": "fig2", "workload": "li", "scale": 0.1,
         "params": {}, "key": "ab12...", "status": "hit|computed|failed",
         "wall_time": 0.41, "worker": "host:12345", "attempts": 1,
         "error": null}
      ],
      "totals": {"jobs": 180, "hits": 162, "computed": 18,
                 "failed": 0, "wall_time": 12.3}
    }

``worker`` attributes the cell to the queue worker that executed it, as
``host:pid`` (it may live on another machine), or ``null`` for
in-process execution.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from datetime import datetime
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

STATUS_HIT = "hit"
STATUS_COMPUTED = "computed"
STATUS_FAILED = "failed"

#: per-cell progress callback fired as records are created
ProgressFn = Callable[["JobRecord"], None]


@dataclass
class JobRecord:
    """The manifest entry for one job."""

    artefact: str
    workload: str
    scale: float
    params: dict
    key: str
    status: str
    wall_time: float = 0.0
    worker: Optional[str] = None    # queue worker host:pid; None inline
    attempts: int = 1
    error: Optional[str] = None     # traceback text for failed jobs

    @property
    def ok(self) -> bool:
        return self.status != STATUS_FAILED


@dataclass
class RunManifest:
    """One run: per-job records plus aggregate totals."""

    run_id: str = ""
    created: str = ""
    workers: int = 0
    backend: str = ""               # execution backend of the run
    fingerprint: str = ""
    jobs: List[JobRecord] = field(default_factory=list)
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.run_id:
            # microsecond stamp so manifest filenames sort by creation
            stamp = datetime.now().strftime("%Y%m%d-%H%M%S.%f")
            self.run_id = f"{stamp}-{uuid.uuid4().hex[:6]}"
        if not self.created:
            self.created = time.strftime("%Y-%m-%dT%H:%M:%S")

    # -- aggregates ------------------------------------------------------

    def count(self, status: str) -> int:
        return sum(1 for job in self.jobs if job.status == status)

    @property
    def hits(self) -> int:
        return self.count(STATUS_HIT)

    @property
    def computed(self) -> int:
        return self.count(STATUS_COMPUTED)

    @property
    def failed(self) -> List[JobRecord]:
        return [job for job in self.jobs if job.status == STATUS_FAILED]

    @property
    def cache_hit_rate(self) -> float:
        return self.hits / len(self.jobs) if self.jobs else 0.0

    def by_worker(self) -> Dict[str, int]:
        """Computed-cell counts per executing worker.

        Keys are the executing workers' ``host:pid`` (``inline`` for
        in-process cells; older manifests may hold bare pids) —
        per-worker attribution at a glance.
        """
        counts: Dict[str, int] = {}
        for job in self.jobs:
            if job.status != STATUS_COMPUTED:
                continue
            name = "inline" if job.worker is None else str(job.worker)
            counts[name] = counts.get(name, 0) + 1
        return counts

    def totals(self) -> dict:
        return {
            "jobs": len(self.jobs),
            "hits": self.hits,
            "computed": self.computed,
            "failed": len(self.failed),
            "wall_time": round(self.wall_time, 3),
        }

    def summary_line(self) -> str:
        t = self.totals()
        return (f"run {self.run_id}: {t['jobs']} jobs, "
                f"{t['hits']} cache hits, {t['computed']} computed, "
                f"{t['failed']} failed, {t['wall_time']:.1f}s wall")

    # -- (de)serialization ----------------------------------------------

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "created": self.created,
            "workers": self.workers,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "jobs": [asdict(job) for job in self.jobs],
            "totals": self.totals(),
        }

    def write(self, path: os.PathLike) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json(), indent=2) + "\n",
                          encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: os.PathLike) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        manifest = cls(
            run_id=data["run_id"],
            created=data["created"],
            workers=data.get("workers", 0),
            backend=data.get("backend", ""),
            fingerprint=data.get("fingerprint", ""),
            jobs=[JobRecord(**job) for job in data.get("jobs", [])],
        )
        manifest.wall_time = data.get("totals", {}).get("wall_time", 0.0)
        return manifest

"""The content-addressed result store.

Each cached object is the row list of one job, stored as JSON under a key
that hashes the cell's full identity:

    sha256({artefact, workload, scale, params, fingerprint})

where ``fingerprint`` digests every ``.py`` file under ``src/repro``
except the harness itself.  Every registered artefact module lives
inside the fingerprinted tree, and so does every configuration it bakes
in (pipeline / DDT / predictor settings are constants in those files),
so unchanged cells are cache hits on the next run and any code or
configuration change misses cleanly instead of serving stale rows.

The row serializer (``rows_to_payload`` / ``rows_from_payload``) is also
what the shared ``--json`` experiment flag emits, so on-disk cache
objects and user-requested JSON exports share one format.

A cached object that exists but cannot be decoded (truncation, bit rot,
schema drift) is never served and never silently dropped: ``get`` moves
it to ``<store>/quarantine/`` with a ``.reason`` sidecar, logs one warning
per run, and reports a miss so the run recomputes the cell.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import logging
import os
import time
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

logger = logging.getLogger(__name__)

from repro.util.hashing import stable_hash, tree_fingerprint

#: Default store location (relative to the working directory).
DEFAULT_ROOT = Path("results") / "store"

#: seconds a ``.tmp`` file must sit untouched before it counts as stale.
#: ``put`` writes, fsyncs and renames its temp file within moments, so a
#: ``.tmp`` older than this belongs to a dead writer — while anything
#: younger may be an in-flight ``put`` that must not be reported or swept.
DEFAULT_TMP_AGE = 60.0


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the repro source tree (harness excluded)."""
    import repro

    return tree_fingerprint(Path(repro.__file__).parent, exclude=("harness",))


def rows_to_payload(rows: list) -> dict:
    """Serialize a homogeneous list of row dataclasses to JSON-able form."""
    if not rows:
        return {"row_type": None, "rows": []}
    first = rows[0]
    if not dataclasses.is_dataclass(first):
        raise TypeError(f"expected dataclass rows, got {type(first).__name__}")
    row_type = f"{type(first).__module__}:{type(first).__qualname__}"
    return {
        "row_type": row_type,
        "rows": [dataclasses.asdict(row) for row in rows],
    }


def rows_from_payload(payload: dict) -> list:
    """Rebuild row dataclass instances from ``rows_to_payload`` output.

    A payload missing the ``row_type``/``rows`` keys is malformed (schema
    drift), not an empty result — raising here keeps ``ResultStore.get``
    from serving a corrupt object as a legitimate zero-row cache hit.
    """
    try:
        row_type = payload["row_type"]
        rows = payload["rows"]
    except (KeyError, TypeError):
        raise ValueError("malformed rows payload: missing row_type/rows")
    if row_type is None:
        if rows:
            raise ValueError("rows payload carries rows but no row_type")
        return []
    module_name, _, class_name = row_type.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    return [cls(**fields) for fields in rows]


def write_rows_json(path: str, rows: list, indent: int = 2) -> None:
    """Emit rows as machine-readable JSON (the ``--json`` flag)."""
    payload = rows_to_payload(rows)
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=indent) + "\n",
                      encoding="utf-8")


class ResultStore:
    """JSON objects on disk, addressed by content hash."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_ROOT
        # warn once per store instance (= once per run for the CLI/API,
        # which construct a single store); instance state stays
        # fork-safe where a module-level registry would not (FS101)
        self._quarantine_warned = False

    # -- keys ------------------------------------------------------------

    def key_for(self, spec, fingerprint: Optional[str] = None) -> str:
        """The store key of a :class:`~repro.harness.jobs.JobSpec`."""
        fields = dict(spec.key_fields())
        fields["fingerprint"] = (fingerprint if fingerprint is not None
                                 else code_fingerprint())
        return stable_hash(fields)

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- object access ---------------------------------------------------

    def has(self, key: str) -> bool:
        return self._object_path(key).exists()

    def get(self, key: str) -> Optional[list]:
        """The cached rows for ``key``, or None on a miss.

        A present-but-undecodable object (truncated write, bit rot,
        schema drift) is quarantined rather than silently missed, so the
        damage is visible in ``python -m repro.harness status`` and the
        cell recomputes cleanly.
        """
        path = self._object_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, key, f"unreadable: {exc}")
            return None
        try:
            return rows_from_payload(json.loads(text))
        except Exception as exc:
            self._quarantine(
                path, key, f"corrupt: {type(exc).__name__}: {exc}")
            return None

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a bad object aside with a ``.reason`` sidecar and warn."""
        target_dir = self.quarantine_dir()
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            return  # racing reader already moved (or removed) it
        target.with_suffix(".reason").write_text(
            reason + "\n", encoding="utf-8")
        if not self._quarantine_warned:
            self._quarantine_warned = True
            logger.warning(
                "quarantined corrupt result-store object %s (%s); "
                "further quarantines this run are silent — see %s",
                key, reason, target_dir)

    def put(self, key: str, spec, rows: list, elapsed: float = 0.0) -> None:
        """Store rows for ``key`` (atomic write; last writer wins).

        Safe under concurrent multi-process writers — including workers
        on other hosts sharing the store directory: the payload goes to
        a per-pid temp file, is flushed and fsynced, and only then moves
        into place with an atomic ``os.replace``.  A writer killed at
        any point leaves either the previous object or none — never a
        truncated one — plus at worst a stale ``.tmp`` file that is
        never served (see :meth:`stale_tmps`).
        """
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = rows_to_payload(rows)
        payload["cell"] = spec.key_fields()
        payload["elapsed"] = elapsed
        # staticcheck: ignore[RS303] a tmp stranded by a crash mid-write
        # is the documented failure mode: it is never served, and
        # ``stale_tmps`` exists precisely to sweep this debris offline.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Persist a rename by fsyncing its directory (best effort)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- maintenance -----------------------------------------------------

    def objects(self) -> List[Path]:
        objects_dir = self.root / "objects"
        if not objects_dir.is_dir():
            return []
        return sorted(objects_dir.glob("*/*.json"))

    def stale_tmps(self, min_age: float = DEFAULT_TMP_AGE) -> List[Path]:
        """Leftover ``.tmp`` files from writers that died mid-``put``.

        Harmless (they are never served — lookups go by exact object
        name) but visible, so ``status`` can report them and ``clean``
        removes them.  Only files untouched for at least ``min_age``
        seconds qualify: a younger ``.tmp`` may belong to a concurrent
        in-flight ``put`` (another worker, another host) whose temp file
        must never be reported as damage — much less swept out from
        under the live writer.  Pass ``min_age=0.0`` to list every
        ``.tmp`` regardless of age.
        """
        objects_dir = self.root / "objects"
        if not objects_dir.is_dir():
            return []
        cutoff = time.time() - min_age
        stale = []
        for path in sorted(objects_dir.glob("*/.*.tmp")):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # the racing writer just renamed it into place
            if mtime <= cutoff:
                stale.append(path)
        return stale

    def cell_backends(self) -> dict:
        """Cached-cell counts per producing simulation backend.

        Reads each object's embedded cell descriptor: the ``backend``
        JobSpec param when present, else the default ``reference`` (cells
        whose artefact predates — or does not take — backend selection).
        Undecodable objects count as ``unknown`` rather than being
        quarantined here: ``status`` reporting must not mutate the store.
        """
        counts: dict = {}
        for path in self.objects():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                params = payload["cell"].get("params", {})
                backend = params.get("backend", "reference")
            except Exception:
                backend = "unknown"
            counts[backend] = counts.get(backend, 0) + 1
        return counts

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def quarantined(self) -> List[Path]:
        """Quarantined object files (each has a ``.reason`` sidecar)."""
        if not self.quarantine_dir().is_dir():
            return []
        return sorted(self.quarantine_dir().glob("*.json"))

    def quarantine_reason(self, path: Path) -> str:
        """The recorded reason for one quarantined object file."""
        sidecar = path.with_suffix(".reason")
        try:
            return sidecar.read_text(encoding="utf-8").strip()
        except OSError:
            return "unknown"

    def manifest_dir(self) -> Path:
        return self.root / "manifests"

    def manifests(self) -> List[Path]:
        if not self.manifest_dir().is_dir():
            return []
        return sorted(self.manifest_dir().glob("run-*.json"))

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.objects())

    def clean(self) -> int:
        """Delete every cached object, manifest and quarantined file;
        returns the number of files removed.  ``.tmp`` files younger
        than :data:`DEFAULT_TMP_AGE` are left alone — they may belong to
        a live concurrent ``put`` on another worker or host."""
        removed = 0
        quarantined = [p for path in self.quarantined()
                       for p in (path, path.with_suffix(".reason"))
                       if p.exists()]
        for path in (self.objects() + self.stale_tmps() + self.manifests()
                     + quarantined):
            path.unlink()
            removed += 1
        for sub in sorted(self.root.glob("objects/*")):
            if sub.is_dir() and not any(sub.iterdir()):
                sub.rmdir()
        return removed

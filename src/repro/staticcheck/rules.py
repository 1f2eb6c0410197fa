"""The staticcheck rule registry.

Every rule has a stable ID (``DT*`` determinism, ``FH*`` float hygiene,
``FS*`` fork safety, ``CK*`` cache-key soundness, ``AS*`` async
soundness, ``SH*`` shared-state isolation, ``RS*`` resource lifecycle),
a severity, and a one-line summary; the full reference lives in
docs/staticcheck.md.  The
registry is what the CLI's ``--rule`` filter, the pragma parser and the
JSON report key off, so IDs are append-only: retiring a rule leaves its
ID reserved.

``REGISTRY_VERSION`` is echoed in the ``--json`` report — bump it
whenever a rule is added, removed, or its detection logic changes
enough to alter findings, so a consumer comparing two reports can tell
whether they came from the same rule set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

#: bump on any change to the rule set or a rule's detection logic
REGISTRY_VERSION = 2


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One named, suppressible invariant check."""

    id: str
    name: str            # short kebab-case slug (also valid in pragmas)
    severity: Severity
    family: str          # determinism | float-hygiene | fork-safety | cache-key
    summary: str


#: declaration order = documentation order
_ALL_RULES = (
    Rule("DT101", "set-iteration", Severity.WARNING, "determinism",
         "iteration over a set/frozenset without sorted() — order depends "
         "on hashing, not the program"),
    Rule("DT102", "unsorted-dir-listing", Severity.WARNING, "determinism",
         "iteration over os.listdir()/glob()/iterdir() output without "
         "sorted() — order depends on the filesystem"),
    Rule("DT201", "unseeded-random", Severity.ERROR, "determinism",
         "module-global random / numpy.random use — draw from an "
         "explicitly seeded generator instead"),
    Rule("DT301", "wallclock-in-artefact", Severity.ERROR, "determinism",
         "time/datetime/uuid wall-clock value reachable from an artefact "
         "payload or hashing entry point"),
    Rule("FH101", "float-dict-key", Severity.ERROR, "float-hygiene",
         "raw float used as a dict key — round() to a fixed precision "
         "first (the PR 2 _program_cache bug class)"),
    Rule("FH102", "float-equality", Severity.WARNING, "float-hygiene",
         "== / != against a float literal — compare rounded values or "
         "use an epsilon"),
    Rule("FS101", "module-mutable-state", Severity.ERROR, "fork-safety",
         "module-level mutable container (or global rebinding) mutated "
         "from function code — state smuggled across fork()"),
    Rule("FS102", "module-lock", Severity.WARNING, "fork-safety",
         "module-level lock/condition/semaphore — held locks are copied "
         "locked into fork children"),
    Rule("FS103", "module-rng", Severity.ERROR, "fork-safety",
         "module-level RNG instance — fork children inherit identical "
         "generator state"),
    Rule("FS104", "module-open-handle", Severity.ERROR, "fork-safety",
         "module-level open() handle — shared file offsets across "
         "fork()ed workers"),
    Rule("CK101", "dynamic-import", Severity.WARNING, "cache-key",
         "non-literal importlib.import_module()/__import__() in "
         "fingerprinted code — the code fingerprint cannot see the "
         "dispatch target"),
    Rule("CK102", "dynamic-getattr", Severity.WARNING, "cache-key",
         "getattr() with a computed attribute name in fingerprinted "
         "code — fingerprint-invisible dispatch"),
    Rule("AS101", "blocking-call-in-coroutine", Severity.ERROR,
         "async-soundness",
         "blocking primitive (time.sleep, sync file/socket I/O, "
         "subprocess, store/queue disk ops) reachable from a coroutine — "
         "it stalls every session on the event loop"),
    Rule("AS102", "unawaited-coroutine", Severity.ERROR, "async-soundness",
         "coroutine called but never awaited — the body silently never "
         "runs"),
    Rule("AS103", "orphan-task", Severity.ERROR, "async-soundness",
         "create_task()/ensure_future() result dropped — the task can be "
         "garbage-collected mid-flight and its exceptions are lost"),
    Rule("AS104", "lock-across-await", Severity.ERROR, "async-soundness",
         "synchronous lock held across an await — any other task needing "
         "the lock deadlocks the event loop"),
    Rule("SH201", "class-level-mutable", Severity.ERROR, "shared-state",
         "mutable container in a class body mutated through self — one "
         "object is shared by every instance (and every session)"),
    Rule("SH202", "read-await-write-race", Severity.WARNING, "shared-state",
         "instance attribute read before and written after an await in a "
         "concurrently spawned coroutine — another task can interleave "
         "at the await"),
    Rule("SH203", "fork-closure-target", Severity.ERROR, "shared-state",
         "process target is a closure/lambda/bound method — it drags its "
         "captured state across fork()/spawn"),
    Rule("RS301", "leaked-handle", Severity.ERROR, "resource-lifecycle",
         "file/socket handle acquired outside `with` not closed on every "
         "CFG path (including exception edges)"),
    Rule("RS302", "leaked-lease", Severity.ERROR, "resource-lifecycle",
         "queue lease claimed (or received) but not completed/released "
         "on every CFG path — the cell stays locked until TTL expiry"),
    Rule("RS303", "orphan-tempfile", Severity.WARNING, "resource-lifecycle",
         "tmp file created but not renamed/removed on every CFG path — "
         "crash debris accumulates in the store"),
)

#: id -> Rule (insertion order = documentation order).  Built in one
#: shot at import time: the registry is never mutated afterwards, so it
#: is identical in the parent and every forked worker (FS101).
RULES: Dict[str, Rule] = {rule.id: rule for rule in _ALL_RULES}

#: slug -> id, for pragmas written with the readable name
_BY_NAME: Dict[str, str] = {rule.name: rule.id for rule in _ALL_RULES}

if len(RULES) != len(_ALL_RULES) or len(_BY_NAME) != len(_ALL_RULES):
    raise AssertionError("duplicate staticcheck rule id or slug")


def resolve(token: str) -> str:
    """Map a rule ID or slug (as written in pragmas / --rule) to its ID.

    Raises :class:`ValueError` for an unknown token so typo'd pragmas and
    CLI filters fail loudly instead of silently suppressing nothing.
    """
    token = token.strip()
    if token in RULES:
        return token
    if token in _BY_NAME:
        return _BY_NAME[token]
    known = ", ".join(list(RULES) + sorted(_BY_NAME))
    raise ValueError(f"unknown staticcheck rule {token!r}; known: {known}")


def resolve_many(tokens: Iterable[str]) -> List[str]:
    return [resolve(token) for token in tokens]


#: family name -> rule IDs, in declaration order
FAMILIES: Dict[str, List[str]] = {}
for _rule in _ALL_RULES:
    FAMILIES.setdefault(_rule.family, []).append(_rule.id)
del _rule


def expand(tokens: Iterable[str]) -> List[str]:
    """Like :func:`resolve_many`, but a family name selects every rule
    in that family (``--rule async-soundness``).  Pragmas stay
    single-rule on purpose — a blanket family suppression hides too
    much — so this is for CLI filters only.
    """
    out: List[str] = []
    for token in tokens:
        stripped = token.strip()
        if stripped in FAMILIES:
            out.extend(FAMILIES[stripped])
        else:
            out.append(resolve(stripped))
    return out

"""Disk-backed, cross-process persistent schedule store.

The in-process memos in :mod:`repro.sched.cache` (MII, schedule, whole
spilling-driver runs) die with the process, and every experiment-engine
worker warms a private copy — a ``--jobs 8`` sweep derives the same
ideal schedules eight times, and nothing survives between sweeps.  This
module adds the layer below those memos: a content-addressed directory
of pickled cache entries that every process reads through and writes
through.

Design:

* **Keys.**  The memos already key by pure content —
  ``(DDG fingerprint, machine, scheduler, min_ii/II, …)`` tuples of
  strings, ints, bools and ``None``.  The store hashes
  ``(format version, namespace, repr(key))`` with SHA-256 and shards the
  digest into ``root/<namespace>/<aa>/<digest>.pkl``.  Bumping
  :data:`STORE_VERSION` therefore changes every path: old entries are
  simply never found again (and are evicted by size, not migrated).
  Version 2 made a ``schedule`` entry an ``(ii, times, …)`` tuple;
  version 3 keys every entry by the graph's running digest (a 256-bit
  sum of per-record SHA-256 values, see :mod:`repro.graph.ddg`) instead
  of a SHA-1 over the sorted content, and pickles graphs with immutable
  nodes and their digest.
* **Atomic writes.**  Entries are written to a unique temp file in the
  same directory and published with :func:`os.replace`, so concurrent
  writers of the same key race to an atomic rename — readers see one
  writer's complete entry, never an interleaving.
* **Corruption tolerance.**  Every entry embeds a header (magic, format
  version, payload checksum).  A truncated, garbled or wrong-version
  entry loads as a miss — the caller recomputes and the next
  :meth:`ScheduleStore.put` rewrites the file.  A load must never raise.
* **Eviction.**  The store is capped (:attr:`ScheduleStore.max_bytes`,
  default 512 MiB).  A writer scans the directory once, at its first
  write, and then adds each entry it writes to that byte estimate.  It
  scans again, removing the oldest entries (by mtime) until the total
  drops below the cap, when the estimate passes the cap or when it has
  written a sixteenth of the cap since its last scan; so each writer
  process overshoots by at most that much.  Opening a store and reading
  from it never scan.

One store is *active* per process at a time: :func:`configure` installs
one (the ``REPRO_CACHE_DIR`` environment variable supplies a default),
:func:`using` activates one for a ``with`` block, and
:func:`active_store` is what :mod:`repro.sched.cache` consults on every
memo miss.  Experiment-engine worker processes inherit the parent's
store through :func:`worker_initializer`.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import pickle
import tempfile
from pathlib import Path

from repro.faults import plan as faults

#: Bump to invalidate every existing on-disk entry (the version is part
#: of the hashed key material *and* checked in the entry header).
STORE_VERSION = 3

_MAGIC = b"repro-store\x00"

#: Consecutive ``put`` I/O failures before the store flips to degraded
#: (in-memory-only) mode instead of hammering a dead disk.
_DEGRADE_AFTER = 3
#: Entry cap for the degraded-mode in-memory dict (FIFO eviction).
_MEMORY_CAP = 1024

#: mkdir errors that mean "this disk is unusable, degrade" rather than
#: "the configuration is wrong, raise" (e.g. the path names a file).
_DEGRADE_ERRNOS = frozenset(
    {errno.EROFS, errno.ENOSPC, errno.EACCES, errno.EPERM}
)


class ScheduleStore:
    """A persistent dictionary of cache entries under one directory.

    Values are arbitrary picklable objects; keys are ``(namespace,
    key-tuple)`` pairs where the tuple contains only stably-``repr``-able
    scalars (str/int/bool/None).  All methods are safe under concurrent
    use from many processes; none of them raise on a damaged entry.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = 512 * 1024 * 1024,
        version: int = STORE_VERSION,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.version = version
        # Bytes on disk as of this process's last scan (None: not yet
        # scanned), and bytes this process has written since.
        self._scanned_bytes: int | None = None
        self._written_since_scan = 0
        self.write_errors = 0
        self._consecutive_write_errors = 0
        self._degraded = False
        self._memory: dict[tuple, bytes] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            # A read-only or full disk degrades the store to memory-only
            # operation; genuine configuration errors (the path names a
            # file, a missing parent device, …) still raise so the CLI
            # can report them.
            if error.errno not in _DEGRADE_ERRNOS:
                raise
            self.write_errors += 1
            self._degraded = True

    @property
    def degraded(self) -> bool:
        """Whether persistent writes have been abandoned for this store
        (entries now live in a bounded in-memory dict only)."""
        return self._degraded

    # ------------------------------------------------------------------
    def path_for(self, namespace: str, key: tuple) -> Path:
        """The entry file for *key*: version + namespace + key hashed,
        sharded one level to keep directories small."""
        digest = hashlib.sha256(
            f"v{self.version}|{namespace}|{key!r}".encode()
        ).hexdigest()
        return self.root / namespace / digest[:2] / f"{digest}.pkl"

    def get(self, namespace: str, key: tuple):
        """The stored value for *key*, or ``None``.

        Missing, truncated, corrupt and wrong-version entries are all
        misses; this never raises.
        """
        if self._memory:
            hit = self._memory.get((namespace, key))
            if hit is not None:
                try:
                    return pickle.loads(hit)
                except Exception:
                    return None
        return self.load(self.path_for(namespace, key))

    def load(self, path: Path):
        """The value in entry file *path* (see :meth:`entries`), or
        ``None`` when it is missing, damaged or of another version."""
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            if not blob.startswith(_MAGIC):
                return None
            body = blob[len(_MAGIC):]
            version = int.from_bytes(body[:4], "big")
            checksum, payload = body[4:36], body[36:]
            if version != self.version:
                return None
            if hashlib.sha256(payload).digest() != checksum:
                return None
            return pickle.loads(payload)
        except Exception:
            return None

    def put(self, namespace: str, key: tuple, value) -> bool:
        """Persist *value* under *key* atomically (write-temp + rename).

        Returns whether the entry was stored; I/O and pickling failures
        are swallowed (the store is an accelerator, never a correctness
        dependency).  :data:`_DEGRADE_AFTER` consecutive I/O failures
        flip the store into degraded mode: entries then land in a
        bounded in-memory dict, so the memo layer survives a disk that
        filled up or went read-only mid-run.
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        if self._degraded:
            return self._memory_put(namespace, key, payload)
        path = self.path_for(namespace, key)
        blob = (
            _MAGIC
            + self.version.to_bytes(4, "big")
            + hashlib.sha256(payload).digest()
            + payload
        )
        try:
            if faults.enabled():
                faults.maybe_errno("store.enospc", errno.ENOSPC)
                faults.maybe_errno("store.erofs", errno.EROFS)
                if faults.fire("store.torn_write") is not None:
                    blob = blob[: max(1, len(blob) // 2)]
                elif faults.fire("store.corrupt") is not None:
                    blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(temp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp)
                raise
        except OSError:
            self.write_errors += 1
            self._consecutive_write_errors += 1
            if self._consecutive_write_errors >= _DEGRADE_AFTER:
                self._degraded = True
                return self._memory_put(namespace, key, payload)
            return False
        except Exception:
            return False
        self._consecutive_write_errors = 0
        self._written_since_scan += len(blob)
        if (
            self._scanned_bytes is None
            or self._scanned_bytes + self._written_since_scan > self.max_bytes
            or self._written_since_scan >= self.max_bytes // 16
        ):
            self._scanned_bytes = self.evict()
            self._written_since_scan = 0
        return True

    def _memory_put(self, namespace: str, key: tuple, payload: bytes) -> bool:
        """Degraded-mode write: keep the pickled payload in a bounded
        in-memory dict (FIFO eviction) instead of on disk."""
        memory_key = (namespace, key)
        if memory_key not in self._memory and len(self._memory) >= _MEMORY_CAP:
            self._memory.pop(next(iter(self._memory)))
        self._memory[memory_key] = payload
        return True

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All entry files currently in the store."""
        return [p for p in self.root.rglob("*.pkl") if p.is_file()]

    def total_bytes(self) -> int:
        """Bytes currently on disk (entry files only)."""
        total = 0
        for path in self.entries():
            with contextlib.suppress(OSError):
                total += path.stat().st_size
        return total

    def clear(self) -> None:
        """Delete every entry (the directory itself is kept)."""
        for path in self.entries():
            with contextlib.suppress(OSError):
                path.unlink()

    def evict(
        self,
        max_bytes: int | None = None,
        dry_run: bool = False,
        victims: list | None = None,
    ) -> int:
        """Run one eviction pass: drop oldest entries (by mtime) until
        the store fits *max_bytes* (default: :attr:`max_bytes`), and reap
        temp files orphaned by writers killed mid-``put`` (they match no
        entry glob, so nothing else would ever remove them).

        When over the cap, eviction aims 20% below it so the next few
        writes do not immediately re-trigger a scan.  Returns the bytes
        remaining on disk (for *dry_run*: the bytes that would remain).
        This is also the ``repro cache prune`` entry point.

        With ``dry_run=True`` nothing is deleted — not even orphaned
        temp files — and *victims* (if given) collects the entry paths
        the pass would remove, oldest first.
        """
        import time

        cap = self.max_bytes if max_bytes is None else max_bytes
        stale = time.time() - 3600
        if not dry_run:
            for temp in self.root.rglob("*.tmp"):
                with contextlib.suppress(OSError):
                    if temp.stat().st_mtime < stale:
                        temp.unlink()
        stamped = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= cap:
            return total
        # aim below the cap so eviction is not re-triggered immediately
        target = int(cap * 0.8)
        for _, size, path in sorted(stamped):
            if total <= target:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            total -= size
            if victims is not None:
                victims.append(path)
        return total

    def stats(self) -> dict:
        """Telemetry snapshot (the ``/stats`` endpoint's ``store``
        block and ``repro cache stats``): entry count and bytes per
        namespace plus the configured cap."""
        namespaces: dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        for path in self.entries():
            namespace = path.relative_to(self.root).parts[0]
            block = namespaces.setdefault(
                namespace, {"entries": 0, "bytes": 0}
            )
            block["entries"] += 1
            total_entries += 1
            with contextlib.suppress(OSError):
                size = path.stat().st_size
                block["bytes"] += size
                total_bytes += size
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": total_entries,
            "total_bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "namespaces": namespaces,
            "degraded": self._degraded,
            "write_errors": self.write_errors,
            "memory_entries": len(self._memory),
        }


# ----------------------------------------------------------------------
# the process-wide active store
_UNSET = object()
_ACTIVE: "ScheduleStore | None | object" = _UNSET

#: Environment variable naming a default store directory.  Read lazily
#: on the first :func:`active_store` call of a process that never called
#: :func:`configure` — which is how engine workers spawned without an
#: initializer still find the store.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def resolve_store(
    store: "ScheduleStore | str | os.PathLike | None",
) -> "ScheduleStore | None":
    """Coerce a store argument — an instance, a directory path, or
    ``None`` — into a :class:`ScheduleStore` (or ``None``)."""
    if store is None or isinstance(store, ScheduleStore):
        return store
    return ScheduleStore(store)


def configure(
    store: "ScheduleStore | str | os.PathLike | None",
) -> "ScheduleStore | None":
    """Install the process-wide active store (``None`` disables it) and
    return it.  Overrides any :data:`ENV_CACHE_DIR` default."""
    global _ACTIVE
    _ACTIVE = resolve_store(store)
    return _ACTIVE


def active_store() -> "ScheduleStore | None":
    """The store the memos read through right now, if any.

    Falls back to :data:`ENV_CACHE_DIR` when :func:`configure` has not
    been called in this process.
    """
    global _ACTIVE
    if _ACTIVE is _UNSET:
        default = os.environ.get(ENV_CACHE_DIR)
        _ACTIVE = ScheduleStore(default) if default else None
    return _ACTIVE


@contextlib.contextmanager
def using(store: "ScheduleStore | str | os.PathLike | None"):
    """Activate *store* for the duration of a ``with`` block.

    ``using(None)`` temporarily disables the persistent layer (the
    in-process memos still work)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = resolve_store(store)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def store_token() -> str | None:
    """A picklable identifier of the active store (its root path), used
    to key worker pools and re-create the store in workers."""
    store = active_store()
    return str(store.root) if store is not None else None


def worker_initializer(token: str | None) -> None:
    """Process-pool initializer: give a worker the parent's store (or
    explicitly none, overriding any environment default)."""
    configure(token)

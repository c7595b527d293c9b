"""The run store: a process-local memory tier in front of a persistent
on-disk cache shared by every process of a sweep.

Every cached run goes through :func:`cached`: the memory tier (an LRU
of :data:`MEMORY_MAX_ENTRIES` records; a hit returns the *same* record
object), then the active :class:`DiskCache` when one is configured,
then the run itself. The memory tier dies with the process; the disk
tier makes :class:`~repro.harness.runner.RunRecord` objects survive
across pytest invocations, CLI calls and pool workers. Disk entries
are keyed by a content hash over the *full* run identity — machine,
workload name **and program bytes**, config, scale, threads, simt,
max_cycles, config overrides — plus the repo code version, so editing a
workload or the simulator can never alias a stale record.

**Only clean records are cached**, and this module is the one place
that rule lives (:func:`storable`): both tiers refuse a record whose
status is not ``"ok"`` (a failed or truncated run must never satisfy a
later request), and a non-ok entry already on disk or on a peer (an
old writer, a poisoned peer) is skipped and counted as a stale skip,
never served. Callers simply offer every record.

Design constraints (enforced by ``tests/test_diskcache.py``):

* **Atomic writes** — an entry is written to a temp file in the cache
  directory and ``os.replace``d into place, so concurrent writers (pool
  workers share one directory) and crashes can never leave a partially
  visible entry.
* **Corruption is a miss, never a crash** — a truncated, garbage or
  schema-mismatched entry file is dropped and treated as a miss.
* **LRU size bound** — each instance keeps an in-memory LRU index of
  the entries it knows (path -> None, oldest first). Reads touch the
  entry's mtime and move it to the newest end; every write (a ``put``
  or a remote read-through) indexes its entry as the newest and
  unlinks the oldest indexed entries beyond ``max_entries``, with no
  directory walk. The index cannot see other writers of the same
  directory, so once every ``max_entries`` of its own writes (and on
  its first write) the instance re-seeds it with one full walk in
  mtime order (:meth:`DiskCache._evict`, counted in ``walks``): O(1)
  walks per write amortized, and a directory shared by K writing
  instances holds at most K x ``max_entries`` entries (docs/PARALLEL.md).
* **Sharded layout** — entries live under 256 first-byte fan-out
  subdirectories (``<root>/<key[:2]>/<key>.json``), so a large cache
  never forces a reader or evictor to scan one flat directory. Legacy
  flat entries are migrated into their shard on open (and lazily on
  access), which keeps pre-shard caches warm across the upgrade.
* **Remote read-through tier** — an optional peer URL (the
  ``/v1/cache/<key>`` endpoint of a ``repro serve`` instance, see
  docs/SERVICE.md); a local miss consults the peer, revalidates the
  entry (same decode path as local reads) and persists it locally, so
  many hosts share warm results. Peer failures of any kind degrade to
  an ordinary miss.

The cache is *off by default*. Enable it with the ``REPRO_DISK_CACHE``
environment variable (``1``/``on`` for the default user-cache location,
any other value is taken as a directory path) or programmatically via
:func:`configure`; ``REPRO_CACHE_REMOTE`` (or ``configure(...,
remote=)``) names the peer tier. ``repro cache stats|clear|verify``
administers it.
"""

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path

from repro.obs import telemetry

#: bump when the entry format, RunRecord semantics or key derivation
#: change; old entries then simply stop matching and age out via LRU
#: eviction (2: RunRecord gained ``failure_class``; 3: run specs are
#: canonical before hashing, and ``code_version`` alone would keep a
#: dirty tree's or a package install's old keys)
CACHE_SCHEMA = 3

#: default LRU bound on entry files
MAX_ENTRIES = 4096

#: LRU bound on the process-local memory tier; sweeps touching more
#: distinct (workload, config) cells than this re-run the oldest ones
MEMORY_MAX_ENTRIES = 512

_ENTRY_SUFFIX = ".json"

#: shard directory names: 256-way first-byte fan-out over the hex key
_SHARD_CHARS = 2

#: wall-clock budget for one remote-tier probe (seconds)
REMOTE_TIMEOUT = 2.0

_code_version_cache = None


def code_version():
    """A string identifying the code that produced a cached record.

    Prefers the git commit hash (read straight from ``.git`` — no
    subprocess), falling back to the package version for installs
    without a work tree. Part of every cache key, so switching commits
    invalidates rather than aliases.
    """
    global _code_version_cache
    if _code_version_cache is None:
        _code_version_cache = _read_git_head() or _package_version()
    return _code_version_cache


def _package_version():
    try:
        import repro
        return f"pkg-{repro.__version__}"
    except Exception:
        return "pkg-unknown"


def _read_git_head():
    try:
        git_dir = Path(__file__).resolve().parents[3] / ".git"
        head = (git_dir / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = git_dir / head[5:]
            if ref.exists():
                return ref.read_text().strip()
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(head[5:]):
                        return line.split()[0]
            return None
        return head or None
    except OSError:
        return None


def _canonical(obj):
    """Deterministic JSON for hashing (tuples become lists, numpy
    scalars their Python values)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_scalar)


def _scalar(value):
    for cast in (int, float, str):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    raise TypeError(f"unhashable cache-key component: {value!r}")


def key_for(parts):
    """Hex digest naming one run: content hash of ``parts`` (any
    JSON-serializable structure) + cache schema + code version."""
    payload = _canonical([CACHE_SCHEMA, code_version(), parts])
    return hashlib.sha256(payload.encode()).hexdigest()


def program_digest(program):
    """Content hash of an assembled :class:`repro.asm.Program` — the
    'workload bytes' component of the cache key. Two programs with the
    same segments and entry point hash identically regardless of how
    they were built."""
    h = hashlib.sha256()
    h.update(str(program.entry).encode())
    for seg in sorted(program.segments, key=lambda s: s.base):
        h.update(seg.base.to_bytes(8, "little"))
        h.update(bytes(seg.data))
    return h.hexdigest()


def storable(record):
    """The store's admission rule: only a clean (``status == "ok"``)
    record may be cached or served from cache."""
    return getattr(record, "status", None) == "ok"


class MemoryTier:
    """The process-local LRU in front of the disk tier. It is on
    whether or not a disk cache is configured, and a hit returns the
    very object that was stored."""

    def __init__(self, max_entries=MEMORY_MAX_ENTRIES):
        self.max_entries = max_entries
        self._records = OrderedDict()

    def __len__(self):
        return len(self._records)

    def get(self, key):
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
        return record

    def put(self, key, record):
        if storable(record):
            self._records[key] = record
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)

    def clear(self):
        self._records.clear()


class DiskCache:
    """One sharded cache directory of ``<key[:2]>/<key>.json`` entry
    files (plus any legacy flat entries awaiting migration)."""

    def __init__(self, root, max_entries=MAX_ENTRIES, remote=None,
                 remote_timeout=REMOTE_TIMEOUT):
        self.root = Path(root)
        self.max_entries = max_entries
        self.remote = remote.rstrip("/") if remote else None
        self.remote_timeout = remote_timeout
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dropped = 0   # corrupt/unencodable entries dropped
        self.repaired = 0  # corrupt entries removed by verify(repair=True)
        self.migrated = 0  # flat pre-shard entries moved into shards
        self.remote_hits = 0    # misses satisfied by the peer tier
        self.remote_errors = 0  # peer probes that failed/decoded corrupt
        self.stale_skips = 0    # non-ok entries skipped, never served
        self.walks = 0          # full walks that re-seeded the index
        #: the LRU index: entry path -> None, oldest first
        self._index = OrderedDict()
        #: own writes since the last walk; starts due, so the first
        #: write seeds the index
        self._unwalked = max_entries
        #: guards the index and the file operations that must agree
        #: with it (touch, unlink, walk): the service reads on its
        #: event-loop thread and writes on executor threads
        self._lock = threading.RLock()
        self._migrate()

    # ------------------------------------------------------------ paths

    def _path(self, key):
        return self.root / key[:_SHARD_CHARS] / (key + _ENTRY_SUFFIX)

    def _flat_path(self, key):
        """Pre-shard location of ``key`` (read fallback only)."""
        return self.root / (key + _ENTRY_SUFFIX)

    def _entries(self):
        """Every entry file: shard subdirectories plus any flat
        stragglers an old writer may still produce."""
        entries = []
        try:
            children = list(self.root.iterdir())
        except OSError:
            return entries
        for child in children:
            if child.is_dir() and len(child.name) == _SHARD_CHARS:
                try:
                    entries.extend(p for p in child.iterdir()
                                   if p.suffix == _ENTRY_SUFFIX)
                except OSError:
                    continue
            elif child.suffix == _ENTRY_SUFFIX:
                entries.append(child)
        return entries

    def _migrate(self):
        """Move flat ``<key>.json`` entries into their shard (one-time
        layout upgrade, done on open so pre-shard caches stay warm).
        Races between concurrent openers are benign: ``os.replace``
        is atomic and a loser's missing source is ignored."""
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for child in children:
            if child.is_dir() or child.suffix != _ENTRY_SUFFIX:
                continue
            if self._migrate_one(child.stem):
                self.migrated += 1

    def _migrate_one(self, key):
        """Move one flat entry into its shard; False if nothing moved."""
        target = self._path(key)
        flat = self._flat_path(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat, target)
        except OSError:
            return False
        with self._lock:
            self._index.pop(flat, None)
        return True

    # ------------------------------------------------------------- read

    def _read_raw(self, key):
        """Raw entry text for ``key`` (sharded, falling back to a flat
        legacy entry — which is migrated on touch), or None."""
        try:
            return self._path(key).read_text()
        except OSError:
            pass
        self._migrate_one(key)
        try:
            return self._path(key).read_text()
        except OSError:
            return None

    def get(self, key, remote=True):
        """The cached :class:`RunRecord` for ``key``, or None. Any
        kind of damage — missing, truncated, garbage, wrong schema,
        mismatched key — is a miss; damaged files are removed. A
        non-ok entry is skipped (``stale_skips``) and is a miss too. A
        local miss consults the remote tier (when configured) before
        being reported as a miss.

        ``remote=False`` skips the peer probe — a blocking HTTP fetch
        — entirely. Latency-critical callers (the service's event-loop
        thread) take the local-only answer and retry the peer later
        via :meth:`remote_probe` on a thread that may block."""
        path = self._path(key)
        raw = self._read_raw(key)
        if raw is not None:
            record = self._decode(raw, key)
            if record is None:
                self.dropped += 1
                self._drop(path)
            elif self._servable(record):
                self.hits += 1
                telemetry.emit("cache_hit", run=key[:12], tier="disk")
                with self._lock:  # LRU touch
                    try:
                        os.utime(path)
                    except OSError:
                        pass
                    else:
                        self._index[path] = None
                        self._index.move_to_end(path)
                return record
        if remote:
            record = self.remote_probe(key)
            if record is not None:
                return record
        self.misses += 1
        telemetry.emit("cache_miss", run=key[:12], tier="disk")
        return None

    def remote_probe(self, key):
        """Probe *only* the peer tier for ``key``; a validated entry
        is persisted locally (read-through) and counted as a remote
        hit. No local read and no miss accounting — the caller already
        took the miss via ``get(key, remote=False)``. This call blocks
        on HTTP for up to ``remote_timeout`` seconds: never invoke it
        from an event-loop thread (the service runs it in an
        executor)."""
        record = self._remote_get(key)
        if record is not None:
            self.hits += 1
            self.remote_hits += 1
            telemetry.emit("cache_hit", run=key[:12], tier="remote")
        return record

    def raw_entry(self, key):
        """The verbatim entry text for ``key`` — what the service's
        ``/v1/cache/<key>`` remote-tier endpoint serves — or None.
        The text is *not* validated here; peers revalidate through
        :meth:`_decode` on their side."""
        return self._read_raw(key)

    def _remote_get(self, key):
        """Probe the peer tier for ``key``; a validated ok entry is
        persisted locally through the bounded write path (read-through).
        Never raises — any transport or decode problem is counted and
        degrades to a miss, and a non-ok peer entry is a stale skip."""
        if not self.remote:
            return None
        import urllib.request
        url = f"{self.remote}/v1/cache/{key}"
        try:
            with urllib.request.urlopen(
                    url, timeout=self.remote_timeout) as resp:
                raw = resp.read().decode("utf-8", "replace")
        except Exception:
            self.remote_errors += 1
            return None
        record = self._decode(raw, key)
        if record is None:
            self.remote_errors += 1
            return None
        if not self._servable(record):
            return None
        self._write(key, raw)
        return record

    def _servable(self, record):
        """Read side of :func:`storable`: count a non-ok entry as a
        stale skip instead of serving it."""
        if storable(record):
            return True
        self.stale_skips += 1
        return False

    def _decode(self, raw, key=None):
        from repro.harness.runner import RunRecord
        try:
            entry = json.loads(raw)
            if entry["schema"] != CACHE_SCHEMA:
                return None
            if key is not None and entry["key"] != key:
                return None
            doc = entry["record"]
            if entry["sha"] != hashlib.sha256(
                    _canonical(doc).encode()).hexdigest():
                return None
            return RunRecord(**doc)
        except Exception:
            return None

    # ------------------------------------------------------------ write

    def put(self, key, record):
        """Atomically persist ``record`` under ``key``; returns False
        for a non-ok record (:func:`storable`) and never raises (a
        cache that cannot write degrades to a smaller cache).

        That contract covers *encoding* too: a record carrying an
        unserializable field (circular structure, an object whose
        ``str()`` raises) is counted under ``dropped`` and skipped —
        it must degrade to an uncached run, never fail the sweep that
        produced it (docs/RESILIENCE.md)."""
        try:
            doc = json.loads(_canonical(asdict(record)))
            entry = json.dumps(
                {"schema": CACHE_SCHEMA, "key": key,
                 "sha": hashlib.sha256(
                     _canonical(doc).encode()).hexdigest(),
                 "record": doc})
        except Exception:
            # TypeError/ValueError from JSON canonicalization, but a
            # hostile field's __str__/__float__ can raise anything
            self.dropped += 1
            return False
        return storable(record) and self._write(key, entry)

    def _write(self, key, text):
        """Atomic write of pre-encoded entry text into ``key``'s shard
        (temp file + ``os.replace`` in the same directory), counted
        and followed by LRU eviction (:meth:`_admit`). Returns False
        instead of raising on any filesystem refusal."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.writes += 1
        self._admit(path)
        return True

    def _admit(self, path):
        """Index the entry just written at ``path`` as the newest and
        unlink the oldest indexed entries beyond ``max_entries``. Every
        ``max_entries`` of this instance's writes (and its first) run
        the full walk of :meth:`_evict` instead, which also picks up
        entries other writers added."""
        with self._lock:
            if self._unwalked >= self.max_entries:
                self._evict()
                return
            self._unwalked += 1
            index = self._index
            index[path] = None
            index.move_to_end(path)
            while len(index) > self.max_entries:
                self._remove(index.popitem(last=False)[0])

    def _evict(self):
        """The full walk: re-seed the index with every entry file,
        oldest mtime first, and unlink the oldest beyond
        ``max_entries``."""
        with self._lock:
            entries = sorted(self._entries(), key=_mtime)
            excess = max(0, len(entries) - self.max_entries)
            for path in entries[:excess]:
                self._remove(path)
            self._index = OrderedDict.fromkeys(entries[excess:])
            self._unwalked = 0
            self.walks += 1

    def _drop(self, path):
        """Remove an entry file and forget it."""
        with self._lock:
            self._index.pop(path, None)
            self._remove(path)

    @staticmethod
    def _remove(path):
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------ maintenance

    def counters(self):
        """The session counters. Touches no file, so it is cheap
        enough for every ``/metrics`` scrape."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "dropped": self.dropped,
                "repaired": self.repaired, "migrated": self.migrated,
                "remote_hits": self.remote_hits,
                "remote_errors": self.remote_errors,
                "stale_skips": self.stale_skips, "walks": self.walks}

    def stats(self):
        """Session counters + on-disk totals (a full walk)."""
        entries = self._entries()
        size = 0
        for path in entries:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {"root": str(self.root), "entries": len(entries),
                "bytes": size, "max_entries": self.max_entries,
                "remote": self.remote or "", **self.counters()}

    def clear(self):
        """Remove every entry file; returns how many were removed."""
        entries = self._entries()
        for path in entries:
            self._drop(path)
        return len(entries)

    def verify(self, repair=False):
        """Scan all entries for damage — failure to decode, content
        hash or filename-key mismatch, wrong schema.

        By default the scan only *reports* (an audit must not mutate
        the cache under audit); ``repair=True`` additionally removes
        every corrupt entry, counted in ``stats()['repaired']``.
        Unreadable files count as corrupt either way. Returns
        ``{"checked", "ok", "corrupt", "removed"}``."""
        checked = ok = corrupt = removed = 0
        for path in self._entries():
            checked += 1
            try:
                raw = path.read_text()
            except OSError:
                raw = None
            if raw is None or self._decode(raw, key=path.stem) is None:
                corrupt += 1
                if repair:
                    self._drop(path)
                    self.dropped += 1
                    self.repaired += 1
                    removed += 1
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt,
                "removed": removed}


def _mtime(path):
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


# =====================================================================
# Process-wide active cache
# =====================================================================

#: the process-wide memory tier (emptied by ``harness.clear_cache``)
memory = MemoryTier()

_UNSET = object()
_configured = _UNSET
_configured_remote = _UNSET
_instances = {}


def default_root():
    """``$XDG_CACHE_HOME/repro-diag/runs`` (or ``~/.cache/...``)."""
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-diag", "runs")


def configure(root, remote=_UNSET):
    """Programmatically select the active cache directory (None
    disables) and, optionally, the remote read-through peer URL.
    Overrides the ``REPRO_DISK_CACHE`` / ``REPRO_CACHE_REMOTE``
    environment variables until :func:`reset` is called."""
    global _configured, _configured_remote
    _configured = None if root is None else str(root)
    if remote is not _UNSET:
        _configured_remote = remote
    return active()


def reset():
    """Forget any :func:`configure` override and cached instances
    (the environment variables are consulted again)."""
    global _configured, _configured_remote
    _configured = _UNSET
    _configured_remote = _UNSET
    _instances.clear()


def _resolve_root():
    if _configured is not _UNSET:
        return _configured
    value = os.environ.get("REPRO_DISK_CACHE", "").strip()
    if not value or value.lower() in ("0", "off", "no", "false"):
        return None
    if value.lower() in ("1", "on", "yes", "true"):
        return default_root()
    return value


def _resolve_remote():
    if _configured_remote is not _UNSET:
        return _configured_remote
    return os.environ.get("REPRO_CACHE_REMOTE", "").strip() or None


def active():
    """The process-wide :class:`DiskCache`, or None when disabled."""
    root = _resolve_root()
    if root is None:
        return None
    remote = _resolve_remote()
    cache = _instances.get((root, remote))
    if cache is None:
        cache = DiskCache(root, remote=remote)
        _instances[(root, remote)] = cache
    return cache


def cached(parts, factory):
    """The run store's read-through for one run identity ``parts`` (a
    hashable tuple): the memory tier, then the active disk tier, then
    ``factory()``. The result is offered to both tiers, which keep it
    only if it is clean, so a failed run is retried on the next call.
    A lookup emits exactly one ``cache_hit``/``cache_miss`` event."""
    record = memory.get(parts)
    if record is not None:
        telemetry.emit("cache_hit", tier="mem")
        return record
    disk = active()
    if disk is None:
        telemetry.emit("cache_miss", tier="mem")
    else:
        key = key_for(parts)
        record = disk.get(key)
    if record is None:
        record = factory()
        if disk is not None:
            disk.put(key, record)
    memory.put(parts, record)
    return record

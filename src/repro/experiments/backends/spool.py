"""Hash-sharded ticket spool: the work queue's on-disk layout and claim path.

Every unclaimed ticket lives in one of :data:`SHARDS` shard directories,
and claims are O(1) amortised instead of a sorted listing of the whole
spool per claim::

    <queue-dir>/
        spool.json             # {"schema": 1, "shards": 8} layout guard
        shards/s00/<name>      # ticket files, shard = crc32(name) % SHARDS
        shards/s01/...
        index/s00.log          # per-shard ready index: one name per line
        claims/ results/ STOP  # see backends/queue.py

Three mechanisms keep claiming cheap without giving up rename-lease
atomicity:

- **Append-on-enqueue ready index.**  Enqueueing a ticket atomically
  writes the file into its shard and appends one line to the shard's
  ``index/sNN.log``.  Claimants remember their byte offset into each
  index and read only the appended tail -- a claim consumes cached index
  entries and never lists a directory on the happy path.
- **Claim-is-a-rename.**  An index entry is a *hint*, not a lock: the
  claim itself is an atomic ``os.rename`` into ``claims/``, so racing
  daemons interleave harmlessly -- the loser's rename raises
  ``FileNotFoundError`` and it moves to the next entry.
- **Compact-on-claim.**  Stale hints (tickets another daemon already
  claimed) accumulate as rename misses; past a threshold the claimant
  rewrites the shard's index from an actual directory listing of that
  one shard -- bounded work, amortised over the misses that paid for it.

Claimants drain their *home shard* (derived from the pid) first, then
**steal from the deepest shard** (largest index tail), so load stays
balanced without any coordination.  A periodic **verification scan**
(full listing of all shards) backstops liveness: a ticket whose index
line was lost to a torn append or a compaction race is found by the next
verification pass, never stranded.

``spool.json`` guards the layout: :class:`QueuePaths` refuses a
directory whose marker names another shard count, or that still holds
tickets in the flat ``tasks/`` directory of older versions, instead of
silently stranding them.

:class:`SpoolStats` counts index reads, rename misses, compactions and
full directory scans -- ``tests/test_spool.py`` pins the regression
guard that claiming N tickets performs O(1) full scans, not O(N), and
``benchmarks/queue_drain.py`` gates every drain on the same counters.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from collections import deque
from pathlib import Path

from repro.experiments.store import atomic_write_text

#: Shard count of every spool: enough to keep per-shard listings small at
#: 10^4 tickets, few enough that verification scans stay cheap.
SHARDS = 8

#: Rename misses tolerated per shard before the claimant compacts its
#: index from a directory listing.
COMPACT_MISS_THRESHOLD = 256

#: Seconds between verification scans (full listing of every shard)
#: while a claimant keeps finding its indexes empty.
VERIFY_INTERVAL = 2.0


class SpoolStats:
    """Claim-path accounting: how much listing work the spool is doing."""

    __slots__ = (
        "enqueued",
        "claimed",
        "index_reads",
        "index_hits",
        "rename_misses",
        "compactions",
        "full_scans",
        "shard_steals",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.claimed = 0
        self.index_reads = 0
        self.index_hits = 0
        self.rename_misses = 0
        self.compactions = 0
        self.full_scans = 0
        self.shard_steals = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (telemetry / test assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}


class QueuePaths:
    """The spool directory layout.

    Raises ``ValueError`` for a directory this version cannot drain: one
    holding flat-layout tickets in ``tasks/``, or one whose ``spool.json``
    names a shard count other than :data:`SHARDS`.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.index_dir = self.root / "index"
        self.claims = self.root / "claims"
        self.results = self.root / "results"
        self.stop = self.root / "STOP"
        self.marker = self.root / "spool.json"
        self._check_layout()

    def _check_layout(self) -> None:
        remedy = "drain it with the previous version or delete it"
        legacy = self.root / "tasks"
        if legacy.is_dir() and any(legacy.glob("*.json")):
            raise ValueError(f"{self.root} is a flat spool (tickets in tasks/); {remedy}")
        try:
            shards = json.loads(self.marker.read_text())["shards"]
        except (OSError, ValueError, KeyError, TypeError):
            return
        if shards != SHARDS:
            raise ValueError(
                f"{self.root} is a spool with {shards} shard(s), not {SHARDS}; {remedy}"
            )

    def ensure(self) -> None:
        """Create the spool subdirectories and layout marker (idempotent)."""
        for directory in (self.claims, self.results, self.index_dir):
            directory.mkdir(parents=True, exist_ok=True)
        for i in range(SHARDS):
            self.shard_dir(i).mkdir(parents=True, exist_ok=True)
        if not self.marker.exists():
            try:
                atomic_write_text(self.marker, json.dumps({"schema": 1, "shards": SHARDS}))
            except OSError:
                pass  # racing ensure() from another process already wrote it

    def shard_of(self, name: str) -> int:
        """The shard a ticket name hashes to (stable across processes)."""
        return zlib.crc32(name.encode()) % SHARDS

    def shard_dir(self, shard: int) -> Path:
        """The directory holding one shard's unclaimed tickets."""
        return self.shards_dir / f"s{shard:02d}"

    def index_path(self, shard: int) -> Path:
        """One shard's append-only ready-index log."""
        return self.index_dir / f"s{shard:02d}.log"

    def ticket_path(self, name: str) -> Path:
        """Where an unclaimed ticket of this name lives."""
        return self.shard_dir(self.shard_of(name)) / name

    def heartbeat(self, name: str) -> Path:
        """The heartbeat file a claimant touches while executing ``name``."""
        return self.claims / (name + ".hb")

    def rest(self, name: str) -> Path:
        """Owner-maintained sidecar: point positions not yet started."""
        return self.claims / (name + ".rest")

    def steal(self, name: str) -> Path:
        """Thief-created sidecar: point positions carved off this ticket."""
        return self.claims / (name + ".steal")


class ShardedSpool:
    """One process's view of the spool: enqueue, claim, depth.

    Holds the per-shard index cursors (byte offsets and cached ready
    deques), so construct one per daemon/collector and reuse it --
    a fresh instance re-reads the indexes from the start, which is
    correct but wasteful.
    """

    def __init__(self, paths: QueuePaths, stats: SpoolStats | None = None):
        self.paths = paths
        self.stats = stats or SpoolStats()
        self._ready: list[deque[str]] = [deque() for _ in range(SHARDS)]
        self._offsets = [0] * SHARDS
        self._misses = [0] * SHARDS
        self._home = os.getpid() % SHARDS
        self._last_verify = 0.0

    # -- enqueue ---------------------------------------------------------------

    def enqueue(self, name: str, payload: dict) -> Path:
        """Atomically write a ticket and append it to its shard's index."""
        path = self.paths.ticket_path(name)
        atomic_write_text(path, json.dumps(payload, sort_keys=True))
        self._index_append(self.paths.shard_of(name), name)
        self.stats.enqueued += 1
        return path

    def _index_append(self, shard: int, name: str) -> None:
        # One small O_APPEND write per enqueue; a torn line is tolerated
        # by readers and the ticket is rescued by a verification scan.
        with open(self.paths.index_path(shard), "a", encoding="utf-8") as handle:
            handle.write(name + "\n")

    # -- claim -----------------------------------------------------------------

    def claim(self) -> tuple[str, dict] | None:
        """Claim one ticket by atomic rename into ``claims/``.

        Consumes cached index entries first (home shard, then the deepest
        other shard), falling back to a rate-limited verification scan
        when every index is dry.  Unreadable tickets (including ones
        without a ``points`` list) are failed into ``results/`` rather
        than spun on.  Returns ``None`` when nothing is claimable.
        """
        while True:
            name = self._next_candidate()
            if name is None:
                return None
            got = self._try_claim(name)
            if got is not None:
                return got

    def _try_claim(self, name: str) -> tuple[str, dict] | None:
        target = self.paths.claims / name
        try:
            os.rename(self.paths.ticket_path(name), target)
        except FileNotFoundError:
            # Lost the race (or a stale index hint); account for it so the
            # shard compacts once misses pile up.
            self.stats.rename_misses += 1
            shard = self.paths.shard_of(name)
            self._misses[shard] += 1
            if self._misses[shard] >= COMPACT_MISS_THRESHOLD:
                self._compact(shard)
            return None
        # Heartbeat immediately: rename preserves the ticket's mtime, so a
        # ticket that waited in the spool longer than the lease timeout
        # would otherwise look dead the instant it is claimed.
        self.paths.heartbeat(name).touch()
        try:
            ticket = json.loads(target.read_text())
            readable = isinstance(ticket.get("points"), list)
        except (OSError, ValueError, AttributeError):
            readable = False
        if not readable:
            atomic_write_text(
                self.paths.results / name,
                json.dumps(
                    {
                        "outcome": {
                            "status": "error",
                            "error": "unreadable ticket",
                            "duration_s": 0.0,
                        }
                    },
                    sort_keys=True,
                ),
            )
            target.unlink(missing_ok=True)
            self.paths.heartbeat(name).unlink(missing_ok=True)
            return None
        self.stats.claimed += 1
        return (name, ticket)

    def _next_candidate(self) -> str | None:
        home = self._ready[self._home]
        if home:
            return home.popleft()
        if self._refresh(self._home) and home:
            return home.popleft()
        # Home shard dry: steal from the deepest other shard (largest
        # unread index tail -- one stat per shard, no listings).
        deepest, depth = None, 0
        for shard in range(SHARDS):
            if shard == self._home:
                continue
            if self._ready[shard]:
                deepest, depth = shard, -1  # cached entries beat any stat
                break
            try:
                tail = self.paths.index_path(shard).stat().st_size - self._offsets[shard]
            except OSError:
                tail = 0
            if tail > depth:
                deepest, depth = shard, tail
        if deepest is not None and (self._ready[deepest] or depth > 0):
            if not self._ready[deepest]:
                self._refresh(deepest)
            if self._ready[deepest]:
                self.stats.shard_steals += 1
                return self._ready[deepest].popleft()
        return self._verify_scan()

    def _refresh(self, shard: int) -> bool:
        """Read the unread tail of a shard's index into its ready deque."""
        path = self.paths.index_path(shard)
        try:
            size = path.stat().st_size
        except OSError:
            return False
        if size <= self._offsets[shard]:
            return False
        self.stats.index_reads += 1
        with open(path, "r", encoding="utf-8") as handle:
            handle.seek(self._offsets[shard])
            tail = handle.read()
        # A torn append (no trailing newline yet) stays unread until the
        # writer finishes: only consume complete lines.
        consumed = tail.rfind("\n") + 1
        self._offsets[shard] += consumed
        names = [line for line in tail[:consumed].splitlines() if line]
        if names:
            self.stats.index_hits += len(names)
            self._ready[shard].extend(names)
        return bool(names)

    def _compact(self, shard: int) -> None:
        """Rewrite one shard's index from a listing of its directory."""
        self.stats.compactions += 1
        self._misses[shard] = 0
        try:
            present = sorted(
                e.name for e in os.scandir(self.paths.shard_dir(shard)) if e.name.endswith(".json")
            )
        except FileNotFoundError:
            present = []
        path = self.paths.index_path(shard)
        try:
            atomic_write_text(path, "".join(name + "\n" for name in present))
        except OSError:
            return
        # Our cursor now describes the rewritten file; cached entries are
        # replaced by the (authoritative) listing.
        try:
            self._offsets[shard] = path.stat().st_size
        except OSError:
            self._offsets[shard] = 0
        self._ready[shard] = deque(present)

    def _verify_scan(self) -> str | None:
        """Rate-limited full listing: rescues index-less tickets.

        Lost index lines (torn appends, compaction races) are invisible to
        the index fast path; this scan -- at most once per
        ``VERIFY_INTERVAL`` while the spool looks empty -- guarantees
        their tickets are eventually claimed.
        """
        now = time.monotonic()
        if now - self._last_verify < VERIFY_INTERVAL:
            return None
        self._last_verify = now
        self.stats.full_scans += 1
        for shard in range(SHARDS):
            try:
                entries = sorted(
                    e.name
                    for e in os.scandir(self.paths.shard_dir(shard))
                    if e.name.endswith(".json")
                )
            except FileNotFoundError:
                continue
            known = set(self._ready[shard])
            fresh = [name for name in entries if name not in known]
            if fresh:
                self._ready[shard].extend(fresh)
        for bucket in (self._ready[self._home], *self._ready):
            if bucket:
                return bucket.popleft()
        return None

    # -- introspection ---------------------------------------------------------

    def depth(self) -> int:
        """Exact number of unclaimed tickets (one listing pass; for
        gauges and the fleet controller, not the claim hot path)."""
        total = 0
        for shard in range(SHARDS):
            try:
                total += sum(
                    1 for e in os.scandir(self.paths.shard_dir(shard)) if e.name.endswith(".json")
                )
            except FileNotFoundError:
                continue
        return total

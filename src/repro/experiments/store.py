"""On-disk result store with content-hash cache keys.

Each completed sweep point is one JSON record under
``<root>/<scenario>/<cache_key>.json``.  The cache key hashes the
scenario name, its declared version, the package version, the resolved
params and the derived seed -- so re-running an unchanged sweep serves
every point from cache, while bumping a scenario's ``version`` (or the
package version) naturally invalidates stale results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

import repro
from repro.experiments.sweep import canonical_json

DEFAULT_STORE = Path("experiment-results")


def atomic_write_text(path: Path, text: str) -> None:
    """Write via tmp-file + rename: a crash never leaves a truncated file
    that later poisons the cache."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_key(
    scenario_name: str,
    params: dict[str, Any],
    seed: int,
    scenario_version: str = "1",
    code_version: str | None = None,
) -> str:
    """Content hash identifying one experiment task."""
    payload = canonical_json(
        {
            "scenario": scenario_name,
            "scenario_version": scenario_version,
            "code_version": code_version if code_version is not None else repro.__version__,
            "params": params,
            "seed": seed,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass
class ResultRecord:
    """One persisted experiment result (or captured failure)."""

    key: str
    scenario: str
    params: dict[str, Any]
    seed: int
    replicate: int
    status: str  # "ok" | "error" | "timeout"
    result: dict | None = None
    error: str | None = None
    duration_s: float = 0.0
    scenario_version: str = "1"
    code_version: str = ""
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the stored JSON form (sorted keys, indented)."""
        # Strict by design: a `default=repr` fallback would silently
        # stringify a non-serializable result, so a cached replay would
        # return a different payload than the fresh run.  Backends validate
        # serializability when the result is produced (`execute_point`)
        # and fail the point with a clear error instead.
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        """Parse a stored record, ignoring unknown fields (forward compat)."""
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(eq=False)
class MergeSummary:
    """What one :meth:`ResultStore.merge` did, per the destination's view.

    Compares equal to a plain int (its ``imported`` count) so existing
    callers of the old ``merge() -> int`` keep working.
    """

    scanned: int = 0
    imported: int = 0
    skipped: int = 0
    replaced: int = 0
    duration_s: float = 0.0
    per_scenario: dict[str, int] = field(default_factory=dict)

    def __int__(self) -> int:
        return self.imported

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MergeSummary):
            return asdict(self) == asdict(other)
        if isinstance(other, int):
            return self.imported == other
        return NotImplemented


class ResultStore:
    """Directory-backed store: write-once JSON records keyed by cache key."""

    def __init__(self, root: str | os.PathLike = DEFAULT_STORE):
        self.root = Path(root)

    def _path(self, scenario_name: str, key: str) -> Path:
        return self.root / scenario_name / f"{key}.json"

    def has(self, scenario_name: str, key: str) -> bool:
        """Whether a record exists for this (scenario, cache key)."""
        return self._path(scenario_name, key).is_file()

    def get(self, scenario_name: str, key: str) -> ResultRecord | None:
        """Load one record by cache key, or None when absent."""
        path = self._path(scenario_name, key)
        if not path.is_file():
            return None
        return ResultRecord.from_json(path.read_text())

    def put(self, record: ResultRecord) -> Path:
        """Persist a record atomically; returns the file it landed in."""
        path = self._path(record.scenario, record.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, record.to_json())
        return path

    def iter_records(self, scenario_name: str | None = None) -> Iterator[ResultRecord]:
        """Yield stored records in deterministic (scenario, key) order,
        optionally restricted to one scenario.  A missing root or scenario
        directory yields nothing -- an empty store is not an error."""
        if not self.root.is_dir():
            return
        dirs = (
            [self.root / scenario_name]
            if scenario_name is not None
            else sorted(p for p in self.root.iterdir() if p.is_dir())
        )
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                yield ResultRecord.from_json(path.read_text())

    def count(self, scenario_name: str | None = None) -> int:
        """Number of stored records (optionally for one scenario)."""
        return sum(1 for _ in self.iter_records(scenario_name))

    def merge(
        self, other: "ResultStore | str | os.PathLike", overwrite: bool = False
    ) -> "MergeSummary":
        """Import every record from another store root into this one.

        Cache keys are content hashes, so records from separate runs (say,
        two machines each running part of a grid into its own store)
        integrate under the same keys a single run would have used.
        Existing records win unless ``overwrite`` (the store is write-once
        by convention).

        The write path is batched, not ``put()``-per-record: destination
        keys are snapshotted with one directory listing per scenario (no
        per-record ``stat``), and every imported record is staged through
        a single reused temp file and landed with an atomic
        ``os.replace`` -- so a large store merges in O(records) cheap
        syscalls, and a crash mid-merge leaves at most
        one ``.merge-*.tmp`` staging file, never a truncated record.
        Records are still parsed on the way through: a malformed source
        file raises instead of poisoning the destination.

        Concurrent writers are safe: a sweep ``put()``-ing the same key
        during the merge races on the final ``os.replace`` only, and both
        sides write complete records, so the destination always holds one
        intact version.

        Returns a :class:`MergeSummary` (compares equal to its
        ``imported`` count for backward compatibility).
        """
        source = other if isinstance(other, ResultStore) else ResultStore(other)
        if source.root.resolve() == self.root.resolve():
            raise ValueError(f"cannot merge a store into itself: {self.root}")
        start = time.perf_counter()
        summary = MergeSummary()
        if not source.root.is_dir():
            return summary
        for source_dir in sorted(p for p in source.root.iterdir() if p.is_dir()):
            scenario_name = source_dir.name
            dest_dir = self.root / scenario_name
            dest_dir.mkdir(parents=True, exist_ok=True)
            try:
                with os.scandir(dest_dir) as entries:
                    existing = {e.name for e in entries if e.name.endswith(".json")}
            except FileNotFoundError:
                existing = set()
            staging = dest_dir / f".merge-{os.getpid()}.tmp"
            copied = 0
            try:
                for path in sorted(source_dir.glob("*.json")):
                    summary.scanned += 1
                    if path.name in existing:
                        if not overwrite:
                            summary.skipped += 1
                            continue
                        summary.replaced += 1
                    record = ResultRecord.from_json(path.read_text())
                    staging.write_text(record.to_json())
                    os.replace(staging, dest_dir / path.name)
                    summary.imported += 1
                    copied += 1
            finally:
                staging.unlink(missing_ok=True)
            if copied:
                summary.per_scenario[scenario_name] = copied
        summary.duration_s = time.perf_counter() - start
        return summary

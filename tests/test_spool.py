"""Sharded spool: layout guard, the ready-index fast path, rescue scans.

The load-bearing test here is the **scan-count regression guard**:
claiming N tickets must perform O(1) full directory scans (the index fast
path), not one listing per claim.  The counters come from
:class:`SpoolStats`, which the claim path maintains unconditionally.
"""

import json

import pytest

from repro.experiments.backends.spool import (
    COMPACT_MISS_THRESHOLD,
    SHARDS,
    QueuePaths,
    ShardedSpool,
    SpoolStats,
)


def _fill(spool, n, prefix="t"):
    """Enqueue n minimal tickets (claiming only parses JSON)."""
    names = [f"{i:06d}-{prefix}-abc123.json" for i in range(n)]
    for name in names:
        spool.enqueue(name, {"schema": 2, "points": [], "nonce": "abc123"})
    return names


def _spool(root, stats=None):
    paths = QueuePaths(root)
    paths.ensure()
    return ShardedSpool(paths, stats=stats or SpoolStats())


def _names_in_shard(paths, shard, count, prefix):
    """The first ``count`` ticket names with ``prefix`` that hash to ``shard``."""
    names, i = [], 0
    while len(names) < count:
        name = f"{i:06d}-{prefix}-x.json"
        if paths.shard_of(name) == shard:
            names.append(name)
        i += 1
    return names


class TestScanRegressionGuard:
    def test_sharded_claims_are_o1_full_scans(self, tmp_path):
        """Regression guard: draining N tickets one claim at a time reads
        index tails (O(batch)), never one directory listing per claim."""
        n = 50
        spool = _spool(tmp_path / "q")
        _fill(spool, n)
        stats = spool.stats
        claimed = []
        for _ in range(n):
            got = spool.claim()
            assert got is not None
            claimed.append(got[0])
        assert len(set(claimed)) == n
        assert stats.claimed == n
        assert stats.index_hits == n  # every ticket served by the index
        assert stats.full_scans == 0  # the guard: no per-claim listings
        assert stats.rename_misses == 0

    def test_stale_index_hints_are_misses_not_errors(self, tmp_path):
        """A ticket claimed by another daemon leaves a stale index line;
        the next claimant counts a rename miss and moves on."""
        spool_a = _spool(tmp_path / "q")
        _fill(spool_a, 4)
        spool_b = ShardedSpool(spool_a.paths, stats=SpoolStats())
        took = {spool_a.claim()[0] for _ in range(4)}
        assert len(took) == 4
        # B's index cursors are fresh: every hint it reads is stale now.
        assert spool_b.claim() is None
        assert spool_b.stats.rename_misses == 4
        assert spool_b.stats.claimed == 0


class TestLayoutGuard:
    def test_ensure_writes_layout_marker(self, tmp_path):
        paths = QueuePaths(tmp_path / "q")
        paths.ensure()
        assert json.loads(paths.marker.read_text())["shards"] == SHARDS
        assert all(paths.shard_dir(i).is_dir() for i in range(SHARDS))
        assert not hasattr(paths, "tasks")
        QueuePaths(tmp_path / "q")  # a later process accepts its own marker

    def test_flat_spool_is_refused(self, tmp_path):
        """A spool of the older flat layout (tickets in tasks/) is refused
        with a remedy, not half-drained or silently stranded."""
        tasks = tmp_path / "q" / "tasks"
        tasks.mkdir(parents=True)
        (tasks / "000000-old-abc.json").write_text("{}")
        with pytest.raises(ValueError, match="flat spool.*previous version or delete it"):
            QueuePaths(tmp_path / "q")

    def test_foreign_shard_count_is_refused(self, tmp_path):
        root = tmp_path / "q"
        root.mkdir()
        (root / "spool.json").write_text(json.dumps({"schema": 1, "shards": 4}))
        with pytest.raises(ValueError, match="4 shard.*previous version or delete it"):
            QueuePaths(root)

    def test_cli_reports_foreign_spool_as_usage_error(self, tmp_path, capsys):
        from repro.experiments.cli import main

        root = tmp_path / "q"
        root.mkdir()
        (root / "spool.json").write_text(json.dumps({"schema": 1, "shards": 0}))
        assert main(["worker", str(root), "--max-idle", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (root / "claims").exists()  # refused before touching the spool

    def test_ticket_path_routes_by_hash(self, tmp_path):
        paths = QueuePaths(tmp_path / "q")
        name = "000001-k-n.json"
        expected = paths.shard_dir(paths.shard_of(name)) / name
        assert paths.ticket_path(name) == expected


class TestSpoolMechanics:
    def test_verify_scan_rescues_unindexed_tickets(self, tmp_path):
        """Tickets invisible to the index (dropped index lines: the file is
        in its shard, the log is not) are claimed by the rate-limited
        verification scan, never stranded."""
        spool = _spool(tmp_path / "q")
        orphans = {"000007-orphan-abc.json", "000008-orphan-abc.json"}
        for orphan in orphans:
            spool.paths.ticket_path(orphan).write_text(
                json.dumps({"schema": 2, "points": [], "nonce": "abc"})
            )
        assert spool.depth() == 2
        got = {spool.claim()[0] for _ in range(2)}
        assert got == orphans
        assert spool.stats.full_scans == 1
        assert spool.depth() == 0

    def test_unreadable_ticket_becomes_error_result(self, tmp_path):
        spool = _spool(tmp_path / "q")
        name = "000003-bad-abc.json"
        spool.paths.ticket_path(name).write_text("{not json")
        spool._index_append(spool.paths.shard_of(name), name)
        assert spool.claim() is None
        payload = json.loads((spool.paths.results / name).read_text())
        assert payload["outcome"]["status"] == "error"
        assert "unreadable" in payload["outcome"]["error"]

    def test_schema1_ticket_becomes_error_result(self, tmp_path):
        """A single-point (schema-1) ticket has no point list: it is failed
        into results/ through the unreadable-ticket path, not executed."""
        spool = _spool(tmp_path / "q")
        name = "000004-k1-abc.json"
        v1 = {"index": 4, "scenario": "s", "params": {}, "seed": 1, "replicate": 0, "key": "k1"}
        spool.enqueue(name, v1)
        assert spool.claim() is None
        payload = json.loads((spool.paths.results / name).read_text())
        assert payload["outcome"]["status"] == "error"
        assert "unreadable" in payload["outcome"]["error"]
        assert not list(spool.paths.claims.iterdir())  # lease and heartbeat gone

    def test_compaction_resets_misses_and_rebuilds_index(self, tmp_path):
        """After COMPACT_MISS_THRESHOLD stale hints on one shard, the
        claimant rewrites that shard's index from a single listing."""
        spool = _spool(tmp_path / "q")
        real = _names_in_shard(spool.paths, 0, 3, "t")
        for name in real:
            spool.enqueue(name, {"schema": 2, "points": [], "nonce": "abc123"})
        # Poison the index with enough phantom names to trip compaction.
        for name in _names_in_shard(spool.paths, 0, COMPACT_MISS_THRESHOLD, "phantom"):
            spool._index_append(0, name)
        other = ShardedSpool(spool.paths, stats=SpoolStats())
        # The real tickets claim first (in index order), then the phantom
        # tail burns misses into a compaction.
        assert [other.claim()[0] for _ in range(3)] == real
        assert other.claim() is None
        assert other.stats.rename_misses == COMPACT_MISS_THRESHOLD
        assert other.stats.compactions == 1
        # The rewritten index holds only what is actually on disk.
        assert other.paths.index_path(0).read_text() == ""

    def test_depth_counts_every_shard(self, tmp_path):
        spool = _spool(tmp_path / "q")
        _fill(spool, 5)
        orphan = "000009-orphan-x.json"
        spool.paths.ticket_path(orphan).write_text("{}")  # unindexed still counts
        assert spool.depth() == 6
        spool.claim()
        spool.claim()
        assert spool.depth() == 4

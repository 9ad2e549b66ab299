"""Partitioning substrate of the in-memory data grid.

Hazelcast IMDG splits every data structure's key space into a fixed
number of partitions (271 by default) and assigns each partition a
*primary* owner plus ``backup_count`` backup owners. Assignment uses
consistent hashing over a ring of virtual nodes (§4.3 cites Chord) so
that membership changes move only the partitions that must move.

This module is pure data-structure logic — no threads, no I/O — so it
is reusable both by :mod:`repro.imdg.imap` (state storage) and by the
Jet engine (which aligns its keyed-edge partitioning with the grid's,
§2.4 / §4.1).
"""
import bisect
import zlib
from functools import lru_cache

#: Hazelcast's default partition count.
DEFAULT_PARTITION_COUNT = 271

#: Virtual nodes per member on the consistent-hash ring. More vnodes =
#: smoother balance at the cost of a bigger ring.
VNODES = 64


def stable_hash(value) -> int:
    """Deterministic 32-bit hash (crc32 of the repr) — stable across
    processes, unlike Python's seeded ``hash``."""
    return zlib.crc32(repr(value).encode())


def partition_id(key, n_partitions: int = DEFAULT_PARTITION_COUNT) -> int:
    """Map an arbitrary key to its partition, Hazelcast-style."""
    return stable_hash(key) % n_partitions


class PartitionTable:
    """Immutable assignment of partitions to replica-ordered node lists.

    ``table[p]`` is the list ``[primary, backup1, ...]`` of node ids for
    partition ``p``. Build one with :meth:`assign`; derive the table for
    a changed membership with :meth:`assign` again and diff with
    :meth:`migrations_from` — consistent hashing keeps the diff minimal.
    """

    def __init__(self, table: list[list[int]]):
        self.table = table

    @property
    def n_partitions(self) -> int:
        return len(self.table)

    def owners(self, pid: int) -> list[int]:
        """Replica-ordered owner list for a partition."""
        return self.table[pid]

    def primary(self, pid: int) -> int:
        return self.table[pid][0]

    @classmethod
    def assign(
        cls,
        node_ids: list[int],
        *,
        n_partitions: int = DEFAULT_PARTITION_COUNT,
        backup_count: int = 1,
    ) -> "PartitionTable":
        """Assign every partition to ``1 + backup_count`` distinct nodes
        via consistent hashing (ring walk from the partition's point).
        A table is immutable, so one is built once per membership."""
        if not node_ids:
            raise ValueError("cannot assign partitions to an empty cluster")
        return _assign(tuple(node_ids), n_partitions, backup_count)

    def migrations_from(self, old: "PartitionTable") -> list[tuple[int, int, int]]:
        """Replica movements needed to go from ``old`` to this table.

        Returns ``(pid, replica_idx, new_owner)`` for every slot whose
        owner changed. Used to measure (and test) migration minimality.
        """
        moves = []
        for pid, owners in enumerate(self.table):
            old_owners = old.table[pid] if pid < old.n_partitions else []
            for ridx, nid in enumerate(owners):
                if ridx >= len(old_owners) or old_owners[ridx] != nid:
                    moves.append((pid, ridx, nid))
        return moves


@lru_cache(maxsize=64)
def _assign(node_ids: tuple[int, ...], n_partitions: int, backup_count: int) -> PartitionTable:
    n_replicas = min(1 + backup_count, len(node_ids))
    ring: list[tuple[int, int]] = []
    for nid in node_ids:
        for v in range(VNODES):
            ring.append((stable_hash(("vnode", nid, v)), nid))
    ring.sort()
    points = [h for h, _ in ring]
    table = []
    for pid in range(n_partitions):
        start = bisect.bisect_left(points, stable_hash(("partition", pid))) % len(ring)
        owners: list[int] = []
        i = start
        while len(owners) < n_replicas:
            nid = ring[i % len(ring)][1]
            if nid not in owners:
                owners.append(nid)
            i += 1
        table.append(owners)
    return PartitionTable(table)

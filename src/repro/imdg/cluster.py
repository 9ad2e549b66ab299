"""IMDG cluster: membership, replica placement, failure and recovery.

Implements the behaviour of §4.2–§4.3 of the paper:

* every partition has a primary replica and ``backup_count`` backups on
  *other* nodes (sync backups — a ``put`` lands on all replicas before
  it returns);
* when a node fails, surviving backups are **promoted** to primary and
  new backups are re-established from the promoted copies (Fig 6);
* when a node joins, consistent hashing moves only the partitions that
  must move (§4.3), and the data for those partitions is migrated.

Storage is per-node dictionaries — this is the in-memory grid the Jet
engine snapshots into; "zero dependency on disk storage" (§4.2) holds
trivially.
"""
from .partition import DEFAULT_PARTITION_COUNT, PartitionTable, partition_id


class Node:
    """One grid member. ``storage[map_name][pid]`` is that partition's
    key→value dict, present only on nodes owning a replica of ``pid``."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.storage: dict[str, dict[int, dict]] = {}

    def frag(self, map_name: str, pid: int) -> dict:
        """The (possibly empty) local fragment of a map partition."""
        return self.storage.setdefault(map_name, {}).setdefault(pid, {})

    def drop_frag(self, map_name: str, pid: int) -> None:
        self.storage.get(map_name, {}).pop(pid, None)


class DataLossError(RuntimeError):
    """Raised when every replica of a partition was lost at once."""


class Cluster:
    """A grid of :class:`Node` members with automatic re-replication.

    Parameters mirror the paper's deployment knobs: ``backup_count`` is
    the number of backup replicas per partition (the FT experiment §7.6
    replicates snapshots "to another 1 member node", i.e. 1 backup).
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        backup_count: int = 1,
        n_partitions: int = DEFAULT_PARTITION_COUNT,
    ):
        self.backup_count = backup_count
        self.n_partitions = n_partitions
        self._next_id = n_nodes
        self.nodes: dict[int, Node] = {i: Node(i) for i in range(n_nodes)}
        self.table = PartitionTable.assign(
            sorted(self.nodes), n_partitions=n_partitions, backup_count=backup_count
        )
        self.migration_log: list[tuple[int, int, int]] = []
        self._map_names: set[str] = set()

    # -- membership -----------------------------------------------------

    @property
    def member_ids(self) -> list[int]:
        return sorted(self.nodes)

    def add_node(self) -> int:
        """Join a new member; rebalance and migrate affected partitions."""
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = Node(nid)
        self._rebalance()
        return nid

    def fail_node(self, node_id: int) -> None:
        """Crash a member: its replicas are gone; promote + re-backup."""
        self.nodes.pop(node_id)
        if not self.nodes:
            raise DataLossError("last member failed")
        self._rebalance(lost_node=node_id)

    # -- data access (used by IMap) -------------------------------------

    def register_map(self, name: str) -> None:
        self._map_names.add(name)

    def destroy_map(self, name: str) -> None:
        for node in self.nodes.values():
            node.storage.pop(name, None)
        self._map_names.discard(name)

    def put(self, map_name: str, key, value) -> None:
        """Write-through to the primary and, synchronously, all backups."""
        pid = partition_id(key, self.n_partitions)
        for nid in self.table.owners(pid):
            self.nodes[nid].frag(map_name, pid)[key] = value

    def get(self, map_name: str, key):
        pid = partition_id(key, self.n_partitions)
        return self.nodes[self.table.primary(pid)].frag(map_name, pid).get(key)

    def remove(self, map_name: str, key) -> None:
        pid = partition_id(key, self.n_partitions)
        for nid in self.table.owners(pid):
            self.nodes[nid].frag(map_name, pid).pop(key, None)

    def primary_frag(self, map_name: str, pid: int) -> dict:
        return self.nodes[self.table.primary(pid)].frag(map_name, pid)

    # -- replica maintenance --------------------------------------------

    def _rebalance(self, lost_node: int | None = None) -> None:
        """Recompute the partition table for current membership and move
        replica data accordingly.

        On failure, the old table still names the dead node; data for a
        partition survives iff some surviving node held *any* replica
        (promotion, Fig 6). On join, fragments are copied to the new
        owners and dropped from former owners.
        """
        old = self.table
        new = PartitionTable.assign(
            self.member_ids,
            n_partitions=self.n_partitions,
            backup_count=self.backup_count,
        )
        for pid in range(self.n_partitions):
            survivors = [n for n in old.owners(pid) if n in self.nodes]
            if not survivors and lost_node is not None:
                raise DataLossError(f"all replicas of partition {pid} lost")
            donor = survivors[0] if survivors else None
            new_owners = new.owners(pid)
            for map_name in self._map_names:
                src = self.nodes[donor].frag(map_name, pid) if donor is not None else {}
                for ridx, nid in enumerate(new_owners):
                    if nid != donor:
                        self.nodes[nid].storage.setdefault(map_name, {})[pid] = dict(src)
                for nid in set(self.nodes) - set(new_owners):
                    self.nodes[nid].drop_frag(map_name, pid)
        self.migration_log.extend(new.migrations_from(old))
        self.table = new

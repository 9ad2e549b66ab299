"""IMap: the distributed map of the grid.

The paper's Jet stores every state snapshot in an ``IMap`` (§2.4,
§4.1): a key-value structure partitioned across the cluster with
primary + backup replicas. This module provides that interface over
:class:`repro.imdg.cluster.Cluster`, plus the cluster-wide scan the
engine uses to restore processor state.
"""
from collections.abc import Iterator

from .cluster import Cluster


class IMap:
    """A named, partitioned, replicated key-value map.

    All operations route by ``partition_id(key)``; writes are applied to
    the primary and its backups synchronously (AP behaviour under no
    partition, per §1 — network partitions are out of scope for the
    single-process grid).
    """

    def __init__(self, name: str, cluster: Cluster):
        self.name = name
        self.cluster = cluster
        cluster.register_map(name)

    # -- basic ops ------------------------------------------------------

    def put(self, key, value) -> None:
        self.cluster.put(self.name, key, value)

    def get(self, key):
        return self.cluster.get(self.name, key)

    def remove(self, key) -> None:
        self.cluster.remove(self.name, key)

    def put_all(self, entries: dict) -> None:
        for k, v in entries.items():
            self.put(k, v)

    def destroy(self) -> None:
        """Drop the map: its fragments on every node, and its name."""
        self.cluster.destroy_map(self.name)

    # -- scans ----------------------------------------------------------

    def entry_set(self) -> Iterator[tuple[object, object]]:
        """Iterate all entries from primary replicas (cluster-wide scan)."""
        for pid in range(self.cluster.n_partitions):
            yield from self.cluster.primary_frag(self.name, pid).items()

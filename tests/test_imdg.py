"""IMDG substrate tests: partitioning, replication, failure, elasticity."""
import pytest

from repro.imdg.cluster import Cluster, DataLossError
from repro.imdg.imap import IMap
from repro.imdg.partition import (
    DEFAULT_PARTITION_COUNT,
    PartitionTable,
    partition_id,
    stable_hash,
)

# -- partitioning -------------------------------------------------------


def test_stable_hash_deterministic():
    assert stable_hash(("a", 1)) == stable_hash(("a", 1))
    assert stable_hash("x") != stable_hash("y")


@pytest.mark.parametrize("key", [0, 1, "abc", ("k", 42), 10**12])
def test_partition_id_in_range(key):
    assert 0 <= partition_id(key) < DEFAULT_PARTITION_COUNT


@pytest.mark.parametrize("n_nodes,backup_count", [(1, 1), (2, 1), (3, 1), (5, 2), (10, 1)])
def test_assignment_replicas_distinct(n_nodes, backup_count):
    t = PartitionTable.assign(list(range(n_nodes)), backup_count=backup_count)
    want = min(1 + backup_count, n_nodes)
    for owners in t.table:
        assert len(owners) == want
        assert len(set(owners)) == want


@pytest.mark.parametrize("n_nodes", [2, 3, 5, 10, 20])
def test_assignment_balanced(n_nodes):
    t = PartitionTable.assign(list(range(n_nodes)), backup_count=1)
    counts = [sum(owners[0] == n for owners in t.table) for n in range(n_nodes)]
    fair = DEFAULT_PARTITION_COUNT / n_nodes
    # consistent hashing with 64 vnodes: within 3x fair share, none starved
    assert max(counts) < 3 * fair
    assert min(counts) > 0


def test_join_migration_is_minimal():
    old = PartitionTable.assign(list(range(5)), backup_count=1)
    new = PartitionTable.assign(list(range(6)), backup_count=1)
    primary_moves = [m for m in new.migrations_from(old) if m[1] == 0]
    # naive reassignment would move ~ (5/6) of primaries; consistent
    # hashing should move roughly 1/6 (allow 2.5x slack for vnode noise)
    assert len(primary_moves) < 2.5 * DEFAULT_PARTITION_COUNT / 6


def test_unchanged_membership_no_migration():
    a = PartitionTable.assign([1, 2, 3])
    b = PartitionTable.assign([1, 2, 3])
    assert b.migrations_from(a) == []


def test_empty_cluster_rejected():
    with pytest.raises(ValueError):
        PartitionTable.assign([])


# -- IMap basics --------------------------------------------------------


@pytest.fixture
def grid():
    return Cluster(3, backup_count=1, n_partitions=32)


def test_imap_put_get_remove(grid):
    m = IMap("m", grid)
    m.put("a", 1)
    m.put("b", 2)
    assert m.get("a") == 1 and m.get("b") == 2
    m.remove("a")
    assert m.get("a") is None
    assert m.get("b") == 2


def test_imap_put_all_and_len(grid):
    m = IMap("m", grid)
    m.put_all({i: i * i for i in range(100)})
    assert sum(1 for _ in m.entry_set()) == 100
    assert sorted(dict(m.entry_set())) == list(range(100))


def test_imap_writes_reach_backups(grid):
    m = IMap("m", grid)
    m.put("k", "v")
    pid = partition_id("k", grid.n_partitions)
    holders = [
        nid
        for nid, node in grid.nodes.items()
        if node.storage.get("m", {}).get(pid, {}).get("k") == "v"
    ]
    assert sorted(holders) == sorted(grid.table.owners(pid))
    assert len(holders) == 2  # primary + 1 backup


# -- failure & recovery (Fig 6) ----------------------------------------


@pytest.mark.parametrize("victim", [0, 1, 2])
def test_single_failure_no_data_loss(victim):
    grid = Cluster(3, backup_count=1, n_partitions=64)
    m = IMap("m", grid)
    data = {f"k{i}": i for i in range(500)}
    m.put_all(data)
    grid.fail_node(victim)
    assert dict(m.entry_set()) == data


def test_failure_restores_replica_count():
    grid = Cluster(4, backup_count=1, n_partitions=64)
    m = IMap("m", grid)
    m.put_all({i: i for i in range(200)})
    grid.fail_node(0)
    for pid in range(grid.n_partitions):
        owners = grid.table.owners(pid)
        assert len(owners) == 2
        frags = [grid.nodes[n].frag("m", pid) for n in owners]
        assert frags[0] == frags[1]  # backup resynced after promotion


def test_sequential_failures_survive_with_one_backup():
    grid = Cluster(4, backup_count=1, n_partitions=64)
    m = IMap("m", grid)
    data = {i: str(i) for i in range(300)}
    m.put_all(data)
    grid.fail_node(0)  # re-replication completes between failures
    grid.fail_node(1)
    assert dict(m.entry_set()) == data


def test_no_backup_failure_loses_data():
    grid = Cluster(3, backup_count=0, n_partitions=32)
    m = IMap("m", grid)
    m.put_all({i: i for i in range(100)})
    with pytest.raises(DataLossError):
        grid.fail_node(0)


def test_last_member_failure_raises():
    grid = Cluster(1, backup_count=1, n_partitions=8)
    with pytest.raises(DataLossError):
        grid.fail_node(0)


# -- elasticity (§4.3) --------------------------------------------------


def test_scale_out_preserves_data_and_rebalances():
    grid = Cluster(2, backup_count=1, n_partitions=64)
    m = IMap("m", grid)
    data = {i: -i for i in range(400)}
    m.put_all(data)
    nid = grid.add_node()
    assert dict(m.entry_set()) == data
    assert any(nid in owners for owners in grid.table.table)


def test_scale_out_migration_minimal():
    grid = Cluster(5, backup_count=1, n_partitions=DEFAULT_PARTITION_COUNT)
    IMap("m", grid)
    grid.migration_log.clear()
    grid.add_node()
    primary_moves = [mv for mv in grid.migration_log if mv[1] == 0]
    assert len(primary_moves) < 2.5 * DEFAULT_PARTITION_COUNT / 6


def test_scale_out_then_fail_new_node():
    grid = Cluster(2, backup_count=1, n_partitions=32)
    m = IMap("m", grid)
    data = {i: i for i in range(100)}
    m.put_all(data)
    nid = grid.add_node()
    m.put("late", 1)
    grid.fail_node(nid)
    assert m.get("late") == 1
    assert dict(m.entry_set()) == data | {"late": 1}


def test_writes_after_rebalance_route_to_new_table():
    grid = Cluster(2, backup_count=1, n_partitions=32)
    m = IMap("m", grid)
    grid.add_node()
    m.put("x", 9)
    pid = partition_id("x", grid.n_partitions)
    primary = grid.table.primary(pid)
    assert grid.nodes[primary].frag("m", pid)["x"] == 9

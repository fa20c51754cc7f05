"""Unit tests for B-link tree search/insert/delete."""

import random

import pytest

from repro.btree.maintenance import validate_tree
from repro.btree.node import MAX_KEY, MIN_KEY, Node, node_capacity
from repro.btree.tree import BLinkTree
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def tree():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    # Tiny fan-outs force multi-level trees with few keys.
    return BLinkTree(pool, max_leaf_entries=4, max_inner_entries=4)


def fill(tree, keys):
    for key in keys:
        tree.insert(key, key * 10)


def test_empty_tree_searches(tree):
    assert tree.search(1) == []
    assert tree.search_one(1) is None
    assert not tree.contains(1)
    assert tree.entry_count == 0
    assert tree.height == 1


def test_insert_and_search(tree):
    fill(tree, [5, 1, 9, 3])
    assert tree.search_one(3) == 30
    assert tree.search(9) == [90]
    assert tree.contains(5)
    assert not tree.contains(4)
    validate_tree(tree)


def test_split_grows_height(tree):
    fill(tree, range(20))
    assert tree.height >= 3
    for key in range(20):
        assert tree.search_one(key) == key * 10
    validate_tree(tree)


def test_random_inserts_stay_sorted(tree):
    keys = random.Random(3).sample(range(1000), 200)
    fill(tree, keys)
    assert [k for k, _ in tree.items()] == sorted(keys)
    validate_tree(tree)


def test_delete_leaf_entry(tree):
    fill(tree, range(10))
    assert tree.delete(4)
    assert not tree.contains(4)
    assert tree.entry_count == 9
    validate_tree(tree)


def test_delete_missing_returns_false(tree):
    fill(tree, [1, 2, 3])
    assert not tree.delete(99)
    assert tree.entry_count == 3


def test_delete_with_value_match(tree):
    tree.insert(7, 100)
    tree.insert(7, 200)  # duplicate key, different value
    assert not tree.delete(7, 999)
    assert tree.delete(7, 200)
    assert tree.search(7) == [100]
    validate_tree(tree)


def test_duplicates_across_leaves(tree):
    for i in range(12):
        tree.insert(50, 1000 + i)
    assert sorted(tree.search(50)) == [1000 + i for i in range(12)]
    for i in range(12):
        assert tree.delete(50, 1000 + i)
    assert tree.search(50) == []


def test_delete_everything_collapses_to_empty(tree):
    keys = list(range(40))
    fill(tree, keys)
    random.Random(1).shuffle(keys)
    for key in keys:
        assert tree.delete(key)
    assert tree.entry_count == 0
    assert list(tree.items()) == []
    validate_tree(tree)


def test_free_at_empty_reclaims_pages(tree):
    fill(tree, range(40))
    pages_full = tree.node_count()
    for key in range(40):
        tree.delete(key)
    assert tree.node_count() < pages_full
    assert tree.node_count() == 1  # a single empty leaf remains
    validate_tree(tree)


def test_root_collapse_reduces_height(tree):
    fill(tree, range(40))
    height_full = tree.height
    for key in range(39):
        tree.delete(key)
    assert tree.height < height_full
    assert tree.search_one(39) == 390
    validate_tree(tree)


def test_unique_tree_rejects_duplicates():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=32)
    tree = BLinkTree(pool, unique=True, max_leaf_entries=4)
    tree.insert(1, 10)
    with pytest.raises(UniqueViolationError):
        tree.insert(1, 20)
    assert tree.entry_count == 1


def test_range_scan(tree):
    fill(tree, range(0, 100, 3))
    result = list(tree.range_scan(10, 40))
    assert result == [(k, k * 10) for k in range(12, 41, 3)]


def test_range_scan_open_ended(tree):
    fill(tree, [5, 10, 15])
    assert list(tree.range_scan()) == [(5, 50), (10, 100), (15, 150)]
    assert list(tree.range_scan(lo=11)) == [(15, 150)]
    assert list(tree.range_scan(hi=9)) == [(5, 50)]


def test_extreme_keys(tree):
    tree.insert(MIN_KEY, 1)
    tree.insert(MAX_KEY, 2)
    tree.insert(0, 3)
    assert tree.search_one(MIN_KEY) == 1
    assert tree.search_one(MAX_KEY) == 2
    validate_tree(tree)


def test_oversize_entry_count_rejected(tree):
    """A header claiming more entries than the page can hold is refused
    with an error naming the page, by decoding and by in-place probes."""
    fill(tree, [1, 2, 3])
    leaf_id = tree.root_id
    too_many = node_capacity(tree.pool.disk.page_size) + 1
    with tree.pool.pin(leaf_id) as pinned:
        pinned.data[2:4] = too_many.to_bytes(2, "little")
        pinned.mark_dirty()
        page = bytes(pinned.data)
    expected = f"node page {leaf_id} claims {too_many} entries"
    with pytest.raises(IndexError_, match=expected):
        Node.unpack_from(leaf_id, page)
    with pytest.raises(IndexError_, match=expected):
        tree.search(2)
    with pytest.raises(IndexError_, match=expected):
        tree.delete(2)


def test_interleaved_insert_delete(tree):
    rng = random.Random(9)
    model = {}
    for step in range(400):
        key = rng.randrange(60)
        if key in model and rng.random() < 0.5:
            assert tree.delete(key, model.pop(key))
        else:
            value = step
            tree.insert(key, value)
            if key in model:
                tree.delete(key, model[key])
            model[key] = value
    assert sorted((k, v) for k, v in tree.items()) == sorted(model.items())
    validate_tree(tree)


def test_capacity_clamped_to_page(tree):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=8)
    big = BLinkTree(pool, max_leaf_entries=10**6)
    assert big.leaf_capacity <= (512 - 32) // 16


def test_capacity_minimum_enforced():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=8)
    with pytest.raises(IndexError_):
        BLinkTree(pool, max_leaf_entries=2)


def test_drop_frees_all_nodes(tree):
    fill(tree, range(30))
    pages = tree.node_count()
    assert pages > 1
    tree.drop()
    assert tree.height == 0

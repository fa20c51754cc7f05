"""A B-link tree (B+-tree with sibling-chained levels).

This is the index structure all of the paper's experiments run on:

* all ``(key, RID)`` entries live in the leaves; inner nodes hold only
  separator keys (Section 2.2 of the paper),
* the nodes of every level are chained left-to-right (B-link
  organization [10]) so leaf levels can be swept sequentially and inner
  levels can be rebuilt layer by layer,
* record-at-a-time deletion follows Jannink [7] with the free-at-empty
  policy of Johnson & Shasha [9]: a node is reclaimed only when it is
  completely empty (merge-at-half is available for ablations, see
  :mod:`repro.btree.maintenance`),
* leaf and inner fan-out can be capped independently — the paper's
  Experiment 3 builds a height-4 index by artificially shrinking inner
  fan-out to 100 entries, and the workload generator does the same.

Keys and values are signed 64-bit integers; values are packed RIDs for
table indexes and child page ids in inner nodes.  Duplicate keys are
supported by ordering entries on ``(key, value)``.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.btree.node import (
    MAX_KEY,
    MIN_KEY,
    NO_NODE,
    Node,
    _insert_entry,
    _keys,
    _node_from_header,
    _read_header,
    _remove_entry,
    _value_at,
    _values,
    node_capacity,
)
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool

#: Fraction of a node filled during bulk load; some slack avoids a split
#: storm on the first trickle of inserts after loading.
DEFAULT_FILL_FACTOR = 0.9

Entry = Tuple[int, int]
#: ``(page_id, page bytes)`` of one node as a descent saw it
Visit = Tuple[int, bytes]


class BLinkTree:
    """Single-writer B-link tree over a buffer pool."""

    def __init__(
        self,
        pool: BufferPool,
        name: str = "index",
        unique: bool = False,
        max_leaf_entries: Optional[int] = None,
        max_inner_entries: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.name = name
        self.unique = unique
        self.file_id = pool.disk.create_file()
        physical = node_capacity(pool.disk.page_size)
        self.leaf_capacity = self._clamp_capacity(max_leaf_entries, physical)
        self.inner_capacity = self._clamp_capacity(max_inner_entries, physical)
        root = self._allocate_node(level=0)
        self.root_id = root.page_id
        self.first_leaf_id = root.page_id
        self.height = 1
        self._entry_count = 0

    @staticmethod
    def _clamp_capacity(requested: Optional[int], physical: int) -> int:
        if physical < 4:
            raise IndexError_("page size too small for a B-tree node")
        if requested is None:
            return physical
        if requested < 4:
            raise IndexError_("node capacity must be at least 4 entries")
        return min(requested, physical)

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _read(self, page_id: int) -> Node:
        with self.pool.pin(page_id) as pinned:
            return Node.unpack_from(page_id, pinned.data)

    def _visit(self, page_id: int) -> bytes:
        """The page's bytes, read under one pin exactly as ``_read``."""
        with self.pool.pin(page_id) as pinned:
            return bytes(pinned.data)

    def _write(self, node: Node) -> None:
        with self.pool.pin(node.page_id) as pinned:
            node.pack_into(pinned.data)
            pinned.mark_dirty()

    def _allocate_node(self, level: int) -> Node:
        with self.pool.pin_new(self.file_id) as pinned:
            node = Node(pinned.page_id, level)
            node.pack_into(pinned.data)
            pinned.mark_dirty()
        return node

    def _free_node(self, page_id: int) -> None:
        self.pool.discard(page_id)
        self.pool.disk.free_page(page_id)

    def capacity_for(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.inner_capacity

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _descend(self, key: int) -> List[Visit]:
        """Root-to-leaf trail for ``key`` (each step is one page access).

        Separators are the minimum keys of their subtrees, and a split
        may leave copies of one key on both sides of a separator equal
        to it.  Descending therefore enters the last child whose
        separator is *strictly below* the key (that child's range is
        inclusive of the next separator) and lookups continue rightward
        along the sibling chain when needed.  Routing bisects the page
        bytes; no node is decoded.
        """
        trail: List[Visit] = []
        page_id = self.root_id
        while True:
            data = self._visit(page_id)
            trail.append((page_id, data))
            level, _, count, _, _, _, _ = _read_header(page_id, data)
            if level == 0:
                return trail
            if count == 0:
                raise IndexError_(f"inner node {page_id} is empty")
            idx = bisect.bisect_left(_keys(data, count), key)
            page_id = _value_at(data, idx - 1 if idx else 0)

    def find_leaf(self, key: int) -> Node:
        page_id, data = self._descend(key)[-1]
        return Node.unpack_from(page_id, data)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def search(self, key: int) -> List[int]:
        """Return the values of every entry with ``key``.

        Descends to the first leaf that may hold ``key`` and continues
        rightward along the chain while matches can still follow —
        duplicate keys (and keys sitting on a split boundary) may span
        several leaves.
        """
        page_id, data = self._descend(key)[-1]
        values: List[int] = []
        while True:
            _, _, count, _, _, _, right_id = _read_header(page_id, data)
            keys = _keys(data, count)
            lo = bisect.bisect_left(keys, key)
            hi = bisect.bisect_right(keys, key, lo)
            values.extend(_value_at(data, idx) for idx in range(lo, hi))
            if right_id == NO_NODE:
                break
            if count and keys[count - 1] > key:
                break
            page_id = right_id
            data = self._visit(page_id)
        return values

    def search_one(self, key: int) -> Optional[int]:
        values = self.search(key)
        return values[0] if values else None

    def contains(self, key: int, value: Optional[int] = None) -> bool:
        values = self.search(key)
        if value is None:
            return bool(values)
        return value in values

    def range_scan(self, lo: int = MIN_KEY, hi: int = MAX_KEY) -> Iterator[Entry]:
        """Yield entries with ``lo <= key <= hi`` in key order."""
        node = self.find_leaf(lo)
        while True:
            for key, value in node.entries:
                if key < lo:
                    continue
                if key > hi:
                    return
                yield key, value
            if node.right_id == NO_NODE:
                return
            node = self._read(node.right_id)

    def items(self) -> Iterator[Entry]:
        return self.range_scan()

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert one entry, splitting on the way up as needed.

        Without a split the entry is shifted into the leaf page in
        place; a split decodes the leaf and, level by level, only the
        ancestors it has to update.
        """
        trail = self._descend(key)
        leaf_id, data = trail[-1]
        if self.unique and self.contains(key):
            raise UniqueViolationError(
                f"duplicate key {key} in unique index {self.name}"
            )
        header = _read_header(leaf_id, data)
        count = header[2]
        # Where bisect.insort would put (key, value) in the decoded list.
        keys = _keys(data, count)
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_right(keys, key, lo)
        pos = bisect.bisect_right(_values(data, count), value, lo, hi)
        self._entry_count += 1
        if count + 1 > self.leaf_capacity:
            leaf = Node.unpack_from(leaf_id, data)
            leaf.entries.insert(pos, (key, value))
            self._split(leaf, trail[:-1])
        else:
            with self.pool.pin(leaf_id) as pinned:
                _insert_entry(pinned.data, header, pos, key, value)
                pinned.mark_dirty()

    def _split(self, node: Node, ancestors: List[Visit]) -> None:
        """Split the overfull ``node``; ``ancestors`` is its descent trail."""
        mid = node.entry_count // 2
        sibling = self._allocate_node(node.level)
        sibling.entries = node.entries[mid:]
        node.entries = node.entries[:mid]
        sibling.right_id = node.right_id
        sibling.left_id = node.page_id
        node.right_id = sibling.page_id
        sibling.high_key = node.high_key
        node.high_key = sibling.first_key()
        if sibling.right_id != NO_NODE:
            right = self._read(sibling.right_id)
            right.left_id = sibling.page_id
            self._write(right)
        self._write(node)
        self._write(sibling)
        separator = (sibling.first_key(), sibling.page_id)
        if not ancestors:
            # The split node was the root: grow the tree by one level.
            new_root = self._allocate_node(node.level + 1)
            new_root.entries = [
                (node.first_key() if node.entries else MIN_KEY, node.page_id),
                separator,
            ]
            self._write(new_root)
            self.root_id = new_root.page_id
            self.height += 1
            return
        parent = Node.unpack_from(*ancestors[-1])
        for pos, (sep, child) in enumerate(parent.entries):
            if child == node.page_id:
                # Child 0 may carry a stale-high separator (it absorbs
                # every key below the next separator); after a split the
                # new sibling's separator must not sort below it, so
                # refresh it to the node's true minimum.
                if sep > node.first_key():
                    parent.entries[pos] = (node.first_key(), node.page_id)
                parent.entries.insert(pos + 1, separator)
                break
        else:  # pragma: no cover - structural invariant
            raise IndexError_(
                f"split node {node.page_id} missing from parent "
                f"{parent.page_id}"
            )
        if parent.entry_count > self.capacity_for(parent):
            self._split(parent, ancestors[:-1])
        else:
            self._write(parent)

    # ------------------------------------------------------------------
    # delete (record-at-a-time, the paper's horizontal baseline)
    # ------------------------------------------------------------------
    def delete(self, key: int, value: Optional[int] = None) -> bool:
        """Delete one entry with ``key`` (and ``value`` if given).

        Returns ``True`` when an entry was removed.  This is the
        traversal-per-record path used by the traditional executors.
        The descended leaf may be one step left of the match (split
        boundaries and duplicate runs), so the search continues
        rightward along the chain; free-at-empty then locates the
        emptied leaf\'s true ancestor chain by walking each level of the
        descended path rightward (the B-link property).  Unless the
        leaf empties, the entry is shifted out of the page in place.
        """
        trail = self._descend(key)
        page_id, data = trail[-1]
        while True:
            header = _read_header(page_id, data)
            _, _, count, _, _, _, right_id = header
            keys = _keys(data, count)
            lo = bisect.bisect_left(keys, key)
            hi = bisect.bisect_right(keys, key, lo)
            idx = lo
            if value is not None:
                idx = bisect.bisect_left(_values(data, count), value, lo, hi)
            if idx < hi and (value is None or _value_at(data, idx) == value):
                self._entry_count -= 1
                if count == 1 and self.height > 1:
                    leaf = _node_from_header(page_id, header, [])
                    ancestors = self._true_ancestors(leaf, trail)
                    self._free_empty_leaf(leaf, ancestors)
                else:
                    with self.pool.pin(page_id) as pinned:
                        _remove_entry(pinned.data, header, idx)
                        pinned.mark_dirty()
                return True
            if right_id == NO_NODE:
                return False
            if count and keys[count - 1] > key:
                return False
            page_id = right_id
            data = self._visit(page_id)

    def _true_ancestors(self, leaf: Node, trail: List[Visit]) -> List[Visit]:
        """Root-to-parent trail of ``leaf`` when ``leaf`` lies at or right
        of the descended trail\'s leaf.

        Every true ancestor of ``leaf`` sits at-or-right of the
        corresponding node on the descended trail, so each level is
        found by walking its sibling chain rightward — the classic
        B-link move-right, applied bottom-up.
        """
        if trail[-1][0] == leaf.page_id:
            return trail[:-1]
        chain: List[Visit] = []
        child_pid = leaf.page_id
        for depth in range(len(trail) - 2, -1, -1):
            visit = trail[depth]
            node = Node.unpack_from(*visit)
            while not any(pid == child_pid for _, pid in node.entries):
                if node.right_id == NO_NODE:  # pragma: no cover
                    raise IndexError_(
                        f"node {child_pid} unreachable from level "
                        f"{node.level}"
                    )
                visit = (node.right_id, self._visit(node.right_id))
                node = Node.unpack_from(*visit)
            chain.insert(0, visit)
            child_pid = node.page_id
        return chain

    def _free_empty_leaf(self, node: Node, ancestors: List[Visit]) -> None:
        """Free-at-empty: reclaim an empty node and fix parents."""
        self._unlink_from_chain(node)
        if node.page_id == self.first_leaf_id:
            self.first_leaf_id = node.right_id
        self._free_node(node.page_id)
        self._remove_child(ancestors, node.page_id)
        self._maybe_collapse_root()

    def _unlink_from_chain(self, node: Node) -> None:
        if node.left_id != NO_NODE:
            left = self._read(node.left_id)
            left.right_id = node.right_id
            left.high_key = node.high_key
            self._write(left)
        if node.right_id != NO_NODE:
            right = self._read(node.right_id)
            right.left_id = node.left_id
            self._write(right)

    def _remove_child(self, ancestors: List[Visit], child_id: int) -> None:
        parent = Node.unpack_from(*ancestors[-1])
        for idx, (_, pid) in enumerate(parent.entries):
            if pid == child_id:
                del parent.entries[idx]
                break
        else:  # pragma: no cover - structural invariant
            raise IndexError_(
                f"child {child_id} not found in parent {parent.page_id}"
            )
        if parent.entry_count == 0 and len(ancestors) > 1:
            self._unlink_from_chain(parent)
            self._free_node(parent.page_id)
            self._remove_child(ancestors[:-1], parent.page_id)
        else:
            self._write(parent)

    def _maybe_collapse_root(self) -> None:
        while True:
            root = self._read(self.root_id)
            if root.is_leaf or root.entry_count != 1:
                return
            child_id = root.entries[0][1]
            self._free_node(root.page_id)
            self.root_id = child_id
            self.height -= 1

    # ------------------------------------------------------------------
    # bulk operations (used by the vertical bulk-delete plans)
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        entries: Sequence[Entry],
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> None:
        """Replace the tree's contents from ``(key, value)``-sorted input.

        Builds the tree bottom-up with contiguously allocated pages, so
        later leaf sweeps are billed as sequential I/O — the same effect
        a freshly created index has on a real disk.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill factor must be in [0.1, 1.0]")
        for i in range(1, len(entries)):
            if entries[i - 1] > entries[i]:
                raise IndexError_("bulk_load input must be sorted")
            if self.unique and entries[i - 1][0] == entries[i][0]:
                raise UniqueViolationError(
                    f"duplicate key {entries[i][0]} in unique index {self.name}"
                )
        self._drop_all_nodes()
        if not entries:
            root = self._allocate_node(level=0)
            self.root_id = root.page_id
            self.first_leaf_id = root.page_id
            self.height = 1
            self._entry_count = 0
            return
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        summaries = self._build_level(list(entries), level=0, per_node=per_leaf)
        self.first_leaf_id = summaries[0][1]
        self._entry_count = len(entries)
        self._build_upper_from(summaries, fill_factor)

    def _build_level(
        self, entries: List[Entry], level: int, per_node: int
    ) -> List[Entry]:
        """Write one level of nodes; returns ``(first_key, page_id)`` list."""
        nodes: List[Node] = []
        for start in range(0, len(entries), per_node):
            node = self._allocate_node(level)
            node.entries = entries[start : start + per_node]
            nodes.append(node)
        for i, node in enumerate(nodes):
            if i > 0:
                node.left_id = nodes[i - 1].page_id
            if i + 1 < len(nodes):
                node.right_id = nodes[i + 1].page_id
                node.high_key = nodes[i + 1].first_key()
            self._write(node)
        return [(node.first_key(), node.page_id) for node in nodes]

    def _build_upper_from(
        self, summaries: List[Entry], fill_factor: float = DEFAULT_FILL_FACTOR
    ) -> None:
        """Build inner levels above ``summaries`` and install the root."""
        per_inner = max(2, int(self.inner_capacity * fill_factor))
        level = 1
        current = summaries
        while len(current) > 1:
            current = self._build_level(current, level=level, per_node=per_inner)
            level += 1
        self.root_id = current[0][1]
        self.height = self._read(self.root_id).level + 1

    def _drop_all_nodes(self) -> None:
        """Free every node of the tree (used before a rebuild)."""
        for page_id in self._collect_pages():
            self._free_node(page_id)

    def _collect_pages(self) -> List[int]:
        """All node page ids, found by walking each level's chain."""
        pages: List[int] = []
        node = self._read(self.root_id)
        while True:
            # Walk the chain of this level starting from its leftmost node.
            cursor: Optional[Node] = node
            first_child: Optional[int] = None
            while cursor is not None:
                pages.append(cursor.page_id)
                if first_child is None and not cursor.is_leaf and cursor.entries:
                    first_child = cursor.entries[0][1]
                cursor = (
                    self._read(cursor.right_id)
                    if cursor.right_id != NO_NODE
                    else None
                )
            if node.is_leaf or first_child is None:
                return pages
            node = self._read(first_child)

    # ------------------------------------------------------------------
    # leaf-sweep support (bulk delete core)
    # ------------------------------------------------------------------
    def iter_leaf_ids(self) -> Iterator[int]:
        """Leaf page ids in key order (via the sibling chain)."""
        page_id = self.first_leaf_id
        while page_id != NO_NODE:
            right_id = _read_header(page_id, self._visit(page_id))[6]
            yield page_id
            page_id = right_id

    def read_leaf(self, page_id: int) -> Node:
        node = self._read(page_id)
        if not node.is_leaf:
            raise IndexError_(f"page {page_id} is not a leaf")
        return node

    def write_leaf_entries(self, page_id: int, entries: List[Entry]) -> None:
        """Replace a leaf's entries in place (bulk-delete edit)."""
        with self.pool.pin(page_id) as pinned:
            header = _read_header(page_id, pinned.data)
            _node_from_header(page_id, header, entries).pack_into(pinned.data)
            pinned.mark_dirty()
        self._entry_count -= header[2] - len(entries)

    def unlink_and_free_leaves(self, page_ids: Sequence[int]) -> None:
        """Free leaves emptied by a sweep (free-at-empty, deferred).

        Parents are *not* fixed here; callers must follow up with
        :meth:`rebuild_upper_levels`, mirroring the paper's
        layer-by-layer reorganization.
        """
        for page_id in page_ids:
            node = self._read(page_id)
            if node.entries:
                raise IndexError_(f"leaf {page_id} is not empty")
            self._unlink_from_chain(node)
            if page_id == self.first_leaf_id:
                self.first_leaf_id = node.right_id
            self._free_node(page_id)

    def rebuild_upper_levels(
        self, leaf_summaries: Optional[List[Entry]] = None
    ) -> None:
        """Rebuild all inner levels from the (current) leaf chain.

        ``leaf_summaries`` — ``(first_key, page_id)`` per live leaf —
        can be supplied by a sweep that already visited every leaf, so
        the chain does not have to be re-read.
        """
        old_inner = self._collect_inner_pages()
        if leaf_summaries is None:
            leaf_summaries = []
            for page_id in self.iter_leaf_ids():
                node = self._read(page_id)
                if node.entries:
                    leaf_summaries.append((node.first_key(), page_id))
        for pid in old_inner:
            self._free_node(pid)
        if not leaf_summaries:
            # Everything was deleted: reset to a single empty leaf.
            if self.first_leaf_id == NO_NODE:
                root = self._allocate_node(level=0)
                self.first_leaf_id = root.page_id
            self.root_id = self.first_leaf_id
            self.height = 1
            return
        self._build_upper_from(leaf_summaries)

    def _collect_inner_pages(self) -> List[int]:
        """Inner page ids, walked level by level without touching leaves.

        Safe to call while leaf-level children are dangling (a sweep may
        have freed empty leaves before the rebuild fixes the parents).
        """
        pages: List[int] = []
        node = self._read(self.root_id)
        while not node.is_leaf:
            cursor: Optional[Node] = node
            first_child: Optional[int] = None
            while cursor is not None:
                pages.append(cursor.page_id)
                if first_child is None and cursor.entries:
                    first_child = cursor.entries[0][1]
                cursor = (
                    self._read(cursor.right_id)
                    if cursor.right_id != NO_NODE
                    else None
                )
            if node.level <= 1 or first_child is None:
                break
            node = self._read(first_child)
        return pages

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self._entry_count

    def node_count(self) -> int:
        return len(self._collect_pages())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.iter_leaf_ids())

    def drop(self) -> None:
        """Free every page; the tree is unusable afterwards."""
        for page_id in self._collect_pages():
            self._free_node(page_id)
        self.root_id = NO_NODE
        self.first_leaf_id = NO_NODE
        self.height = 0
        self._entry_count = 0

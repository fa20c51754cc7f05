"""On-page layout of B-link tree nodes.

Every node — leaf or inner — is one disk page:

* header: level (0 = leaf), flags, entry count, high key (an advisory
  upper-bound hint maintained on splits; single-writer operation never
  depends on it), and left/right sibling page ids.  Per the B-link organization of Lehman & Yao [10]
  the nodes of *every* level are chained, which the paper needed both
  for sequential leaf sweeps and for rebuilding inner levels layer by
  layer.  We additionally keep a *left* link so free-at-empty unlinking
  is O(1); the paper's prototype gets the same effect from its parent
  stack.
* entries: ``(key, value)`` pairs of two 64-bit integers.  In a leaf the
  value is a packed RID (or an arbitrary payload integer); in an inner
  node it is a child page id and ``key`` is the smallest key reachable
  through that child.

Header layout (little-endian, 32 bytes)::

    u8  level        u8  flags (bit 0: high key present)
    u16 entry_count  u32 reserved
    i64 high_key     i64 left_sibling   i64 right_sibling
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Tuple, Union

from repro.errors import IndexError_

MIN_KEY = -(1 << 63)
MAX_KEY = (1 << 63) - 1

_HEADER = struct.Struct("<BBHIqqq")
HEADER_SIZE = _HEADER.size  # 32
ENTRY_SIZE = 16
_INT64 = struct.Struct("<q")
_ENTRY = struct.Struct("<qq")

_FLAG_HAS_HIGH = 1

#: page id value meaning "no sibling"
NO_NODE = 0


def node_capacity(page_size: int) -> int:
    """Maximum entries that fit into one node page."""
    return (page_size - HEADER_SIZE) // ENTRY_SIZE


# ----------------------------------------------------------------------
# in-place page access
#
# Searches and single-entry edits work on the page bytes directly
# instead of decoding the node.  An edit leaves exactly the bytes
# ``Node.pack_into`` would leave: the header in its packed form, the
# live entries, and the stale tail past the entry count untouched.
# ----------------------------------------------------------------------
#: ``(level, flags, entry_count, reserved, high_key, left_id, right_id)``
Header = Tuple[int, int, int, int, int, int, int]
PageBytes = Union[bytes, bytearray]


def _read_header(page_id: int, data: PageBytes) -> Header:
    """Decode a node page header, rejecting an impossible entry count."""
    header: Header = _HEADER.unpack_from(data, 0)
    if HEADER_SIZE + ENTRY_SIZE * header[2] > len(data):
        raise IndexError_(
            f"node page {page_id} claims {header[2]} entries but a "
            f"{len(data)}-byte page holds at most {node_capacity(len(data))}"
        )
    return header


class _Column:
    """One field of a page's entry array as a read-only sequence.

    ``bisect`` searches it like the decoded key (or value) list, probing
    only the entries it compares against.
    """

    __slots__ = ("_data", "_count", "_offset")

    def __init__(self, data: PageBytes, count: int, field_offset: int) -> None:
        self._data = data
        self._count = count
        self._offset = HEADER_SIZE + field_offset

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> int:
        value: int = _INT64.unpack_from(
            self._data, self._offset + ENTRY_SIZE * index
        )[0]
        return value


def _keys(data: PageBytes, count: int) -> _Column:
    return _Column(data, count, 0)


def _values(data: PageBytes, count: int) -> _Column:
    return _Column(data, count, 8)


def _value_at(data: PageBytes, index: int) -> int:
    value: int = _INT64.unpack_from(data, HEADER_SIZE + ENTRY_SIZE * index + 8)[0]
    return value


def _repack_header(data: bytearray, header: Header, count: int) -> None:
    level, flags, _, _, high, left, right = header
    has_high = flags & _FLAG_HAS_HIGH
    _HEADER.pack_into(
        data, 0, level, has_high, count, 0, high if has_high else 0, left, right
    )


def _remove_entry(data: bytearray, header: Header, index: int) -> None:
    """Delete entry ``index`` by shifting the entries after it left."""
    count = header[2]
    start = HEADER_SIZE + ENTRY_SIZE * index
    end = HEADER_SIZE + ENTRY_SIZE * count
    data[start : end - ENTRY_SIZE] = data[start + ENTRY_SIZE : end]
    _repack_header(data, header, count - 1)


def _insert_entry(
    data: bytearray, header: Header, index: int, key: int, value: int
) -> None:
    """Insert ``(key, value)`` at ``index`` by shifting later entries right."""
    count = header[2]
    if HEADER_SIZE + ENTRY_SIZE * (count + 1) > len(data):
        raise IndexError_(f"node with {count} entries is full")
    start = HEADER_SIZE + ENTRY_SIZE * index
    end = HEADER_SIZE + ENTRY_SIZE * count
    data[start + ENTRY_SIZE : end + ENTRY_SIZE] = data[start:end]
    _ENTRY.pack_into(data, start, key, value)
    _repack_header(data, header, count + 1)


def _node_from_header(
    page_id: int, header: Header, entries: List[Tuple[int, int]]
) -> "Node":
    level, flags, _, _, high, left, right = header
    return Node(
        page_id=page_id,
        level=level,
        entries=entries,
        left_id=left,
        right_id=right,
        high_key=high if flags & _FLAG_HAS_HIGH else None,
    )


@dataclass
class Node:
    """Decoded form of one B-link tree node."""

    page_id: int
    level: int
    entries: List[Tuple[int, int]] = field(default_factory=list)
    left_id: int = NO_NODE
    right_id: int = NO_NODE
    high_key: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def first_key(self) -> int:
        if not self.entries:
            raise IndexError_(f"node {self.page_id} is empty")
        return self.entries[0][0]

    def last_key(self) -> int:
        if not self.entries:
            raise IndexError_(f"node {self.page_id} is empty")
        return self.entries[-1][0]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def pack_into(self, data: bytearray) -> None:
        page_size = len(data)
        if HEADER_SIZE + ENTRY_SIZE * len(self.entries) > page_size:
            raise IndexError_(
                f"node {self.page_id} with {len(self.entries)} entries "
                f"does not fit a {page_size}-byte page"
            )
        flags = _FLAG_HAS_HIGH if self.high_key is not None else 0
        _HEADER.pack_into(
            data,
            0,
            self.level,
            flags,
            len(self.entries),
            0,
            self.high_key if self.high_key is not None else 0,
            self.left_id,
            self.right_id,
        )
        if self.entries:
            struct.pack_into(
                f"<{2 * len(self.entries)}q",
                data,
                HEADER_SIZE,
                *chain.from_iterable(self.entries),
            )

    @classmethod
    def unpack_from(cls, page_id: int, data: PageBytes) -> "Node":
        header = _read_header(page_id, data)
        flat = struct.unpack_from(f"<{2 * header[2]}q", data, HEADER_SIZE)
        return _node_from_header(
            page_id, header, list(zip(flat[0::2], flat[1::2]))
        )

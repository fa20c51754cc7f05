"""Single-decode slotted-page operations are bit-identical to per-slot decoding.

``SlottedPage`` decodes a page's header at most once and its slot
directory at most once per call, and an insert scans for a dead slot
only when the header's live count is below its slot count.  The oracle
below is the implementation it replaced: it re-reads the header for
every slot and scans the whole directory on every insert.  Hypothesis
drives the same random operation sequence through a page using each
one and after every operation requires equal results (or the same
exception type and message), byte-identical page buffers, and a live
count equal to the number of slots with a non-zero length.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError, StorageError
from repro.storage.page_formats import HEADER_SIZE, SLOT_SIZE, SlottedPage

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")


# ----------------------------------------------------------------------
# oracle: the per-slot-decode slotted page
# ----------------------------------------------------------------------
class OracleSlottedPage:
    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.page_size = len(data)

    @classmethod
    def format_empty(cls, data: bytearray) -> "OracleSlottedPage":
        page = cls(data)
        page._write_header(0, HEADER_SIZE, 0)
        return page

    def _read_header(self) -> Tuple[int, int, int]:
        slot_count, free_start, live, _ = _HEADER.unpack_from(self.data, 0)
        return slot_count, free_start, live

    def _write_header(self, slot_count: int, free_start: int, live: int) -> None:
        _HEADER.pack_into(self.data, 0, slot_count, free_start, live, 0)

    @property
    def slot_count(self) -> int:
        return self._read_header()[0]

    @property
    def live_records(self) -> int:
        return self._read_header()[2]

    def _slot_pos(self, slot: int) -> int:
        return self.page_size - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        slot_count = self.slot_count
        if not 0 <= slot < slot_count:
            raise StorageError(f"slot {slot} out of range (page has {slot_count})")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    def free_space(self) -> int:
        slot_count, free_start, _ = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        return max(0, directory_start - free_start - SLOT_SIZE)

    def potential_free_space(self) -> int:
        slot_count, _, _ = self._read_header()
        live_bytes = sum(len(payload) for _, payload in self.records())
        has_dead_slot = any(
            self._read_slot(slot)[1] == 0 for slot in range(slot_count)
        )
        directory_start = self.page_size - SLOT_SIZE * slot_count
        free = directory_start - HEADER_SIZE - live_bytes
        if not has_dead_slot:
            free -= SLOT_SIZE
        return max(0, free)

    def insert(self, record: bytes) -> int:
        if not record:
            raise StorageError("cannot insert an empty record")
        slot_count, free_start, live = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        reuse: Optional[int] = None
        for slot in range(slot_count):
            _, length = self._read_slot(slot)
            if length == 0:
                reuse = slot
                break
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if directory_start - free_start < needed:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({directory_start - free_start} bytes free)"
            )
        offset = free_start
        self.data[offset : offset + len(record)] = record
        if reuse is not None:
            slot = reuse
        else:
            slot = slot_count
            slot_count += 1
        self._write_header(slot_count, offset + len(record), live + 1)
        self._write_slot(slot, offset, len(record))
        return slot

    def read(self, slot: int) -> bytes:
        offset, length = self._read_slot(slot)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        return bytes(self.data[offset : offset + length])

    def is_live(self, slot: int) -> bool:
        if not 0 <= slot < self.slot_count:
            return False
        return self._read_slot(slot)[1] != 0

    def replace(self, slot: int, record: bytes) -> bytes:
        offset, length = self._read_slot(slot)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        if len(record) != length:
            raise StorageError(
                f"in-place replace needs {length} bytes, got {len(record)}"
            )
        old = bytes(self.data[offset : offset + length])
        self.data[offset : offset + length] = record
        return old

    def delete(self, slot: int) -> bytes:
        record = self.read(slot)
        slot_count, free_start, live = self._read_header()
        self._write_slot(slot, 0, 0)
        self._write_header(slot_count, free_start, live - 1)
        return record

    def records(self) -> Iterator[Tuple[int, bytes]]:
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if length:
                yield slot, bytes(self.data[offset : offset + length])

    def compact(self) -> None:
        entries: List[Tuple[int, bytes]] = list(self.records())
        slot_count = self.slot_count
        cursor = HEADER_SIZE
        directory_start = self.page_size - SLOT_SIZE * slot_count
        self.data[HEADER_SIZE:directory_start] = bytes(
            directory_start - HEADER_SIZE
        )
        live = 0
        for slot in range(slot_count):
            self._write_slot(slot, 0, 0)
        for slot, payload in entries:
            self.data[cursor : cursor + len(payload)] = payload
            self._write_slot(slot, cursor, len(payload))
            cursor += len(payload)
            live += 1
        self._write_header(slot_count, cursor, live)


# ----------------------------------------------------------------------
# driving both pages
# ----------------------------------------------------------------------
def slot_lengths(data: bytes) -> List[int]:
    """Every slot's length, decoded straight from the page bytes."""
    slot_count = _HEADER.unpack_from(data, 0)[0]
    return [
        _SLOT.unpack_from(data, len(data) - SLOT_SIZE * (slot + 1))[1]
        for slot in range(slot_count)
    ]


def resolve(op: Tuple, data: bytes) -> Tuple[str, Tuple]:
    """Turn a drawn op into a method call on the current page.

    ``*_live`` ops pick the ``n``-th live slot (modulo their number), so
    they mostly succeed; the others pick any slot from -1 to one past
    the directory, so they also reach the out-of-range and dead-slot
    errors.
    """
    name, args = op[0], op[1:]
    lengths = slot_lengths(data)
    live = [slot for slot, length in enumerate(lengths) if length]
    if name in ("delete_live", "read_live", "replace_live"):
        name = name[: -len("_live")]
        slot = live[args[0] % len(live)] if live else 0
    elif name in ("read", "is_live", "delete", "replace"):
        slot = args[0] % (len(lengths) + 2) - 1
    else:
        return name, args
    if name == "replace":
        length = lengths[slot] if 0 <= slot < len(lengths) else 1
        length = max(1, length + args[1])  # args[1] != 0: a size mismatch
        return name, (slot, bytes([args[2]]) * length)
    return name, (slot,)


def run_op(page, name: str, args: Tuple) -> Tuple:
    try:
        result = getattr(page, name)(*args)
    except (StorageError, PageFullError) as exc:
        return "error", type(exc), str(exc)
    if name == "records":
        result = list(result)
    return "ok", result


def twin_pages(page_size: int) -> Tuple[SlottedPage, OracleSlottedPage]:
    return (
        SlottedPage.format_empty(bytearray(page_size)),
        OracleSlottedPage.format_empty(bytearray(page_size)),
    )


def check_step(
    page: SlottedPage, oracle: OracleSlottedPage, name: str, *args
) -> Tuple:
    """Run one call on both pages, check them, return the page's result."""
    got = run_op(page, name, args)
    want = run_op(oracle, name, args)
    assert got == want, (name, args)
    assert page.data == oracle.data, (name, args)
    lengths = slot_lengths(bytes(page.data))
    assert page.live_records == sum(1 for length in lengths if length), (
        name, args,
    )
    return got


payloads = st.binary(min_size=1, max_size=40)
small_payloads = st.binary(min_size=1, max_size=4)
selector = st.integers(min_value=0, max_value=10_000)
ops = st.one_of(
    st.tuples(st.just("insert"), payloads),
    st.tuples(st.just("insert"), small_payloads),
    st.tuples(st.just("insert"), st.just(b"")),
    st.tuples(st.just("delete_live"), selector),
    st.tuples(st.just("delete_live"), selector),
    st.tuples(st.just("delete"), selector),
    st.tuples(st.just("compact")),
    st.tuples(st.just("replace_live"), selector, st.just(0), st.integers(0, 255)),
    st.tuples(
        st.just("replace"), selector, st.sampled_from([-1, 0, 1]),
        st.integers(0, 255),
    ),
    st.tuples(st.just("read_live"), selector),
    st.tuples(st.just("read"), selector),
    st.tuples(st.just("is_live"), selector),
    st.tuples(st.just("records")),
    st.tuples(st.just("free_space")),
    st.tuples(st.just("potential_free_space")),
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([512, 4096]),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=40),
    st.lists(ops, min_size=20, max_size=200),
)
def test_single_decode_ops_are_bit_identical_to_oracle(
    page_size, fill, width, sequence
):
    """``fill`` inserts of 1 to ``width`` bytes come first, so a 4096-byte
    page holds 100+ slots before the drawn ops delete among them and
    reuse the dead ones (a 512-byte page fills up instead)."""
    page, oracle = twin_pages(page_size)
    assert page.data == oracle.data
    for i in range(fill):
        record = bytes([i % 251]) * (1 + i * 7 % width)
        if check_step(page, oracle, "insert", record)[0] == "error":
            break  # the page is full
    for op in sequence:
        name, args = resolve(op, bytes(page.data))
        check_step(page, oracle, name, *args)


def test_oracle_twin_reuses_dead_slots_among_many():
    """A page of 100+ slots with deletes spread through it: every
    insert after a delete reuses the first dead slot, exactly as the
    oracle does, and compaction keeps the two pages equal."""
    page, oracle = twin_pages(4096)
    for i in range(150):
        assert check_step(page, oracle, "insert", bytes([i]) * (1 + i % 5)) == (
            "ok", i,
        )
    for slot in (140, 7, 99, 3):
        check_step(page, oracle, "delete", slot)
    assert (page.slot_count, page.live_records) == (150, 146)
    for want in (3, 7, 99, 140, 150):
        assert check_step(page, oracle, "insert", b"new") == ("ok", want)
    check_step(page, oracle, "delete", 50)
    check_step(page, oracle, "compact")
    assert check_step(page, oracle, "insert", b"x") == ("ok", 50)

"""Slotted-page layout for heap files.

Classic slotted page: a header at the front, record payloads growing
from the header towards the end, and a slot directory growing backwards
from the end of the page.  Deleting a record leaves a tombstoned slot so
RIDs of other records stay stable — exactly what the paper's RID-based
bulk deletes rely on.

Layout (little-endian)::

    offset 0   u16  slot_count        (number of directory entries)
    offset 2   u16  free_space_start  (first byte after last payload)
    offset 4   u16  live_records      (non-tombstoned slots)
    offset 6   u16  reserved
    payloads ...
    ... free space ...
    slot directory entries of 4 bytes each, entry i at
    page_size - 4 * (i + 1):  u16 offset, u16 length (length 0 = dead)

``live_records`` always equals the number of slots with a non-zero
length: :meth:`SlottedPage.insert` rejects empty records,
:meth:`SlottedPage.delete` decrements it, and
:meth:`SlottedPage.compact` rewrites it from the directory.  So a page
has a dead slot exactly when ``live_records < slot_count``, which lets
an insert skip the directory scan on pages that never saw a delete.

Every method decodes the header at most once and the slot directory at
most once (:meth:`SlottedPage.directory`), whatever the page's slot
count.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.errors import PageFullError, StorageError

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")
_SLOT_COUNT = struct.Struct("<H")

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


def page_checksum(data: bytes) -> int:
    """CRC-32 of a full page image.

    Stored *out of band* by :class:`~repro.storage.disk.SimulatedDisk`
    (the way a disk keeps a per-sector ECC/CRC next to the data, not
    inside it), so the page layout — and every cost and golden file
    derived from it — is unchanged.  The disk stamps the checksum of
    the *intended* image on every write and verifies it on every read;
    a torn commit, flipped bit, or stale half therefore fails
    verification on the next read instead of silently reaching an
    operator.
    """
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


class SlottedPage:
    """A view over a ``bytearray`` implementing the slotted layout.

    The class never owns the buffer; it mutates the ``bytearray`` handed
    to it (normally a pinned buffer-pool frame) in place.
    """

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.page_size = len(data)

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    @classmethod
    def format_empty(cls, data: bytearray) -> "SlottedPage":
        """Initialise ``data`` as an empty slotted page."""
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
        return _SLOT_COUNT.unpack_from(self.data, 0)[0]

    @property
    def live_records(self) -> int:
        return self._read_header()[2]

    # ------------------------------------------------------------------
    # slot directory
    # ------------------------------------------------------------------
    def _slot_pos(self, slot: int) -> int:
        return self.page_size - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int, slot_count: int = -1) -> Tuple[int, int]:
        """``(offset, length)`` of ``slot``; pass ``slot_count`` when the
        caller has already decoded the header."""
        if slot_count < 0:
            slot_count = _SLOT_COUNT.unpack_from(self.data, 0)[0]
        if not 0 <= slot < slot_count:
            raise StorageError(f"slot {slot} out of range (page has {slot_count})")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    def _slots(self, slot_count: int) -> List[Tuple[int, int]]:
        # Slicing copies the directory bytes, so no buffer export of
        # ``data`` outlives the call.
        slots = list(
            _SLOT.iter_unpack(self.data[self.page_size - SLOT_SIZE * slot_count :])
        )
        slots.reverse()
        return slots

    def directory(self) -> List[Tuple[int, int]]:
        """The whole slot directory, decoded in one pass.

        Entry ``i`` is slot ``i``'s ``(offset, length)``; a length of 0
        marks a dead slot.  Readers that walk a page (a run probe, a
        scan) read the payloads in place from these offsets.
        """
        return self._slots(self.slot_count)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def free_space(self) -> int:
        """Bytes available for one more record (including its slot)."""
        slot_count, free_start, _ = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        return max(0, directory_start - free_start - SLOT_SIZE)

    def can_fit(self, record_size: int) -> bool:
        return self.free_space() >= record_size

    def potential_free_space(self) -> int:
        """Free bytes available after a :meth:`compact` pass.

        Deleted records leave their payload bytes stranded until the
        page is compacted; inserts consult this to decide whether
        compaction would make room (classic free-space management, cf.
        [14] in the paper).
        """
        slot_count, _, live = self._read_header()
        live_bytes = sum(length for _, length in self._slots(slot_count))
        directory_start = self.page_size - SLOT_SIZE * slot_count
        free = directory_start - HEADER_SIZE - live_bytes
        if live == slot_count:
            free -= SLOT_SIZE  # no dead slot: a new insert needs a new slot
        return max(0, free)

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number.

        Reuses the first tombstoned slot when one exists (keeping its
        number), otherwise appends a new directory entry.
        """
        if not record:
            raise StorageError("cannot insert an empty record")
        slot_count, free_start, live = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        # A reused slot costs no directory growth.  Only a page with
        # fewer live records than slots has one, so a page that never
        # saw a delete is not scanned.
        reuse: Optional[int] = None
        if live < slot_count:
            for slot, (_, length) in enumerate(self._slots(slot_count)):
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
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))[1] != 0

    def replace(self, slot: int, record: bytes) -> bytes:
        """Overwrite a record in place (same length only).

        Fixed-layout records make same-size in-place updates trivial;
        the bulk UPDATE executor uses this so RIDs never change and
        indexes on unmodified columns stay untouched.
        """
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
        """Tombstone ``slot`` and return the old payload."""
        slot_count, free_start, live = self._read_header()
        offset, length = self._read_slot(slot, slot_count)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        record = bytes(self.data[offset : offset + length])
        self._write_slot(slot, 0, 0)
        self._write_header(slot_count, free_start, live - 1)
        return record

    def records(self) -> List[Tuple[int, bytes]]:
        """``(slot, payload)`` for every live record, in slot order."""
        data = self.data
        return [
            (slot, bytes(data[offset : offset + length]))
            for slot, (offset, length) in enumerate(self.directory())
            if length
        ]

    def compact(self) -> None:
        """Reclaim payload space of deleted records.

        Slot numbers (and therefore RIDs) are preserved; only payload
        offsets move.  Used by the bulk-delete reorganization pass.
        """
        slot_count = self.slot_count
        directory_start = self.page_size - SLOT_SIZE * slot_count
        payloads = bytearray()
        moved: List[Tuple[int, int]] = []
        for offset, length in self._slots(slot_count):
            if length:
                moved.append((HEADER_SIZE + len(payloads), length))
                payloads += self.data[offset : offset + length]
            else:
                moved.append((0, 0))
        live = sum(1 for _, length in moved if length)
        free_start = HEADER_SIZE + len(payloads)
        # Zero the rest of the payload area so stale bytes never linger.
        payloads += bytes(directory_start - free_start)
        self.data[HEADER_SIZE:directory_start] = payloads
        moved.reverse()
        self.data[directory_start : self.page_size] = b"".join(
            _SLOT.pack(offset, length) for offset, length in moved
        )
        self._write_header(slot_count, free_start, live)

    def is_empty(self) -> bool:
        return self.live_records == 0

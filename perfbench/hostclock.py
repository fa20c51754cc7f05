"""Host time of the benchmark's timed phases, in reference-host seconds.

The benchmark runs on shared virtual machines whose speed moves by up
to 40% between processes and within one: the same repetition took
0.43 s and 0.68 s of CPU time a few seconds apart.  Such a shift
changes a fixed reference computation by the same factor, so every
timed phase runs between two measurements of one, and its CPU seconds
are scaled by ``REFERENCE_S`` over their mean.  A phase then reads the
same on a fast or a slow moment of the host, and changes only when the
program does more or less work.
"""

from __future__ import annotations

import random
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: CPU seconds :func:`reference_seconds` takes on the reference host
#: (the 2-core virtual machine the baseline numbers come from, at its
#: faster speed).
REFERENCE_S = 0.036


def reference_seconds() -> float:
    """CPU seconds of a fixed computation that mixes what the engine
    spends its time on: struct packing into a page buffer, dict inserts
    and probes, tuple and bytes allocation, a sort."""
    rng = random.Random(20011)
    keys = [rng.randrange(1 << 40) for _ in range(12_000)]
    record = struct.Struct("<qqq")
    page = bytearray(4096)
    index: Dict[int, Tuple[int, ...]] = {}
    rows: List[Tuple[int, bytes]] = []
    start = time.process_time()  # lint: allow(wall-clock)
    for i, key in enumerate(keys):
        slot = (i % 170) * 24
        record.pack_into(page, slot, key, i, -i)
        index[key] = record.unpack_from(page, slot)
        rows.append((key, bytes(page[slot:slot + 24])))
    rows.sort()
    found = sum(1 for key, blob in rows if index[key][0] == key and blob)
    elapsed = time.process_time() - start  # lint: allow(wall-clock)
    if found != len(keys):
        raise RuntimeError("the reference computation lost keys")
    return elapsed


class PhaseTimer:
    """Runs named phases and keeps their reference-host seconds.

    Consecutive phases share the reference measurement between them.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._last: Optional[float] = None

    def __call__(self, name: str, phase: Callable[[], Any]) -> Any:
        before = self._last if self._last is not None else reference_seconds()
        start = time.process_time()  # lint: allow(wall-clock)
        result = phase()
        cpu_s = time.process_time() - start  # lint: allow(wall-clock)
        self._last = reference_seconds()
        self.seconds[name] = cpu_s * 2 * REFERENCE_S / (before + self._last)
        return result

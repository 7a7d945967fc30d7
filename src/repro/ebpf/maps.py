"""BPF maps: the kernel/userspace data plane.

SnapBPF uses maps twice: the capture program records working-set page
offsets into a map the VMM later drains, and on restore the VMM loads the
grouped offset ranges into an array map the prefetch program walks.

Keys and values are fixed-size byte strings, as in the kernel; integer
convenience accessors (little-endian u32/u64) are provided for userspace
callers.  In-program access goes through the helper functions and is
bounds-checked by the verifier against ``value_size``.
"""

from __future__ import annotations

import struct
from collections import deque


class MapError(ValueError):
    """Bad key/value size, capacity exhausted, or unknown key."""


class BpfMap:
    """Common behaviour: sized keys/values, capacity, byte-level access."""

    KIND = "map"

    def __init__(self, name: str, key_size: int, value_size: int,
                 max_entries: int):
        if key_size <= 0 or value_size <= 0 or max_entries <= 0:
            raise MapError("map dimensions must be positive")
        self.name = name
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries

    # -- subclass interface ---------------------------------------------------
    def lookup(self, key: bytes) -> bytearray | None:
        raise NotImplementedError

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def keys(self) -> list[bytes]:
        raise NotImplementedError

    # -- shared checks ---------------------------------------------------------
    def _check_key(self, key: bytes) -> bytes:
        key = bytes(key)
        if len(key) != self.key_size:
            raise MapError(
                f"map {self.name!r}: key size {len(key)} != {self.key_size}")
        return key

    def _check_value(self, value: bytes) -> bytearray:
        value = bytearray(value)
        if len(value) != self.value_size:
            raise MapError(
                f"map {self.name!r}: value size {len(value)} != {self.value_size}")
        return value

    # -- userspace integer conveniences (bpf(2) syscall wrappers) -------------
    def update_u64s(self, key_u64: int, *values: int) -> None:
        key = struct.pack("<Q", key_u64)[: self.key_size]
        if len(key) < self.key_size:
            key = key.ljust(self.key_size, b"\0")
        packed = struct.pack(f"<{len(values)}Q", *values)
        self.update(key, packed.ljust(self.value_size, b"\0"))

    def lookup_u64s(self, key_u64: int) -> tuple[int, ...] | None:
        key = struct.pack("<Q", key_u64)[: self.key_size]
        if len(key) < self.key_size:
            key = key.ljust(self.key_size, b"\0")
        value = self.lookup(key)
        if value is None:
            return None
        count = self.value_size // 8
        return struct.unpack(f"<{count}Q", bytes(value[: count * 8]))

    def items_u64(self) -> list[tuple[int, tuple[int, ...]]]:
        """All entries decoded as (key-as-u64, value-as-u64-tuple)."""
        out = []
        for key in self.keys():
            key_u64 = int.from_bytes(key, "little")
            value = self.lookup(key)
            assert value is not None
            count = self.value_size // 8
            out.append(
                (key_u64, struct.unpack(f"<{count}Q", bytes(value[: count * 8]))))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} {self.name!r} key={self.key_size} "
                f"value={self.value_size} max={self.max_entries} len={len(self)}>")


class HashMap(BpfMap):
    """BPF_MAP_TYPE_HASH: dynamic membership up to max_entries."""

    KIND = "hash"

    def __init__(self, name: str, key_size: int = 8, value_size: int = 8,
                 max_entries: int = 1 << 20):
        super().__init__(name, key_size, value_size, max_entries)
        self._table: dict[bytes, bytearray] = {}

    def lookup(self, key: bytes) -> bytearray | None:
        return self._table.get(self._check_key(key))

    def update(self, key: bytes, value: bytes) -> None:
        key = self._check_key(key)
        if key not in self._table and len(self._table) >= self.max_entries:
            raise MapError(f"map {self.name!r} full ({self.max_entries} entries)")
        self._table[key] = self._check_value(value)

    def delete(self, key: bytes) -> None:
        key = self._check_key(key)
        if key not in self._table:
            raise MapError(f"map {self.name!r}: no such key")
        del self._table[key]

    def clear(self) -> None:
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    def keys(self) -> list[bytes]:
        return list(self._table)


class ArrayMap(BpfMap):
    """BPF_MAP_TYPE_ARRAY: u32-indexed, preallocated, never deletable."""

    KIND = "array"

    def __init__(self, name: str, value_size: int = 8, max_entries: int = 1024):
        super().__init__(name, key_size=4, value_size=value_size,
                         max_entries=max_entries)
        self._slots = [bytearray(value_size) for _ in range(max_entries)]
        #: Per-slot memo of :meth:`slot_ref`.
        self._refs: list[object | None] = [None] * max_entries

    def _index(self, key: bytes) -> int | None:
        key = self._check_key(key)
        index = struct.unpack("<I", key)[0]
        return index if index < self.max_entries else None

    def lookup(self, key: bytes) -> bytearray | None:
        index = self._index(key)
        return None if index is None else self._slots[index]

    def slot_ref(self, key: bytes, wrap):
        """``wrap(self, slot)`` for the slot under ``key``, built on first
        use and memoised; ``None`` when ``key`` is out of bounds.

        Slots are permanent bytearrays that :meth:`update` overwrites in
        place, so a memoised wrapper never goes stale (the BPF runtime
        keeps its map-value pointers here)."""
        index = self._index(key)
        if index is None:
            return None
        ref = self._refs[index]
        if ref is None:
            ref = self._refs[index] = wrap(self, self._slots[index])
        return ref

    def update(self, key: bytes, value: bytes) -> None:
        index = self._index(key)
        if index is None:
            raise MapError(f"array map {self.name!r}: index out of bounds")
        self._slots[index][:] = self._check_value(value)

    def delete(self, key: bytes) -> None:
        raise MapError("array map entries cannot be deleted")

    def __len__(self) -> int:
        return self.max_entries

    def keys(self) -> list[bytes]:
        return [struct.pack("<I", i) for i in range(self.max_entries)]


class RingRecord:
    """One reserved ringbuf record: a writable slot plus its commit state.

    Mirrors the kernel's per-record header: a record is *pending* between
    ``bpf_ringbuf_reserve`` and ``bpf_ringbuf_submit``/``discard``, and
    the consumer must stop at the first pending record because commits
    can land out of reservation order.
    """

    __slots__ = ("data", "state")

    PENDING = "pending"
    COMMITTED = "committed"
    DISCARDED = "discarded"

    def __init__(self, size: int):
        self.data = bytearray(size)
        self.state = RingRecord.PENDING


class RingBufMap(BpfMap):
    """BPF_MAP_TYPE_RINGBUF: an ordered kernel-to-userspace event stream.

    The kernel's ringbuf is a byte ring; records are reserved (allocating
    space while marking the record busy), written in place, then committed
    or discarded.  The userspace consumer observes records strictly in
    reservation order and stops at the first uncommitted one.  This model
    keeps those semantics but fixes the record size to ``value_size`` so
    the verifier can statically bound the ``bpf_ringbuf_output`` payload
    (no scalar-range tracking is needed), and counts capacity in records
    rather than bytes.

    Unlike hash/array maps there is no random access: lookup/update/
    delete raise :class:`MapError` (the kernel returns ``-ENOTSUPP``),
    and the verifier rejects such helper calls outright.
    """

    KIND = "ringbuf"

    def __init__(self, name: str, value_size: int = 16,
                 max_entries: int = 4096):
        if value_size <= 0 or max_entries <= 0:
            raise MapError("map dimensions must be positive")
        self.name = name
        self.key_size = 0  # ringbufs are keyless, as in the kernel
        self.value_size = value_size
        self.max_entries = max_entries
        self._records: deque[RingRecord] = deque()
        #: Reservations refused because the ring was full.  Userspace
        #: reads this to learn it lost events (the paper's capture path
        #: degrades, it does not block the kernel).
        self.dropped = 0

    # -- producer side (program / kernel) -------------------------------------
    def reserve(self, size: int | None = None) -> RingRecord | None:
        """Reserve one record; ``None`` when the ring is full (drop)."""
        if size is not None and size != self.value_size:
            raise MapError(
                f"ringbuf {self.name!r}: record size {size} != "
                f"{self.value_size}")
        if len(self._records) >= self.max_entries:
            self.dropped += 1
            return None
        record = RingRecord(self.value_size)
        self._records.append(record)
        return record

    def commit(self, record: RingRecord) -> None:
        """Make a reserved record visible to the consumer."""
        if record.state != RingRecord.PENDING:
            raise MapError(
                f"ringbuf {self.name!r}: commit of {record.state} record")
        record.state = RingRecord.COMMITTED

    def discard(self, record: RingRecord) -> None:
        """Abandon a reserved record; its slot frees once consumed past."""
        if record.state != RingRecord.PENDING:
            raise MapError(
                f"ringbuf {self.name!r}: discard of {record.state} record")
        record.state = RingRecord.DISCARDED

    def output(self, data: bytes) -> int:
        """reserve + copy + commit, the ``bpf_ringbuf_output`` fast path.

        Returns 0 on success, -1 when the ring is full (the helper's
        ``-ENOSPC`` contract, flattened like the map-update helper's).
        """
        payload = self._check_value(data)
        record = self.reserve()
        if record is None:
            return -1
        record.data[:] = payload
        self.commit(record)
        return 0

    # -- consumer side (userspace) ---------------------------------------------
    def consume(self, max_records: int | None = None) -> list[bytes]:
        """Drain committed records in reservation order.

        Stops at the first still-pending record (its space is not yet
        released) and silently skips discarded ones, exactly like
        ``ring_buffer__consume``.
        """
        out: list[bytes] = []
        while self._records and (max_records is None
                                 or len(out) < max_records):
            head = self._records[0]
            if head.state == RingRecord.PENDING:
                break
            self._records.popleft()
            if head.state == RingRecord.COMMITTED:
                out.append(bytes(head.data))
        return out

    def consume_u64s(self, max_records: int | None = None
                     ) -> list[tuple[int, ...]]:
        """:meth:`consume`, with each record decoded as little-endian u64s."""
        count = self.value_size // 8
        return [struct.unpack(f"<{count}Q", record[: count * 8])
                for record in self.consume(max_records)]

    # -- no random access -------------------------------------------------------
    def lookup(self, key: bytes) -> bytearray | None:
        raise MapError(f"ringbuf {self.name!r} has no lookup")

    def update(self, key: bytes, value: bytes) -> None:
        raise MapError(f"ringbuf {self.name!r} has no update")

    def delete(self, key: bytes) -> None:
        raise MapError(f"ringbuf {self.name!r} has no delete")

    def keys(self) -> list[bytes]:
        raise MapError(f"ringbuf {self.name!r} has no keys")

    def __len__(self) -> int:
        """Records currently occupying the ring (committed or pending)."""
        return len(self._records)

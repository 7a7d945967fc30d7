"""Frame allocator accounting — the basis of the Figure 3c numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm.frames import ANON, FILE, FrameAllocator, OutOfMemory
from repro.units import PAGE_SIZE


def test_alloc_kinds_counted_separately():
    frames = FrameAllocator(100)
    frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm0")
    frames.alloc(FILE, ino=1, index=0)
    assert frames.counters.anon == 2
    assert frames.counters.file == 1
    assert frames.in_use == 3
    assert frames.free_frames == 97


def test_owner_attribution():
    frames = FrameAllocator(100)
    a = frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm0")
    frames.alloc(ANON, owner="vm1")
    assert frames.owner_frames("vm0") == 2
    assert frames.owner_frames("vm1") == 1
    frames.free(a)
    assert frames.owner_frames("vm0") == 1
    assert frames.owner_frames("nobody") == 0


def test_peak_tracking():
    frames = FrameAllocator(100)
    held = [frames.alloc(ANON) for _ in range(10)]
    for frame in held[:8]:
        frames.free(frame)
    assert frames.peak_frames == 10
    assert frames.in_use == 2
    frames.reset_peak()
    assert frames.peak_frames == 2
    assert frames.peak_bytes == 2 * PAGE_SIZE


def test_oom():
    frames = FrameAllocator(2)
    frames.alloc(ANON)
    frames.alloc(ANON)
    with pytest.raises(OutOfMemory):
        frames.alloc(ANON)


def test_free_mapped_frame_rejected():
    frames = FrameAllocator(10)
    frame = frames.alloc(FILE, ino=1, index=0)
    frame.mapcount = 1
    with pytest.raises(ValueError):
        frames.free(frame)


def test_unique_pfns():
    frames = FrameAllocator(10)
    pfns = {frames.alloc(ANON).pfn for _ in range(5)}
    assert len(pfns) == 5


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        FrameAllocator(10).alloc("weird")


def test_positive_pool_required():
    with pytest.raises(ValueError):
        FrameAllocator(0)


def test_usage_snapshot_is_a_copy():
    frames = FrameAllocator(10)
    frames.alloc(ANON)
    usage = frames.usage()
    frames.alloc(ANON)
    assert usage.anon == 1
    assert usage.total_bytes == PAGE_SIZE


_OWNERS = (None, "vm0", "vm1")


@settings(max_examples=200, deadline=None)
@given(total=st.integers(1, 6),
       ops=st.lists(st.tuples(st.booleans(), st.sampled_from((ANON, FILE)),
                              st.sampled_from(_OWNERS), st.integers(0, 63)),
                    max_size=40))
def test_alloc_free_interleaving_keeps_accounting(total, ops):
    """Any interleaving of alloc and free: counters, peak, exhaustion
    and per-owner attribution all match a plain list of held frames."""
    frames = FrameAllocator(total)
    held = []
    peak = 0
    for allocate, kind, owner, pick in ops:
        if allocate or not held:
            if len(held) == total:
                with pytest.raises(OutOfMemory):
                    frames.alloc(kind, owner=owner)
            else:
                held.append(frames.alloc(kind, owner=owner))
        else:
            frames.free(held.pop(pick % len(held)))
        peak = max(peak, len(held))
        counters = frames.counters
        assert frames.in_use == counters.anon + counters.file == len(held)
        assert counters.anon == sum(f.kind == ANON for f in held)
        assert frames.free_frames == total - len(held)
        assert frames.peak_frames == peak
        for name in ("vm0", "vm1"):
            assert frames.owner_frames(name) == sum(
                f.kind == ANON and f.owner == name for f in held)


def test_reclaim_hooks_receive_free_frames():
    """The allocator hands the reclaimer the free count before the
    allocation (and uses what it returns) and the count after it."""

    class Recorder:
        def __init__(self):
            self.calls = []

        def throttle_alloc(self, free):
            self.calls.append(("throttle", free))
            return free

        def note_allocation(self, free):
            self.calls.append(("note", free))

    frames = FrameAllocator(3)
    frames.reclaimer = recorder = Recorder()
    frames.alloc(ANON)
    frames.alloc(FILE, ino=1, index=0)
    assert recorder.calls == [("throttle", 3), ("note", 2),
                              ("throttle", 2), ("note", 1)]
    recorder.throttle_alloc = lambda free: 0   # reclaim found nothing
    with pytest.raises(OutOfMemory):
        frames.alloc(ANON)
    assert frames.in_use == 2

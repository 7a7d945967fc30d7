"""Compiled-tier equivalence fuzzing.

The compile tier (:mod:`repro.ebpf.compile`) promises *observational
equivalence* with the interpreter for every verifier-accepted program:
same :class:`ExecutionResult` (r0 and insn_count), same runtime faults
with the same messages, same final map states, same ring-buffer record
streams.  This harness generates random programs with a seeded RNG
until 200 of them pass the verifier, then runs each accepted program
through both tiers — fresh maps per tier — over a shared context
sequence and compares everything observable.

Two real programs (capture and prefetch-guard) ride along as
deterministic cases covering the ring-buffer write path and the
array-map state machine the random space reaches only occasionally,
both alone and attached together to a kprobe whose kfunc re-fires the
hook (the shared per-fire ctx pointer, nested fires, self-detach).
"""

import random
import struct

from repro.core.progs import (
    build_capture_program,
    build_prefetch_program,
    make_events_ringbuf,
    make_groups_map,
    make_state_map,
)
from repro.ebpf.asm import (
    Label,
    Program,
    alui,
    assemble,
    call,
    exit_,
    jcond,
    ldmap,
    load,
    mov,
    movi,
    store,
    storei,
)
from repro.ebpf.helpers import BPF_FUNC_MAP_LOOKUP_ELEM
from repro.ebpf.insn import (
    ALU_OPS,
    R0,
    R1,
    R2,
    R6,
    R10,
    Alu,
    Call,
    Exit,
    JMP_OPS,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.interp import Interpreter, RuntimeFault, pack_u64
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.kprobe import KprobeManager
from repro.ebpf.maps import ArrayMap, HashMap, RingBufMap
from repro.ebpf.verifier import VerificationError, Verifier

CTX_SIZE = 16
PROGRAM_LEN = 12
TARGET_ACCEPTED = 200
MAX_ATTEMPTS = 60_000
BUDGET = 50_000

_IMMS = (-16, -8, -4, -1, 0, 1, 4, 8, 16, 512, 1 << 40)
_WIDTHS = (1, 2, 4, 8)
_HELPERS = (1, 2, 3, 5, 6, 130)  # map ops, ktime, printk, ringbuf_output
_ALU = sorted(ALU_OPS - {"neg"})
_JCC = sorted(JMP_OPS - {"ja"})


def _random_insn(rng: random.Random):
    kind = rng.randrange(8)
    reg = rng.randrange(11)
    if kind == 0:
        return Alu(rng.choice(_ALU), reg, src=rng.randrange(11))
    if kind == 1:
        return Alu(rng.choice(_ALU), reg, imm=rng.choice(_IMMS))
    if kind == 2:
        return Jmp("ja", rng.randrange(PROGRAM_LEN + 1))
    if kind == 3:
        return Jmp(rng.choice(_JCC), rng.randrange(PROGRAM_LEN + 1),
                   dst=reg, imm=rng.choice(_IMMS))
    if kind == 4:
        return Load(reg, rng.randrange(11), rng.choice(_IMMS),
                    rng.choice(_WIDTHS))
    if kind == 5:
        if rng.random() < 0.5:
            return Store(reg, rng.choice(_IMMS), imm=rng.choice(_IMMS),
                         width=rng.choice(_WIDTHS))
        return Store(reg, rng.choice(_IMMS), src=rng.randrange(11),
                     width=rng.choice(_WIDTHS))
    if kind == 6:
        return LoadMapFd(reg, rng.choice(("h", "a", "rb")))
    return Call(rng.choice(_HELPERS))


def _build(insns) -> Program:
    """Assemble with *fresh* maps so each tier mutates its own state."""
    maps = {"h": HashMap("h", key_size=8, value_size=8, max_entries=8),
            "a": ArrayMap("a", value_size=16, max_entries=4),
            "rb": RingBufMap("rb", value_size=8, max_entries=16)}
    return assemble("fuzz", list(insns) + [Exit()], maps=maps)


def _map_state(bpf_map):
    """Everything userspace could observe about a map, as comparable
    plain data (including what the ring's consumer would read)."""
    if isinstance(bpf_map, RingBufMap):
        return ("ringbuf", bpf_map.consume(), bpf_map.dropped)
    if isinstance(bpf_map, HashMap):
        return ("hash", {bytes(k): bytes(v or b"")
                         for k, v in ((k, bpf_map.lookup(k))
                                      for k in bpf_map.keys())})
    if isinstance(bpf_map, ArrayMap):
        return ("array", [bytes(bpf_map.lookup(struct.pack("<I", i)))
                          for i in range(bpf_map.max_entries)])
    raise AssertionError(f"unknown map kind {bpf_map!r}")


def _run_tier(program: Program, ctxs, use_compiled: bool):
    """One tier's full observable behaviour over a context sequence."""
    interp = Interpreter()
    interp.use_compiled = use_compiled
    if use_compiled:
        assert interp.prepare(program) is not None, (
            f"verified program failed to compile:\n{program.insns}")
    outcomes = []
    for ctx in ctxs:
        try:
            result = interp.run(program, ctx, budget=BUDGET)
        except RuntimeFault as fault:
            outcomes.append(("fault", str(fault)))
        else:
            outcomes.append(("ok", result.r0, result.insn_count))
    states = {name: _map_state(m) for name, m in program.maps.items()}
    return outcomes, states, list(interp.printk_log)


def _assert_equivalent(insns, ctxs):
    compiled = _run_tier(_build(insns), ctxs, use_compiled=True)
    interpreted = _run_tier(_build(insns), ctxs, use_compiled=False)
    assert compiled == interpreted, (
        f"tier divergence on:\n{list(insns)}\n"
        f"compiled:    {compiled}\ninterpreted: {interpreted}")


def test_fuzzed_programs_equivalent_across_tiers():
    rng = random.Random(0xEB9F)
    verifier = Verifier(ctx_size=CTX_SIZE)
    ctxs = [pack_u64(7, 9), pack_u64(0, 0), pack_u64(1 << 40, 3)]
    accepted = 0
    for _ in range(MAX_ATTEMPTS):
        insns = [_random_insn(rng)
                 for _ in range(rng.randrange(1, PROGRAM_LEN))]
        try:
            verifier.verify(_build(insns))
        except VerificationError:
            continue
        _assert_equivalent(insns, ctxs)
        accepted += 1
        if accepted >= TARGET_ACCEPTED:
            break
    assert accepted >= TARGET_ACCEPTED, (
        f"only {accepted} verifier-accepted programs in "
        f"{MAX_ATTEMPTS} attempts; widen the generator")


def test_capture_program_equivalent_across_tiers():
    """Ring-buffer stream equivalence on the real capture program."""
    ino = 4242

    def run_tier(use_compiled):
        interp = Interpreter(time_ns=iter(range(0, 10_000, 7)).__next__)
        interp.use_compiled = use_compiled
        events = make_events_ringbuf("ev", max_entries=64)
        program = build_capture_program(ino, events)
        outcomes = [interp.run(program, struct.pack("<QQ", i_no, index))
                    for index in range(80)
                    for i_no in (ino, ino + 1)]  # hits and filtered inos
        return outcomes, events.consume(), events.dropped

    assert run_tier(True) == run_tier(False)


def test_prefetch_program_equivalent_across_tiers():
    """Array-map walk + kfunc calls + done-flag state machine."""
    from repro.core.kfuncs import SNAPBPF_PREFETCH

    ino = 777

    def run_tier(use_compiled):
        calls = []
        kfuncs = KfuncRegistry()
        kfuncs.register(SNAPBPF_PREFETCH,
                        lambda ino_, start, count: calls.append(
                            (ino_, start, count)) or 0, n_args=3)
        interp = Interpreter(kfuncs=kfuncs)
        interp.use_compiled = use_compiled
        groups = make_groups_map("groups", n_groups=3)
        for index, (start, count) in enumerate(((10, 4), (64, 32), (2, 1))):
            groups.update_u64s(index, start, count)
        state = make_state_map("state")
        program = build_prefetch_program(ino, groups, state)
        # First fire walks and detaches; repeats take the done-flag exit.
        outcomes = [interp.run(program, struct.pack("<QQ", ino, 0))
                    for _ in range(3)]
        return outcomes, calls, _map_state(state)

    assert run_tier(True) == run_tier(False)


def test_kprobe_fire_with_nested_fires_equivalent_across_tiers():
    """Capture + prefetch attached to one hook, fired through
    KprobeManager: the prefetch kfunc re-fires the hook for every page
    it "inserts", so nested fires, the done flag and RET_DETACH_SELF all
    run on the shared per-fire ctx pointer."""
    from repro.core.kfuncs import SNAPBPF_PREFETCH

    ino = 31
    hook = "add_to_page_cache_lru"

    def run_tier(use_compiled):
        kfuncs = KfuncRegistry()
        interp = Interpreter(kfuncs=kfuncs,
                             time_ns=iter(range(0, 1 << 20, 3)).__next__)
        interp.use_compiled = use_compiled
        kprobes = KprobeManager(kfuncs=kfuncs, interpreter=interp)
        kprobes.declare_hook(hook, CTX_SIZE)
        calls = []

        def prefetch(ino_, start, count):
            calls.append((ino_, start, count))
            seconds = 0.0
            for page in range(start, start + count):
                seconds += kprobes.fire(hook, pack_u64(ino_, page))
            kprobes.side_cost += seconds
            return count

        kfuncs.register(SNAPBPF_PREFETCH, prefetch, n_args=3)
        events = make_events_ringbuf("ev", max_entries=16)
        groups = make_groups_map("groups", n_groups=3)
        for index, (start, count) in enumerate(((40, 3), (7, 20), (90, 1))):
            groups.update_u64s(index, start, count)
        state = make_state_map("state")
        capture = build_capture_program(ino, events)
        prefetch_prog = build_prefetch_program(ino, groups, state)
        kprobes.attach(hook, capture)
        kprobes.attach(hook, prefetch_prog)
        seconds = []
        attached = []
        for ctx_ino, index in ((ino + 1, 0), (ino, 3), (ino, 4),
                               (ino + 1, 5), (ino, 8)):
            seconds.append(kprobes.fire(hook, pack_u64(ctx_ino, index)))
            attached.append([p.name for p in kprobes.attached(hook)])
        return (seconds, attached, calls, _map_state(state),
                _map_state(groups), events.consume(), events.dropped,
                kprobes.hook(hook).fire_count)

    compiled = run_tier(True)
    assert compiled == run_tier(False)
    seconds, attached, calls, _state, _groups, records, dropped, fires = \
        compiled
    assert attached[0] == ["snapbpf_capture", "snapbpf_prefetch_prog"]
    assert attached[1:] == [["snapbpf_capture"]] * 4   # self-detached
    assert [c[1:] for c in calls] == [(40, 3), (7, 20), (90, 1)]
    assert fires == 5 + 24                  # outer fires + nested ones
    # 3 outer + 24 nested snapshot-inode inserts into a 16-record ring.
    assert (len(records), dropped) == (16, 11)
    assert all(s > 0 for s in seconds)


def test_array_map_update_between_runs_seen_by_both_tiers():
    """Userspace update() of an array slot between runs: the program
    must read the new bytes, and its own in-place writes must reach
    userspace (the compiled tier keeps one value pointer per slot)."""
    source = [
        storei(R10, -4, 0, width=4),
        ldmap(R1, "a"),
        mov(R2, R10), alui("add", R2, -4),
        call(BPF_FUNC_MAP_LOOKUP_ELEM),
        jcond("jeq", R0, "miss", imm=0),
        load(R6, R0, 0),                 # hits counter, bumped in place
        alui("add", R6, 1),
        store(R0, 0, R6),
        load(R0, R0, 8),                 # the userspace-written word
        exit_(),
        Label("miss"),
        movi(R0, 0),
        exit_(),
    ]

    def run_tier(use_compiled):
        interp = Interpreter()
        interp.use_compiled = use_compiled
        array = ArrayMap("a", value_size=16, max_entries=2)
        program = assemble("reader", source, maps={"a": array})
        Verifier(ctx_size=CTX_SIZE).verify(program)
        seen = []
        for value in (5, 6, 1 << 40):
            array.update_u64s(0, array.lookup_u64s(0)[0], value)
            seen.append(interp.run(program, pack_u64(0, 0)).r0)
        return seen, array.lookup_u64s(0)

    compiled = run_tier(True)
    assert compiled == run_tier(False)
    assert compiled == ([5, 6, 1 << 40], (3, 1 << 40))

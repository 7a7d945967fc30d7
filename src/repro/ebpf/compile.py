"""Compile tier: translate verified programs into Python closures.

The interpreter in :mod:`repro.ebpf.interp` re-dispatches on instruction
dataclasses for every executed instruction; at figure-sweep scale that
dispatch is one of the hottest frames in the whole simulation.  The
kernel solves the same problem by JIT-compiling verified programs once
and running native code afterwards.  This module is the analogous tier
for the miniature machine: a program's instruction list is translated
*once* into Python source (basic blocks inside a dispatch loop), compiled
to CPython bytecode, and the resulting closure is what
:meth:`~repro.ebpf.interp.Interpreter.run` executes from then on.

Semantics are identical to the interpreter by construction:

* registers hold the same value domain (masked u64 ints, ``_Ptr``,
  ``None``), every ALU/jump/load/store replicates the interpreter's type
  checks, masking, and ``RuntimeFault`` messages;
* helpers and kfuncs are resolved at compile (program-load) time — the
  per-invocation table lookups the interpreter used to do are hoisted
  here, and the interpreter tier shares the same load-time resolution;
* ``insn_count`` is accounted per basic block, so every terminating run
  reports exactly the interpreter's executed-instruction count (the
  quantity the kprobe path converts into simulated seconds — figure
  outputs stay byte-identical).

The one deliberate divergence: the instruction budget is enforced at
basic-block granularity, so a run that *exhausts* the budget faults at
the same reported pc and count but without replaying the faulting
block's partial side effects.  Verified programs never reach the budget
(the verifier bounds their loops); the fallback interpreter
(``REPRO_EBPF_INTERP=1``) keeps the per-instruction behaviour.

Compiled code objects are cached by program *structure* (instruction
tuple, map table names, kfunc signatures), so the many per-VM clones of
the same builder-produced program pay ``compile()`` once; per-program
constants (map pointers, resolved kfunc specs) live in each closure's
globals.
"""

from __future__ import annotations

from repro.ebpf import helpers as H
from repro.ebpf.asm import Program
from repro.ebpf.insn import (
    STACK_SIZE,
    U64_MASK,
    Alu,
    Call,
    CallKfunc,
    Exit,
    Insn,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.interp import (
    INSN_COST_SECONDS,
    ExecutionResult,
    RuntimeFault,
    _Ptr,
    _Region,
    _to_signed,
)
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.maps import ArrayMap

__all__ = ["CompiledProgram", "CompileError", "compile_program"]

#: Structure-keyed cache of compiled code objects (see module docstring).
_CODE_CACHE: dict[tuple, object] = {}

_MASK = "0x%X" % U64_MASK


class CompileError(ValueError):
    """The program cannot be compiled (unresolved labels, unknown insn);
    the caller falls back to the interpreter."""


class CompiledProgram:
    """One program's compiled form, bound to the runtime that loaded it."""

    __slots__ = ("owner", "fn", "source")

    def __init__(self, owner, fn, source: str):
        #: The Interpreter whose kfunc registry the closure was resolved
        #: against; a different runtime must recompile.
        self.owner = owner
        self.fn = fn
        self.source = source


# -- runtime support shared by every closure ---------------------------------

def _budget_fault(budget: int, executed: int, pcs: tuple) -> None:
    """Raise the interpreter's budget fault at the exact faulting pc.

    ``executed`` already includes the whole block (``len(pcs)`` charged
    up front); the interpreter would have stopped after ``budget`` total
    instructions, i.e. ``executed - budget`` from the end of this block.
    """
    idx = len(pcs) - (executed - budget)
    raise RuntimeFault(
        f"instruction budget {budget} exhausted at pc {pcs[idx]}")


def _alu_slow(op: str, dst: object, src: object) -> object:
    """Non-scalar ALU cases: pointer arithmetic and type errors."""
    if isinstance(dst, _Ptr):
        if op == "add" and isinstance(src, int):
            return dst.moved(_to_signed(src & U64_MASK))
        if op == "sub" and isinstance(src, int):
            return dst.moved(-_to_signed(src & U64_MASK))
        raise RuntimeFault(f"{op} on pointer")
    raise RuntimeFault(f"{op} with non-scalar operand")


def _jmp_slow(op: str, dst: object, src: object) -> bool:
    """Non-scalar jump cases: the pointer NULL check and type errors."""
    if isinstance(dst, _Ptr):
        if op in ("jeq", "jne") and isinstance(src, int) and src == 0:
            return op == "jne"
        raise RuntimeFault("pointer comparison beyond NULL check")
    raise RuntimeFault("jump on non-scalar operands")


def _map_arg(value: object):
    if not isinstance(value, _Ptr) or value.bpf_map is None:
        raise RuntimeFault("helper expected a map pointer")
    return value.bpf_map


def _buffer_arg(value: object, size: int) -> bytes:
    if not isinstance(value, _Ptr) or value.region is None:
        raise RuntimeFault("helper expected a buffer pointer")
    return value.region.read_bytes(value.off, size)


def _value_ptr(bpf_map, value: bytearray) -> _Ptr:
    return _Ptr(_Region(value, True, "map:" + bpf_map.name), 0)


def _lookup(bpf_map, key: bytes):
    """``bpf_map_lookup_elem``: a pointer to the value, or 0.  An array
    map's slots are permanent, so each slot's pointer is built once and
    kept on the map; other maps may replace a value, so theirs are
    built per lookup."""
    if type(bpf_map) is ArrayMap:
        ptr = bpf_map.slot_ref(key, _value_ptr)
    else:
        value = bpf_map.lookup(key)
        ptr = None if value is None else _value_ptr(bpf_map, value)
    return 0 if ptr is None else ptr


#: Globals every generated closure runs against (plus its per-program
#: constants).  ``exec`` copies this into each closure's namespace.
_BASE_NAMESPACE = {
    "_Ptr": _Ptr,
    "_Region": _Region,
    "ExecutionResult": ExecutionResult,
    "RuntimeFault": RuntimeFault,
    "_sg": _to_signed,
    "_fb": int.from_bytes,
    "_cost": INSN_COST_SECONDS,
    "_budget_fault": _budget_fault,
    "_alu_slow": _alu_slow,
    "_jmp_slow": _jmp_slow,
    "_map_arg": _map_arg,
    "_buffer_arg": _buffer_arg,
    "_lookup": _lookup,
    "_spec_for": H.spec_for,
}

_CMP = {
    "jeq": "==", "jne": "!=", "jgt": ">", "jge": ">=",
    "jlt": "<", "jle": "<=",
}
_SCMP = {"jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<="}


class _Codegen:
    """Walks one program's instruction list and emits Python source."""

    def __init__(self, program: Program, kfuncs: KfuncRegistry):
        self.program = program
        self.kfuncs = kfuncs
        self.lines: list[str] = []
        #: Per-program runtime constants referenced by the source.
        self.consts: dict[str, object] = {}
        self._maps: dict[str, str] = {}      # map name -> const name
        self._nconst = 0
        self._block = 0                      # block being emitted

    # -- small utilities ----------------------------------------------------
    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def const(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{self._nconst}"
        self._nconst += 1
        self.consts[name] = value
        return name

    def map_const(self, map_name: str) -> str:
        """A shared ``_Ptr(None, 0, bpf_map=...)`` per referenced map."""
        if map_name not in self._maps:
            ptr = _Ptr(None, 0, bpf_map=self.program.map_named(map_name))
            self._maps[map_name] = self.const("map", ptr)
        return self._maps[map_name]

    # -- program structure --------------------------------------------------
    def block_starts(self) -> list[int]:
        insns = self.program.insns
        leaders = {0}
        for pc, insn in enumerate(insns):
            if isinstance(insn, Jmp):
                if not isinstance(insn.target, int):
                    raise CompileError(
                        f"unresolved jump target {insn.target!r}")
                if 0 <= insn.target < len(insns):
                    leaders.add(insn.target)
                leaders.add(pc + 1)
            elif isinstance(insn, Exit):
                leaders.add(pc + 1)
        return sorted(pc for pc in leaders if pc < len(insns))

    def generate(self) -> str:
        starts = self.block_starts()
        block_of = {pc: i for i, pc in enumerate(starts)}
        insns = self.program.insns
        # Straight-line programs skip the dispatch loop entirely.  Any
        # jump needs it (even a single-block self-loop uses ``continue``).
        single = (len(starts) == 1
                  and not any(isinstance(i, Jmp) for i in insns))

        self.consts["_span"] = f"bpf:{self.program.name}"
        # r1 arrives as the caller's read-only ctx pointer (shared by
        # every program of one kprobe fire); the stack is fresh per run.
        self.emit(0, "def _bpf_run(rt, r1, budget):")
        self.emit(1, f'_stk = _Region(bytearray({STACK_SIZE}), True, "stack")')
        self.emit(1, f"r10 = _Ptr(_stk, {STACK_SIZE})")
        self.emit(1, "r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = None")
        self.emit(1, "executed = 0")
        if single:
            body = 1
        else:
            # Blocks are guarded in program order, so falling through or
            # jumping forward reaches the target guard further down the
            # same pass; only backward jumps restart the loop.
            self.emit(1, "_b = 0")
            self.emit(1, "while True:")
            body = 3

        for bi, start in enumerate(starts):
            self._block = bi
            end = starts[bi + 1] if bi + 1 < len(starts) else len(insns)
            if not single:
                self.emit(2, f"if _b == {bi}:")
            pcs = self.const("pcs", tuple(range(start, end)))
            self.emit(body, f"executed += {end - start}")
            self.emit(body, "if executed > budget:")
            self.emit(body + 1, f"_budget_fault(budget, executed, {pcs})")
            terminated = False
            for pc in range(start, end):
                terminated = self.emit_insn(insns[pc], body, block_of)
            if not terminated:
                ind = body
                if isinstance(insns[end - 1], Jmp):
                    # Not taken: the branch's else, so a forward taken
                    # target is not overwritten.
                    self.emit(body, "else:")
                    ind = body + 1
                self.goto(end, ind, block_of)
        return "\n".join(self.lines) + "\n"

    def goto(self, target: int, ind: int, block_of: dict) -> None:
        """Transfer control to the block starting at pc ``target``."""
        if target not in block_of:
            self.emit(ind, f'raise RuntimeFault("pc {target} out of program")')
            return
        self.emit(ind, f"_b = {block_of[target]}")
        if block_of[target] <= self._block:
            self.emit(ind, "continue")

    # -- per-instruction emission -------------------------------------------
    def emit_insn(self, insn: Insn, ind: int, block_of: dict) -> bool:
        """Emit one instruction; returns True when it ends the block."""
        if isinstance(insn, Alu):
            self.emit_alu(insn, ind)
        elif isinstance(insn, Jmp):
            # Only an unconditional jump terminates the block; conditional
            # jumps fall through to the next block when not taken.
            self.emit_jmp(insn, ind, block_of)
            return insn.op == "ja"
        elif isinstance(insn, Load):
            self.emit_load(insn, ind)
        elif isinstance(insn, Store):
            self.emit_store(insn, ind)
        elif isinstance(insn, LoadMapFd):
            self.emit(ind, f"r{insn.dst} = {self.map_const(insn.map_name)}")
        elif isinstance(insn, Call):
            self.emit_call(insn, ind)
        elif isinstance(insn, CallKfunc):
            self.emit_kfunc(insn, ind)
        elif isinstance(insn, Exit):
            self.emit_exit(ind)
            return True
        else:
            raise CompileError(f"unknown instruction {insn!r}")
        return False

    def emit_alu(self, insn: Alu, ind: int) -> None:
        d = f"r{insn.dst}"
        op = insn.op
        if op == "mov":
            if insn.imm is not None:
                self.emit(ind, f"{d} = {insn.imm & U64_MASK}")
            else:
                self.emit(ind, f"{d} = r{insn.src}")
            return
        if op == "neg":
            self.emit(ind, f"if isinstance({d}, int):")
            self.emit(ind + 1, f"{d} = (-{d}) & {_MASK}")
            self.emit(ind, "else:")
            self.emit(ind + 1, 'raise RuntimeFault("neg on pointer")')
            return
        if insn.imm is not None:
            im = insn.imm & U64_MASK
            expr = self._alu_expr(op, d, str(im), imm=im)
            self.emit(ind, f"if isinstance({d}, int):")
            self.emit(ind + 1, f"{d} = {expr}")
            if op in ("add", "sub"):
                # Pointer +/- constant (stack and map-value addressing):
                # _Ptr.moved, inline.
                delta = _to_signed(im) if op == "add" else -_to_signed(im)
                self.emit(ind, f"elif isinstance({d}, _Ptr):")
                self.emit(ind + 1, f"{d} = _Ptr({d}.region, {d}.off + "
                                   f"({delta}), {d}.bpf_map)")
            self.emit(ind, "else:")
            self.emit(ind + 1, f'{d} = _alu_slow("{op}", {d}, {im})')
        else:
            s = f"r{insn.src}"
            expr = self._alu_expr(op, d, "_s")
            self.emit(ind, f"_s = {s}")
            self.emit(ind, f"if isinstance({d}, int) and isinstance(_s, int):")
            self.emit(ind + 1, f"{d} = {expr}")
            self.emit(ind, "else:")
            self.emit(ind + 1, f'{d} = _alu_slow("{op}", {d}, _s)')

    @staticmethod
    def _alu_expr(op: str, d: str, s: str, imm: int | None = None) -> str:
        """Expression for ``d <op> s`` on pre-masked u64 scalars."""
        if op == "add":
            return f"({d} + {s}) & {_MASK}"
        if op == "sub":
            return f"({d} - {s}) & {_MASK}"
        if op == "mul":
            return f"({d} * {s}) & {_MASK}"
        if op == "div":
            if imm is not None:
                return "0" if imm == 0 else f"{d} // {s}"
            return f"({d} // {s}) if {s} else 0"
        if op == "mod":
            if imm is not None:
                return d if imm == 0 else f"{d} % {s}"
            return f"({d} % {s}) if {s} else {d}"
        if op == "and":
            return f"{d} & {s}"
        if op == "or":
            return f"{d} | {s}"
        if op == "xor":
            return f"{d} ^ {s}"
        if op == "lsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"({d} << {shift}) & {_MASK}"
        if op == "rsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"{d} >> {shift}"
        if op == "arsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"(_sg({d}) >> {shift}) & {_MASK}"
        raise CompileError(f"unknown ALU op {op!r}")

    def emit_jmp(self, insn: Jmp, ind: int, block_of: dict) -> None:
        if insn.op == "ja":
            self.goto(insn.target, ind, block_of)
            return
        d = f"r{insn.dst}"
        op = insn.op
        null_check = None
        if insn.imm is not None:
            im = insn.imm & U64_MASK
            guard = f"isinstance({d}, int)"
            if op in _CMP:
                expr = f"{d} {_CMP[op]} {im}"
            elif op in _SCMP:
                expr = f"_sg({d}) {_SCMP[op]} {_to_signed(im)}"
            else:  # jset
                expr = f"({d} & {im}) != 0"
            slow = f'_t = _jmp_slow("{op}", {d}, {im})'
            if im == 0 and op in ("jeq", "jne"):
                # The NULL check after a map lookup: a live pointer is
                # never NULL (_jmp_slow's rule, inline).
                null_check = op == "jne"
        else:
            self.emit(ind, f"_s = r{insn.src}")
            guard = f"isinstance({d}, int) and isinstance(_s, int)"
            if op in _CMP:
                expr = f"{d} {_CMP[op]} _s"
            elif op in _SCMP:
                expr = f"_sg({d}) {_SCMP[op]} _sg(_s)"
            else:  # jset
                expr = f"({d} & _s) != 0"
            slow = f'_t = _jmp_slow("{op}", {d}, _s)'
        self.emit(ind, f"if {guard}:")
        self.emit(ind + 1, f"_t = {expr}")
        if null_check is not None:
            self.emit(ind, f"elif isinstance({d}, _Ptr):")
            self.emit(ind + 1, f"_t = {null_check}")
        self.emit(ind, "else:")
        self.emit(ind + 1, slow)
        self.emit(ind, "if _t:")
        self.goto(insn.target, ind + 1, block_of)

    def emit_load(self, insn: Load, ind: int) -> None:
        d, w = f"r{insn.dst}", insn.width
        self.emit(ind, f"_p = r{insn.src}")
        self.emit(ind, "if isinstance(_p, _Ptr) and _p.region is not None:")
        self.emit(ind + 1, "_g = _p.region")
        self.emit(ind + 1, f"_o = _p.off + {insn.off}")
        self.emit(ind + 1, "_m = _g.data")
        self.emit(ind + 1, f"if 0 <= _o and _o + {w} <= len(_m):")
        self.emit(ind + 2, f'{d} = _fb(_m[_o:_o + {w}], "little")')
        self.emit(ind + 1, "else:")
        self.emit(ind + 2, f"{d} = _g.read(_o, {w})")
        self.emit(ind, "else:")
        self.emit(ind + 1, 'raise RuntimeFault('
                           '"load base is not a dereferenceable pointer")')

    def emit_store(self, insn: Store, ind: int) -> None:
        w = insn.width
        wmask = (1 << (8 * w)) - 1
        self.emit(ind, f"_p = r{insn.dst}")
        self.emit(ind, "if isinstance(_p, _Ptr) and _p.region is not None:")
        if insn.imm is not None:
            packed = self.const(
                "c", (insn.imm & wmask).to_bytes(w, "little"))
            value, fast = str(insn.imm), f"_m[_o:_o + {w}] = {packed}"
        else:
            value = "_v"
            fast = (f"_m[_o:_o + {w}] = "
                    f'(_v & {"0x%X" % wmask}).to_bytes({w}, "little")')
            self.emit(ind + 1, f"_v = r{insn.src}")
            self.emit(ind + 1, "if not isinstance(_v, int):")
            self.emit(ind + 2,
                      'raise RuntimeFault("store of non-scalar value")')
        self.emit(ind + 1, "_g = _p.region")
        self.emit(ind + 1, f"_o = _p.off + {insn.off}")
        self.emit(ind + 1, "_m = _g.data")
        self.emit(ind + 1, f"if _g.writable and 0 <= _o "
                           f"and _o + {w} <= len(_m):")
        self.emit(ind + 2, fast)
        self.emit(ind + 1, "else:")
        self.emit(ind + 2, f"_g.write(_o, {w}, {value})")
        self.emit(ind, "else:")
        self.emit(ind + 1, 'raise RuntimeFault('
                           '"store base is not a dereferenceable pointer")')

    def emit_call(self, insn: Call, ind: int) -> None:
        hid = insn.helper_id
        if hid == H.BPF_FUNC_MAP_LOOKUP_ELEM:
            self.emit(ind, "_a = _map_arg(r1)")
            self.emit(ind, "_key = _buffer_arg(r2, _a.key_size)")
            self.emit(ind, "r0 = _lookup(_a, _key)")
        elif hid == H.BPF_FUNC_MAP_UPDATE_ELEM:
            self.emit(ind, "_a = _map_arg(r1)")
            self.emit(ind, "_key = _buffer_arg(r2, _a.key_size)")
            self.emit(ind, "_val = _buffer_arg(r3, _a.value_size)")
            self.emit(ind, "try:")
            self.emit(ind + 1, "_a.update(_key, _val)")
            self.emit(ind + 1, "r0 = 0")
            self.emit(ind, "except ValueError:")
            self.emit(ind + 1, f"r0 = {_MASK}")
        elif hid == H.BPF_FUNC_MAP_DELETE_ELEM:
            self.emit(ind, "_a = _map_arg(r1)")
            self.emit(ind, "_key = _buffer_arg(r2, _a.key_size)")
            self.emit(ind, "try:")
            self.emit(ind + 1, "_a.delete(_key)")
            self.emit(ind + 1, "r0 = 0")
            self.emit(ind, "except ValueError:")
            self.emit(ind + 1, f"r0 = {_MASK}")
        elif hid == H.BPF_FUNC_RINGBUF_OUTPUT:
            self.emit(ind, "_a = _map_arg(r1)")
            self.emit(ind, 'if _a.KIND != "ringbuf":')
            self.emit(ind + 1, 'raise RuntimeFault('
                               '"bpf_ringbuf_output on non-ringbuf map")')
            self.emit(ind, "_val = _buffer_arg(r2, _a.value_size)")
            self.emit(ind, f"r0 = _a.output(_val) & {_MASK}")
        elif hid == H.BPF_FUNC_KTIME_GET_NS:
            self.emit(ind, f"r0 = int(rt.time_ns()) & {_MASK}")
        elif hid == H.BPF_FUNC_TRACE_PRINTK:
            self.emit(ind, "_v = r1")
            self.emit(ind, "if not isinstance(_v, int):")
            self.emit(ind + 1,
                      'raise RuntimeFault("trace_printk arg not scalar")')
            self.emit(ind, "rt.printk_log.append(_v)")
            self.emit(ind, "r0 = 0")
        elif hid == H.BPF_FUNC_CACHED_PAGES:
            self.emit(ind, "_v = r1")
            self.emit(ind, "if not isinstance(_v, int):")
            self.emit(ind + 1,
                      'raise RuntimeFault("cached_pages arg not scalar")')
            self.emit(ind, "_ps = rt.page_stats")
            self.emit(ind, "r0 = (0 if _ps is None else "
                           f"int(_ps.cached_pages(_v)) & {_MASK})")
        else:
            # Unknown id: raise the interpreter's error lazily, when (if)
            # execution actually reaches the call.
            self.emit(ind, f"_spec_for({hid})")
            self.emit(ind, "raise RuntimeFault("
                           f'"helper {hid} not implemented")')
        self.emit(ind, "r1 = r2 = r3 = r4 = r5 = None")

    def emit_kfunc(self, insn: CallKfunc, ind: int) -> None:
        if insn.name not in self.kfuncs:
            # Resolution failed at load time; raise the registry's error
            # only if execution reaches the call (interpreter parity).
            self.emit(ind, f"rt.kfuncs.get({insn.name!r})")
            return
        spec = self.kfuncs.get(insn.name)
        kf = self.const("kf", spec)
        args = []
        for idx in range(spec.n_args):
            arg = f"_a{idx + 1}"
            self.emit(ind, f"{arg} = r{idx + 1}")
            self.emit(ind, f"if not isinstance({arg}, int):")
            self.emit(ind + 1, "raise RuntimeFault("
                               f'"kfunc {insn.name}: arg{idx + 1} '
                               'not scalar")')
            args.append(arg)
        self.emit(ind, f"_x = {kf}.func({', '.join(args)})")
        self.emit(ind, f"r0 = int(_x) & {_MASK} if _x is not None else 0")
        self.emit(ind, "r1 = r2 = r3 = r4 = r5 = None")

    def emit_exit(self, ind: int) -> None:
        self.emit(ind, "if not isinstance(r0, int):")
        self.emit(ind + 1, 'raise RuntimeFault("exit with non-scalar R0")')
        self.emit(ind, "_tr = rt.tracer")
        self.emit(ind, "if _tr is not None and _tr.enabled:")
        self.emit(ind + 1, '_tr.complete(_span, "ebpf", '
                           "rt.time_ns() / 1e9, dur=executed * _cost, "
                           'track="ebpf", insns=executed, r0=r0)')
        self.emit(ind, "return ExecutionResult(r0, executed)")


def _cache_key(program: Program, kfuncs: KfuncRegistry) -> tuple:
    """Structure key: everything the generated *source* depends on."""
    kfunc_sig = tuple(
        (insn.name, kfuncs.get(insn.name).n_args
         if insn.name in kfuncs else None)
        for insn in program.insns if isinstance(insn, CallKfunc))
    return (program.name, tuple(program.insns), tuple(program.maps),
            kfunc_sig)


def compile_program(program: Program, interpreter) -> CompiledProgram:
    """Translate ``program`` once for ``interpreter``'s runtime.

    Raises :class:`CompileError` for programs the generator cannot
    handle (unresolved labels, foreign instruction types); the caller
    keeps interpreting those.
    """
    gen = _Codegen(program, interpreter.kfuncs)
    source = gen.generate()
    key = _cache_key(program, interpreter.kfuncs)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = compile(source, f"<bpf:{program.name}>", "exec")
        _CODE_CACHE[key] = code
    namespace = dict(_BASE_NAMESPACE)
    namespace.update(gen.consts)
    exec(code, namespace)
    return CompiledProgram(owner=interpreter, fn=namespace["_bpf_run"],
                           source=source)

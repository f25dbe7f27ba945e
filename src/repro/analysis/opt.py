"""Analysis-driven assembly optimizer: fork-mask-aware dead-store
elimination plus basic-block copy/immediate propagation.

Both passes reuse PR 3's dataflow facts, which already encode the
paper's section semantics — that is what makes them safe here when a
textbook x86 optimizer would not be:

* Liveness runs over the ``dataflow`` view, whose ``fork-resume`` edges
  (filtered by must-write kill sets) and masked ``endfork-resume``
  edges model *every* position a backward renaming request can observe
  a value from.  A register result is removed only when no such
  position exists — dead across sections, not merely dead in this one.
* Copy propagation is restricted to one basic block.  Blocks never
  span a control transfer (``fork`` included), so a substituted read
  executes in the same dynamic section as the copy it replaces, where
  source and destination provably hold the same value.

What is *deliberately* preserved:

* anything that writes memory, and ``push``/``pop``/``call``/``ret``
  (stack protocol), ``out`` (observable channel), ``cqo``/``idiv``
  (implicit register pairs), every control transfer;
* ``rsp`` results (the stack-chain serialisation the paper leans on);
* flag-setting stores whose flags are still live.

The rebuilt :class:`~repro.isa.program.Program` remaps addresses:
labels of a removed instruction reattach to the next kept one, control
operands are re-resolved through the same forward map, and the entry
point moves with it.  Removing an instruction a jump targets is safe
precisely because liveness is a property of the *location*: the merge
over all predecessors (the jump included) already said the result is
dead there.

The safety contract is **architectural identity**: identical output
stream, return value and final memory.  Final *registers* are excluded
by design — a dead value vanishing is the whole point.  The proof is
differential (tests/analysis/test_opt.py): the functional oracles and
both simulator kernels, fault-free and under chaos plans, agree
bit-for-bit on the contract fields while committed cycles drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..isa.instructions import Instruction
from ..isa.operands import Imm, LabelRef, Mem, Operand, Reg
from ..isa.program import Program
from ..isa.registers import STACK_POINTER
from .cfg import CFG
from .dataflow import ReachingDefs, liveness, mask_of

#: opcodes whose *source* position may legally hold an immediate (the
#: assembler grammar accepts ``$imm`` there, and the executor evaluates
#: it) — the whitelist immediate propagation is allowed to rewrite into
_IMM_SOURCE_OPCODES = frozenset(
    ("mov", "add", "sub", "and", "or", "xor", "imul", "cmp", "out",
     "push"))

#: opcodes never touched by dead-store elimination even when their
#: register result is dead (stack protocol, observable side effects,
#: implicit multi-register semantics)
_DSE_PROTECTED_KINDS = frozenset(
    ("push", "pop", "call", "ret", "cqo", "idiv", "out", "fork",
     "endfork", "jmp", "jcc", "hlt"))


@dataclass
class OptReport:
    """What one :func:`optimize_program` run did."""

    program: Program                       #: the rebuilt program
    original: Program
    iterations: int = 0
    copies_propagated: int = 0
    immediates_propagated: int = 0
    removed: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def changed(self) -> bool:
        return bool(self.removed or self.copies_propagated
                    or self.immediates_propagated)

    def describe(self) -> str:
        return ("optimizer: %d -> %d instruction(s) in %d pass(es) "
                "(%d dead store(s) removed, %d copy/%d immediate "
                "propagation(s))"
                % (len(self.original.code), len(self.program.code),
                   self.iterations, self.removed_count,
                   self.copies_propagated, self.immediates_propagated))


_Binding = Tuple[str, Union[str, int]]     # ("reg", src) | ("imm", value)


def _substitute(instr: Instruction, env: Dict[str, _Binding],
                ) -> Tuple[Optional[Instruction], int, int]:
    """Rewrite *instr*'s read-only operand positions through *env*.

    Returns (replacement instruction or None, copies used, immediates
    used).  Only explicit ``Reg`` sources and ``Mem`` address registers
    are rewritten; destinations — including read-modify-write ones —
    are never touched.
    """
    if not instr.operands:
        return None, 0, 0
    info = instr.info
    copies = imms = 0
    new_ops: List[Operand] = []
    changed = False
    last = len(instr.operands) - 1
    for i, op in enumerate(instr.operands):
        is_dest = info.writes_dest and i == last
        if isinstance(op, Reg) and not is_dest:
            binding = env.get(op.name)
            if binding is None:
                new_ops.append(op)
                continue
            kind, value = binding
            if kind == "reg":
                new_ops.append(Reg(str(value)))
                copies += 1
                changed = True
            elif (instr.opcode in _IMM_SOURCE_OPCODES and i == 0
                    and not (instr.opcode == "cmp"
                             and isinstance(instr.operands[1], Imm))):
                new_ops.append(Imm(int(value)))
                imms += 1
                changed = True
            else:
                new_ops.append(op)
        elif isinstance(op, Mem):
            base, index = op.base, op.index
            if base is not None and env.get(base, ("", 0))[0] == "reg":
                base = str(env[base][1])
            if index is not None and env.get(index, ("", 0))[0] == "reg":
                index = str(env[index][1])
            if (base, index) != (op.base, op.index):
                new_ops.append(Mem(disp=op.disp, base=base, index=index,
                                   scale=op.scale, symbol=op.symbol))
                copies += 1
                changed = True
            else:
                new_ops.append(op)
        else:
            new_ops.append(op)
    if not changed:
        return None, 0, 0
    replacement = Instruction(opcode=instr.opcode, operands=tuple(new_ops),
                              addr=instr.addr, labels=instr.labels,
                              source_line=instr.source_line)
    return replacement, copies, imms


def _propagate_block(code: List[Instruction], cfg: CFG,
                     ) -> Tuple[int, int]:
    """One local copy/immediate-propagation sweep; mutates *code* in
    place, returns (copies, immediates).

    The environment is carried along maximal fall-through chains and
    reset whenever an address can be reached any other way (jump
    target, call return site, fork resume, …): an address whose sole
    ``dataflow`` predecessor is the plain fall from the previous
    instruction is only ever executed with the environment's bindings
    holding, even when that predecessor is a not-taken branch."""
    copies = imms = 0
    env: Dict[str, _Binding] = {}
    for addr in range(len(code)):
        preds = cfg.preds(addr, "dataflow")
        if len(preds) != 1 or preds[0] != (addr - 1, "fall"):
            env = {}
        instr = code[addr]
        replacement, c, i = _substitute(instr, env)
        if replacement is not None:
            code[addr] = instr = replacement
            copies += c
            imms += i
        # kill every binding the instruction invalidates, then record a
        # fresh one for plain register/immediate moves
        written = instr.reg_writes()
        if written:
            for dst in list(env):
                binding = env[dst]
                if dst in written or (binding[0] == "reg"
                                      and binding[1] in written):
                    del env[dst]
        if (instr.opcode == "mov" and len(instr.operands) == 2
                and isinstance(instr.operands[1], Reg)):
            dest = instr.operands[1].name
            src = instr.operands[0]
            if isinstance(src, Reg) and src.name != dest:
                env[dest] = ("reg", src.name)
            elif isinstance(src, Imm) and src.symbol is None:
                env[dest] = ("imm", src.value)
    return copies, imms


def _dead_addrs(cfg: CFG) -> Set[int]:
    """Addresses whose register result (and flags, if written) no
    dataflow-view path ever reads — the fork-mask-aware dead set."""
    data = liveness(cfg, "dataflow")
    rdefs = ReachingDefs(cfg)
    flags_bit = mask_of(["rflags"])
    dead: Set[int] = set()
    code = cfg.program.code
    last = len(code) - 1
    for instr in code:
        addr = instr.addr
        if addr == last or not rdefs.reachable(addr):
            continue            # keep the final instruction as an anchor
        if instr.kind in _DSE_PROTECTED_KINDS:
            continue
        info = instr.info
        if not info.writes_dest or not instr.operands:
            continue
        if instr.writes_memory() or instr.reads_memory():
            continue            # stores are observable; loads stay to
            #                     keep this pass register-only
        dest = instr.operands[-1]
        if not isinstance(dest, Reg) or dest.name == STACK_POINTER:
            continue
        live_out = data.live_out[addr]
        if live_out & mask_of([dest.name]):
            continue
        if info.writes_flags and live_out & flags_bit:
            continue
        dead.add(addr)
    return dead


def _rebuild(original: Program, code: List[Instruction],
             dead: Set[int]) -> Program:
    """Drop *dead* addresses and rebuild a consistent program: forward
    address remapping for control targets, labels and symbols."""
    n = len(code)
    kept = [addr for addr in range(n) if addr not in dead]
    forward: List[int] = [0] * (n + 1)
    new_index = {old: new for new, old in enumerate(kept)}
    cursor = len(kept)
    for addr in range(n, -1, -1):
        if addr < n and addr in new_index:
            cursor = new_index[addr]
        forward[addr] = cursor

    new_code: List[Instruction] = []
    pending_labels: List[str] = []
    for addr in range(n):
        instr = code[addr]
        if addr in dead:
            pending_labels.extend(instr.labels)
            continue
        operands = tuple(
            LabelRef(op.name, forward[op.target])
            if isinstance(op, LabelRef) and op.target is not None else op
            for op in instr.operands)
        labels = tuple(dict.fromkeys(pending_labels + list(instr.labels)))
        pending_labels = []
        new_code.append(Instruction(
            opcode=instr.opcode, operands=operands,
            addr=len(new_code), labels=labels,
            source_line=instr.source_line))
    code_symbols = {name: forward[addr]
                    for name, addr in original.code_symbols.items()}
    return Program(code=new_code, data=dict(original.data),
                   code_symbols=code_symbols,
                   data_symbols=dict(original.data_symbols),
                   entry=forward[original.entry],
                   source=original.source)


def optimize_program(program: Program, max_passes: int = 8) -> OptReport:
    """Iterate propagation + dead-store elimination to a fixpoint.

    The input program is never mutated; every pass rebuilds analyses
    from scratch (propagation exposes new dead stores, removal exposes
    new copies) until a pass changes nothing or *max_passes* is hit.
    """
    current = program
    report = OptReport(program=program, original=program)
    for _ in range(max_passes):
        cfg = CFG(current)
        code = list(current.code)
        copies, imms = _propagate_block(code, cfg)
        if copies or imms:
            # re-analyse on the propagated code before judging deadness
            # (addresses are unchanged, so untouched instructions are
            # shared with the previous program)
            current = Program(code=code,
                              data=dict(current.data),
                              code_symbols=dict(current.code_symbols),
                              data_symbols=dict(current.data_symbols),
                              entry=current.entry, source=current.source)
            cfg = CFG(current)
            code = list(current.code)
        dead = _dead_addrs(cfg)
        report.iterations += 1
        report.copies_propagated += copies
        report.immediates_propagated += imms
        if not dead and not copies and not imms:
            break
        for addr in sorted(dead):
            report.removed.append((addr, str(code[addr])))
        current = _rebuild(current, code, dead)
    report.program = current
    return report

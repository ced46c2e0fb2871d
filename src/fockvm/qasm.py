"""Word-level assembly: text format, interpreter, and operator compilation.

The text format is one instruction per line, with an optional leading
integer label (ignored), ``;`` comments, and operands that are symbolic
names, ``#k`` immediates, ``[k]`` raw addresses, or a signed count for
SHIFT. Symbolic operands are assigned addresses in first-use order starting
at zero. Immediate operands are backed by a constant pool placed after the
symbols; the pool is written into memory before execution in both the
interpreter and the operator form, so final memories agree between the two.

Compilation produces operator expressions over :mod:`fockvm.operators`:

* ``compile_sequential`` handles jump-free programs as a plain right-to-left
  product, one factor per instruction (loads and stores as copy/clear
  pairs, arithmetic as amplitude-one instruction actions, HALT as the
  halting marker).
* ``compile_guarded`` wraps every instruction factor in a program-counter
  guard so the factors fire only at their own step, and compiles jumps
  through a recursive definition. Backward jumps (target at or before the
  jumping step) consume one unit of the fuel counter and re-enter the
  definition; forward jumps are handled by the guards of the remaining
  factors and consume no fuel. When fuel runs out the jumped term simply
  stops evolving, and the runner reports that as fuel exhaustion.

Program-counter bumps and fuel updates are compiled as normalized set-value
forms rather than raw ladder operators: raw ladders carry square-root
amplitude factors, and deterministic programs must map one input state to
one output state with amplitude modulus one.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    FuelExhausted,
    InputExhausted,
    JumpsNotSupported,
    NormViolation,
    ParseError,
    PcOutOfRange,
    StepLimitExceeded,
)
from .isa import (
    OPERAND_KINDS,
    REGISTER_OPCODES,
    Instruction,
    Opcode,
    Operand,
    OperandKind,
    address,
    count,
    immediate,
    register_action,
)
from .operators import (
    DEFAULT_FUEL_BUDGET,
    FUEL,
    IN,
    OUT,
    PC,
    REGISTER,
    Bra,
    Clear,
    Const,
    Copy,
    Define,
    EvalStats,
    ExpMul,
    ExpSub,
    GuardedPower,
    InstructionOp,
    Mem,
    Num,
    OperatorExpr,
    Product,
    Raise,
    RecursiveRef,
    SetValue,
    Theta,
    ThetaTheta,
    apply_with_status,
    product,
)
from .state import BasisState, Superposition, merge, unit

DEFAULT_STEP_LIMIT = 10**6
DEFAULT_FUEL = DEFAULT_FUEL_BUDGET
NORM_TOLERANCE = 1e-9

_DEFINITION_LABEL = "program"
_JUMPS = (Opcode.TRA, Opcode.TZR)

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


@dataclass(frozen=True)
class Program:
    """An assembled program: 1-indexed instructions, symbol and pool maps."""

    instructions: tuple[Instruction, ...]
    symbols: dict[str, int]
    pool: dict[int, int]

    def __len__(self) -> int:
        return len(self.instructions)

    def instruction(self, pc: int) -> Instruction:
        return self.instructions[pc - 1]


@dataclass(frozen=True)
class RunResult:
    """Final superposition with per-term halt flags and a step count.

    For interpreter runs ``steps_executed`` counts executed instructions;
    for algebraic runs it counts primitive operator applications.
    """

    final: Superposition
    halted: tuple[bool, ...]
    steps_executed: int

    def sole(self) -> tuple[complex, BasisState]:
        if len(self.final.terms) != 1:
            raise ValueError(f"expected a single term, have {len(self.final.terms)}")
        return self.final.terms[0]


def build_pool(instructions: tuple[Instruction, ...], first_free: int) -> dict[int, int]:
    """Assign one pool address per distinct immediate value, after ``first_free``."""
    values = sorted(
        {
            ins.operand.value
            for ins in instructions
            if ins.operand is not None and ins.operand.kind is OperandKind.IMMEDIATE
        }
    )
    return {first_free + i: v for i, v in enumerate(values)}


def _parse_operand(opcode: Opcode, token: str | None, symbols: dict[str, int], line: int) -> Operand | None:
    allowed = OPERAND_KINDS[opcode]
    if not allowed:
        if token is not None:
            raise ParseError(f"{opcode.value} takes no operand", line=line)
        return None
    if token is None:
        raise ParseError(f"{opcode.value} requires an operand", line=line)
    if OperandKind.COUNT in allowed:
        if not _INT_RE.match(token):
            raise ParseError(f"SHIFT count must be a signed integer, got {token!r}", line=line)
        return count(int(token))
    if token.startswith("#"):
        if OperandKind.IMMEDIATE not in allowed:
            raise ParseError(f"{opcode.value} does not accept an immediate", line=line)
        body = token[1:]
        if not body.isdigit():
            raise ParseError(f"malformed immediate {token!r}", line=line)
        return immediate(int(body))
    if token.startswith("[") and token.endswith("]"):
        body = token[1:-1]
        if not body.isdigit():
            raise ParseError(f"malformed raw address {token!r}", line=line)
        return address(int(body))
    if not _SYMBOL_RE.match(token):
        raise ParseError(f"malformed operand {token!r}", line=line)
    if token not in symbols:
        symbols[token] = len(symbols)
    return address(symbols[token])


def parse_program(text: str) -> Program:
    """Assemble program text; see the module docstring for the format."""
    instructions: list[Instruction] = []
    symbols: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens and _INT_RE.match(tokens[0]):
            tokens = tokens[1:]
        if not tokens:
            raise ParseError("line number without an instruction", line=lineno)
        name = tokens[0].upper()
        try:
            opcode = Opcode(name)
        except ValueError:
            raise ParseError(f"unknown opcode {tokens[0]!r}", line=lineno) from None
        if len(tokens) > 2:
            raise ParseError(f"too many operands for {name}", line=lineno)
        operand = _parse_operand(opcode, tokens[1] if len(tokens) > 1 else None, symbols, lineno)
        instructions.append(Instruction(opcode, operand))
    if not instructions:
        raise ParseError("empty program", line=1)
    if not any(ins.opcode is Opcode.HALT for ins in instructions):
        raise ParseError("program has no HALT", line=len(text.splitlines()) or 1)
    first_free = max(symbols.values(), default=-1) + 1
    pool = build_pool(tuple(instructions), first_free)
    return Program(tuple(instructions), symbols, pool)


def disassemble(program: Program, raw_addresses: bool = False) -> str:
    """Listing that reassembles to an equivalent program.

    With ``raw_addresses`` every address operand prints as ``[k]``; use that
    when address values are baked into immediates (pointer code), since
    symbolic round trips would renumber them.
    """
    reverse: dict[int, str] = {}
    for name, addr in program.symbols.items():
        reverse.setdefault(addr, name)
    lines = []
    if program.symbols:
        table = " ".join(f"{name}={addr}" for name, addr in program.symbols.items())
        lines.append(f"; symbols: {table}")
    if program.pool:
        table = " ".join(f"{addr}=#{value}" for addr, value in sorted(program.pool.items()))
        lines.append(f"; pool: {table}")
    for i, ins in enumerate(program.instructions, start=1):
        text = f"{i:>3} {ins.opcode.value}"
        if ins.operand is not None:
            if ins.operand.kind is OperandKind.ADDRESS and not raw_addresses:
                name = reverse.get(ins.operand.value)
                text += f" {name}" if name else f" [{ins.operand.value}]"
            else:
                text += f" {ins.operand}"
        lines.append(text)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Classical interpreter


def interpret(program: Program, input_values: list[int], step_limit: int = DEFAULT_STEP_LIMIT) -> RunResult:
    """Big-step classical execution. The program counter starts at one."""
    if step_limit <= 0:
        raise ValueError(f"step limit must be positive, got {step_limit}")
    mem = dict(program.pool)
    register = 0
    pc = 1
    cursor = 0
    output: list[int] = []
    steps = 0
    n = len(program.instructions)
    while True:
        if not 1 <= pc <= n:
            raise PcOutOfRange(f"program counter {pc} outside [1, {n}]")
        if steps >= step_limit:
            raise StepLimitExceeded(f"exceeded {step_limit} steps")
        ins = program.instruction(pc)
        steps += 1
        op = ins.opcode
        if op is Opcode.HALT:
            break
        operand_value = None
        if ins.operand is not None:
            if ins.operand.kind is OperandKind.ADDRESS:
                operand_value = mem.get(ins.operand.value, 0)
            else:
                operand_value = ins.operand.value
        if op is Opcode.LOAD:
            register = operand_value
        elif op is Opcode.STORE:
            mem[ins.operand.value] = register
        elif op in REGISTER_OPCODES:
            register = register_action(op, register, operand_value)
        elif op is Opcode.INPUT:
            if cursor >= len(input_values):
                raise InputExhausted("no input values left")
            mem[ins.operand.value] = input_values[cursor]
            cursor += 1
        elif op is Opcode.OUTPUT:
            output.append(mem.get(ins.operand.value, 0))
        elif op is Opcode.TRA:
            pc = operand_value
            continue
        elif op is Opcode.TZR:
            if register == 0:
                pc = operand_value
                continue
        else:  # pragma: no cover
            raise AssertionError(f"unhandled opcode {op}")
        pc += 1
    final = BasisState(
        register=register,
        pc=pc,
        fuel=0,
        mem=mem,
        input=tuple(input_values[cursor:]),
        output=tuple(output),
    )
    return RunResult(unit(final), (True,), steps)


# ---------------------------------------------------------------------------
# Compilation to operator expressions


def instruction_operator(ins: Instruction) -> OperatorExpr:
    """Operator form of one instruction's value action (no program counter).

    Register instructions act on an immediate directly. LOAD reads memory
    only, so an immediate LOAD raises; the compilers replace each immediate
    with its pool address, keeping the operator layer location-based.
    """
    op, operand = ins.opcode, ins.operand
    if op is Opcode.LOAD:
        if operand.kind is OperandKind.IMMEDIATE:
            raise ValueError("immediate operand needs a constant pool")
        return product(Copy(REGISTER, Mem(operand.value)), Clear(REGISTER))
    if op is Opcode.STORE:
        dst = Mem(operand.value)
        return product(Copy(dst, REGISTER), Clear(dst))
    if op is Opcode.INPUT:
        dst = Mem(operand.value)
        return product(Copy(dst, IN), Clear(dst))
    if op is Opcode.OUTPUT:
        return Copy(OUT, Mem(operand.value))
    if op in REGISTER_OPCODES:
        return InstructionOp(ins)
    raise ValueError(f"{op.value} has no standalone value action")


def _pool_factors(program: Program) -> list[OperatorExpr]:
    return [
        SetValue(Mem(addr), Const(value))
        for addr, value in sorted(program.pool.items())
    ]


def _pool_value_to_addr(program: Program) -> dict[int, int]:
    return {value: addr for addr, value in program.pool.items()}


# Subtrees every compile shares. Nodes are frozen, so one copy can stand
# wherever the paper's formulas repeat them.
_NUM_PC = Num(PC)
_CLEAR_PC = Clear(PC)
_HALT = Bra()
_FUEL_MINUS_ONE = ExpSub(Num(FUEL), Const(1))
_FUEL_LEFT = Theta(_FUEL_MINUS_ONE)
_REENTER = Product((RecursiveRef(_DEFINITION_LABEL), SetValue(FUEL, _FUEL_MINUS_ONE)))
_REGISTER_ZERO = ThetaTheta(Num(REGISTER))
_REGISTER_NONZERO = ExpSub(Const(1), _REGISTER_ZERO)


@functools.cache
def _action(opcode: Opcode, kind: OperandKind | None, value: int | None) -> OperatorExpr:
    """Value action of an instruction with no immediate operand; for a
    jump, the copy of its target into the cleared program counter."""
    if opcode in _JUMPS:
        return Copy(PC, Mem(value))
    return instruction_operator(Instruction(opcode, None if kind is None else Operand(kind, value)))


def _pooled_action(ins: Instruction, pool_addr: dict[int, int]) -> OperatorExpr:
    """The action of ``ins``, reading an immediate from its pool address."""
    operand = ins.operand
    if operand is None:
        return _action(ins.opcode, None, None)
    if operand.kind is OperandKind.IMMEDIATE:
        return _action(ins.opcode, OperandKind.ADDRESS, pool_addr[operand.value])
    return _action(ins.opcode, operand.kind, operand.value)


class _Step(NamedTuple):
    """The subtrees of guarded step ``i`` that no program changes."""

    #: ``ThetaTheta(Num(PC) - i)``: 1 exactly when the program counter is i.
    guard: ThetaTheta
    #: ``SetValue(PC, i + 1)``: the advance to the next instruction.
    advance: SetValue
    #: The backward-jump recursion of a jump at step i. It re-enters the
    #: definition when the new program counter is at most i and fuel
    #: remains; forward jumps are covered by the guards of the factors still
    #: to come, so they neither recurse nor spend fuel. The fuel guard reads
    #: the counter before the decrement, so a backward jump with no fuel
    #: leaves the term parked for the runner to report.
    recursion: GuardedPower
    #: The HALT factor of step i.
    halt: GuardedPower
    #: TZR's advance branch: step to i + 1 when the register is nonzero.
    advance_if_nonzero: GuardedPower


@functools.cache
def _step(i: int) -> _Step:
    index = Const(i)
    guard = ThetaTheta(ExpSub(_NUM_PC, index))
    advance = SetValue(PC, Const(i + 1))
    return _Step(
        guard,
        advance,
        GuardedPower(_REENTER, ExpMul(_FUEL_LEFT, Theta(ExpSub(index, _NUM_PC)))),
        GuardedPower(_HALT, guard),
        GuardedPower(advance, ExpMul(_REGISTER_NONZERO, guard)),
    )


def compile_sequential(program: Program) -> OperatorExpr:
    """Right-to-left product for a jump-free program.

    The rightmost factor is instruction one; pool constants are written
    first. Raises :class:`JumpsNotSupported` when TRA or TZR appear.
    """
    if any(ins.opcode in _JUMPS for ins in program.instructions):
        raise JumpsNotSupported("sequential compilation cannot express jumps")
    pool_addr = _pool_value_to_addr(program)
    factors = [
        _HALT if ins.opcode is Opcode.HALT else _pooled_action(ins, pool_addr)
        for ins in program.instructions
    ]
    return product(*reversed(factors), *reversed(_pool_factors(program)))


def compile_guarded(program: Program, fuel: int = DEFAULT_FUEL) -> OperatorExpr:
    """Guarded compilation supporting jumps via a recursive definition.

    Every instruction factor i is wrapped as a guarded power firing only
    when the program counter equals i. The returned expression is
    self-contained: it binds the recursion label, initializes the fuel
    counter to ``fuel``, writes the constant pool, and raises the program
    counter from zero to one before the first pass.

    The subtrees of step i that hold no program data (``_step``) and the
    value action of each distinct instruction (``_action``) are memoized
    per process, so a compile builds only each instruction's guarded factor
    and body. The memos are never freed: steps cost about 1.2 kB each, up
    to the longest program compiled, and actions about 0.5 kB each, one per
    distinct opcode and address.
    """
    if fuel < 0:
        raise ValueError(f"fuel must be nonnegative, got {fuel}")
    pool_addr = _pool_value_to_addr(program)
    factors = []
    for i, ins in enumerate(program.instructions, start=1):
        step, op = _step(i), ins.opcode
        if op is Opcode.HALT:
            factors.append(step.halt)
            continue
        action = _pooled_action(ins, pool_addr)
        if op in _JUMPS:
            # Taken jump: copy the target into the cleared program counter,
            # then recurse if the jump went backward and fuel remains.
            body: OperatorExpr = Product((step.recursion, action, _CLEAR_PC))
            if op is Opcode.TZR:
                # The advance branch re-checks the program counter. Re-entered
                # terms leave their pass, so no term cut by fuel reaches it; the
                # check keeps the compiled form and its dump as the paper builds them.
                body = Product((step.advance_if_nonzero, GuardedPower(body, _REGISTER_ZERO)))
        else:
            body = Product((step.advance, action))
        factors.append(GuardedPower(body, step.guard))
    definition = product(*reversed(factors))
    return product(
        Define(_DEFINITION_LABEL, definition),
        Raise(PC),
        _CLEAR_PC,
        SetValue(FUEL, Const(fuel)),
        *reversed(_pool_factors(program)),
    )


def _run_halted(program: Program, input_values: list[int], fuel: int, stats: EvalStats) -> Superposition:
    """The halted terms of a guarded run; any term left live is an error."""
    expr = compile_guarded(program, fuel)
    start = unit(BasisState(input=tuple(input_values)))
    live, halted = apply_with_status(expr, start, fuel_budget=fuel, stats=stats)
    if live:
        state, n = live.terms[0][1], len(program.instructions)
        if 1 <= state.pc <= n:
            raise FuelExhausted(f"term stalled at step {state.pc} with fuel {state.fuel}")
        raise PcOutOfRange(f"program counter {state.pc} outside [1, {n}]")
    return halted


def run_algebraic(program: Program, input_values: list[int], fuel: int = DEFAULT_FUEL) -> RunResult:
    """Run a program through its guarded operator compilation.

    Deterministic programs end as a single basis term with amplitude
    modulus one. A program still recursing when fuel runs out raises
    :class:`FuelExhausted`.
    """
    stats = EvalStats()
    final = _run_halted(program, input_values, fuel, stats)
    return RunResult(final, (True,) * len(final), stats.primitive_ops)


def run_superposed(
    programs: list[tuple[complex, Program]],
    input_values: list[int],
    fuel: int = DEFAULT_FUEL,
) -> RunResult:
    """Run an amplitude-weighted superposition of programs on one input.

    The amplitudes must carry unit total weight; each program runs on the
    same initial state and the outcomes combine as one superposition, so
    programs reaching the same final state interfere.
    """
    total = sum(abs(complex(amp)) ** 2 for amp, _ in programs)
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise NormViolation(f"squared amplitudes sum to {total!r}, expected 1")
    stats = EvalStats()
    final = merge(
        (complex(amp) * term_amp, state)
        for amp, prog in programs
        for term_amp, state in _run_halted(prog, input_values, fuel, stats)
    )
    return RunResult(final, (True,) * len(final), stats.primitive_ops)

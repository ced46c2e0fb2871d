"""Instruction set: opcodes, operand forms, and value-level semantics.

The arithmetic helpers here are the single source of truth for what each
instruction does to the register; both the classical interpreter and the
operator-expression evaluator call them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DivideByZero, SubtractUnderflow
from .state import BasisState


class Opcode(enum.Enum):
    LOAD = "LOAD"
    STORE = "STORE"
    SHIFT = "SHIFT"
    ADD = "ADD"
    SUBTRACT = "SUBTRACT"
    MULTIPLY = "MULTIPLY"
    DIVIDE = "DIVIDE"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    TRA = "TRA"
    TZR = "TZR"
    HALT = "HALT"

    # Members are singletons, so identity hashing agrees with equality and
    # runs in C, unlike ``Enum.__hash__``.
    __hash__ = object.__hash__


class OperandKind(enum.Enum):
    ADDRESS = "address"      # a memory location
    IMMEDIATE = "immediate"  # a literal value, written #k in assembly
    COUNT = "count"          # a signed shift count

    __hash__ = object.__hash__


@dataclass(frozen=True)
class Operand:
    kind: OperandKind
    value: int

    def __str__(self) -> str:
        if self.kind is OperandKind.IMMEDIATE:
            return f"#{self.value}"
        if self.kind is OperandKind.COUNT:
            return str(self.value)
        return f"[{self.value}]"


def address(addr: int) -> Operand:
    return Operand(OperandKind.ADDRESS, addr)


def immediate(value: int) -> Operand:
    return Operand(OperandKind.IMMEDIATE, value)


def count(value: int) -> Operand:
    return Operand(OperandKind.COUNT, value)


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    operand: Operand | None = None


# Operand kinds each opcode accepts. NOT and HALT take none.
OPERAND_KINDS: dict[Opcode, frozenset[OperandKind]] = {
    Opcode.LOAD: frozenset({OperandKind.ADDRESS, OperandKind.IMMEDIATE}),
    Opcode.STORE: frozenset({OperandKind.ADDRESS}),
    Opcode.SHIFT: frozenset({OperandKind.COUNT}),
    Opcode.ADD: frozenset({OperandKind.ADDRESS, OperandKind.IMMEDIATE}),
    Opcode.SUBTRACT: frozenset({OperandKind.ADDRESS, OperandKind.IMMEDIATE}),
    Opcode.MULTIPLY: frozenset({OperandKind.ADDRESS}),
    Opcode.DIVIDE: frozenset({OperandKind.ADDRESS}),
    Opcode.AND: frozenset({OperandKind.ADDRESS}),
    Opcode.OR: frozenset({OperandKind.ADDRESS}),
    Opcode.NOT: frozenset(),
    Opcode.INPUT: frozenset({OperandKind.ADDRESS}),
    Opcode.OUTPUT: frozenset({OperandKind.ADDRESS}),
    Opcode.TRA: frozenset({OperandKind.ADDRESS}),
    Opcode.TZR: frozenset({OperandKind.ADDRESS}),
    Opcode.HALT: frozenset(),
}

#: Opcodes that act purely on the register value (amplitude-one actions in
#: the operator layer).
REGISTER_OPCODES = frozenset(
    {
        Opcode.SHIFT,
        Opcode.ADD,
        Opcode.SUBTRACT,
        Opcode.MULTIPLY,
        Opcode.DIVIDE,
        Opcode.AND,
        Opcode.OR,
        Opcode.NOT,
    }
)


def bitwise_not(value: int) -> int:
    """Complement through the highest set bit; 0 maps to 0.

    The exchange of ones and zeroes stops at the most significant one bit,
    so the result never gains bits the operand did not have.
    """
    if value == 0:
        return 0
    return value ^ ((1 << value.bit_length()) - 1)


def shift_value(value: int, k: int) -> int:
    """Multiply by 2^k for k >= 0, floor-divide by 2^-k for k < 0."""
    if k >= 0:
        return value << k
    return value >> (-k)


def register_action(opcode: Opcode, register: int, operand_value: int | None) -> int:
    """New register value after an arithmetic or bitwise instruction."""
    if opcode is Opcode.SHIFT:
        return shift_value(register, operand_value)
    if opcode is Opcode.ADD:
        return register + operand_value
    if opcode is Opcode.SUBTRACT:
        if register < operand_value:
            raise SubtractUnderflow(
                f"SUBTRACT needs register >= operand, got {register} < {operand_value}"
            )
        return register - operand_value
    if opcode is Opcode.MULTIPLY:
        return register * operand_value
    if opcode is Opcode.DIVIDE:
        if operand_value == 0:
            raise DivideByZero("DIVIDE by zero")
        return register // operand_value
    if opcode is Opcode.AND:
        return register & operand_value
    if opcode is Opcode.OR:
        return register | operand_value
    if opcode is Opcode.NOT:
        return bitwise_not(register)
    raise ValueError(f"{opcode.value} is not a register action")


def apply_to_state(instr: Instruction, state: BasisState) -> BasisState:
    """Apply a register-opcode instruction to a basis state, amplitude one."""
    if instr.opcode not in REGISTER_OPCODES:
        raise ValueError(
            f"only register instructions act directly on states, got {instr.opcode.value}"
        )
    operand_value: int | None = None
    if instr.operand is not None:
        if instr.operand.kind is OperandKind.ADDRESS:
            operand_value = state.mem_value(instr.operand.value)
        else:
            operand_value = instr.operand.value
    return state.with_register(register_action(instr.opcode, state.register, operand_value))

"""Runs of deterministic leaves on one pending state.

A product applies each run of consecutive deterministic leaves that one
live term meets to a ``PendingState`` and records one basis state at the
end. These tests check the pending state's update interface against
``BasisState``'s, every such run against ``hide_leaves`` (each leaf wrapped
as a one-term ``Sum``, so it runs and merges on its own), the errors a run
raises at each position, and the number of records a counting loop makes.
"""

import random
import struct

import pytest

from fockvm import qasm, state
from fockvm.errors import (
    CopyOntoNonzero,
    DivideByZero,
    InputExhausted,
    MachineError,
    NegativeExponent,
    SubtractUnderflow,
)
from fockvm.isa import Instruction, Opcode, address, immediate
from fockvm.operators import (
    FUEL,
    IN,
    OUT,
    PC,
    REGISTER,
    Clear,
    Const,
    Copy,
    Deterministic,
    EvalStats,
    GuardedPower,
    InstructionOp,
    Lower,
    Mem,
    Num,
    NumberOp,
    Product,
    SetValue,
    Theta,
    ThetaTheta,
    _dispatch,
)
from fockvm.state import DROP_TOLERANCE, BasisState, PendingState, merge
from test_guard_index import hide_leaves
from test_qasm import COUNTING_LOOP


def evaluate(expr, terms):
    """The live terms of ``expr`` on ``terms``, amplitudes as the bytes of
    their two doubles, with the primitive count; or the error's type and
    message with the count reached."""
    stats = EvalStats()
    try:
        live = _dispatch(expr, list(terms), {}, 0, DROP_TOLERANCE, stats, [])
    except MachineError as error:
        return type(error), str(error), stats.primitive_ops
    return [(struct.pack("<dd", a.real, a.imag), s) for a, s in live], stats.primitive_ops


class TestPendingStateInterface:
    """Every update sequence leaves a pending state that records the state
    ``BasisState``'s own updates build, and raises where they raise."""

    UPDATES = [
        lambda s, rng: s.with_register(rng.randrange(0, 9)),
        lambda s, rng: s.with_pc(rng.randrange(0, 9)),
        lambda s, rng: s.with_fuel(rng.randrange(0, 9)),
        lambda s, rng: s.with_mem(rng.randrange(0, 5), rng.choice([0, 0, 1, 7])),
        lambda s, rng: s.with_mem(rng.randrange(0, 5), s.mem_value(rng.randrange(0, 5)) + 1),
        lambda s, rng: s.append_output(s.register),
        lambda s, rng: s.pop_input()[1],
        lambda s, rng: s.with_mem(rng.choice([0, -1]), rng.choice([1, -2])),
        lambda s, rng: rng.choice([s.with_register, s.with_pc, s.with_fuel])(rng.choice([-1, 1.0, True])),
        lambda s, rng: s.append_output(-3),
    ]

    def test_updates_match_basis_state_updates(self):
        rng = random.Random(4211)
        raised = set()
        for _ in range(600):
            start = BasisState(register=2, mem={1: 3, 4: 5}, input=(6, 0), output=(1,))
            seed = rng.randrange(1 << 30)
            steps = [rng.randrange(len(self.UPDATES)) for _ in range(rng.randrange(1, 8))]
            outcomes = []
            for s in (start, PendingState(start)):
                picks = random.Random(seed)
                try:
                    for step in steps:
                        s = self.UPDATES[step](s, picks)
                except (TypeError, ValueError, InputExhausted) as error:
                    outcomes.append((type(error), str(error)))
                    continue
                outcomes.append(s if isinstance(s, BasisState) else s.record())
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], tuple):
                raised.add(outcomes[0][0])
        assert raised == {TypeError, ValueError, InputExhausted}

    def test_a_zero_removes_the_cell_and_reads_see_pending_writes(self):
        s = PendingState(BasisState(mem={1: 3, 2: 4}))
        assert s.with_mem(1, 0).with_mem(3, 9).with_mem(3, 8) is s
        assert (s.mem_value(1), s.mem_value(3)) == (0, 8)
        assert s.record() == BasisState(mem={2: 4, 3: 8})


def leaf(rng: random.Random):
    """A deterministic leaf over a small machine: registers, pc, fuel,
    memory cells 0-3, and both streams."""
    cell = Mem(rng.randrange(0, 4))
    src = rng.choice([REGISTER, Mem(rng.randrange(0, 4)), IN])
    roll = rng.random()
    if roll < 0.25:
        return Clear(rng.choice([cell, cell, REGISTER, PC]))
    if roll < 0.5:
        return Copy(rng.choice([cell, cell, REGISTER, OUT]), src if rng.random() < 0.8 else Mem(0))
    if roll < 0.75:
        value = rng.choice(
            [Const(rng.randrange(0, 3)), Num(cell) + 1, Num(cell) - Num(REGISTER), Num(FUEL) - 1]
        )
        return SetValue(rng.choice([cell, REGISTER, PC, FUEL]), value)
    opcode = rng.choice([Opcode.ADD, Opcode.SUBTRACT, Opcode.MULTIPLY, Opcode.DIVIDE, Opcode.AND, Opcode.OR])
    operand = immediate(rng.randrange(0, 4)) if rng.random() < 0.4 else address(rng.randrange(0, 4))
    if opcode in (Opcode.MULTIPLY, Opcode.DIVIDE, Opcode.AND, Opcode.OR):
        operand = address(operand.value)
    return InstructionOp(Instruction(opcode, operand))


def factor(rng: random.Random):
    """Mostly deterministic leaves; otherwise a factor that can change the
    amplitude, annihilate a term or branch on it."""
    roll = rng.random()
    if roll < 0.75:
        return leaf(rng)
    cell = Mem(rng.randrange(0, 4))
    if roll < 0.85:
        return NumberOp(rng.choice([cell, REGISTER]))
    if roll < 0.9:
        return Lower(cell)
    base = Product(tuple(leaf(rng) for _ in range(rng.randrange(1, 4))))
    return GuardedPower(base, rng.choice([ThetaTheta(Num(cell)), Theta(Num(REGISTER) - 2), Const(1)]))


def machine(rng: random.Random) -> BasisState:
    return BasisState(
        register=rng.randrange(0, 4),
        fuel=rng.randrange(0, 3),
        mem={a: rng.randrange(0, 3) for a in range(4)},
        input=tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 3))),
    )


class TestRunsMatchHiddenLeaves:
    def test_random_products(self):
        rng = random.Random(9120)
        seen = set()
        for _ in range(1500):
            expr = Product(tuple(factor(rng) for _ in range(rng.randrange(1, 9))))
            a, b = machine(rng), machine(rng)
            inputs = [
                [(1.0 + 0j, a)],
                [(complex(rng.choice([0.6, 1e-13, complex(0.8, -0.0)])), a)],
                list(merge([(0.6, a), (-0.8j, b)]).terms),
                list(merge([(0.6, a), (0.8, a.with_mem(0, 0 if a.mem_value(0) else 1))]).terms),
            ]
            for terms in inputs:
                got = evaluate(expr, terms)
                assert got == evaluate(hide_leaves(expr), terms), expr
                seen.add(got[0] if isinstance(got[0], type) else len(got[0]))
        # Every error a leaf raises, and results of zero, one and two terms.
        assert {CopyOntoNonzero, NegativeExponent, SubtractUnderflow, DivideByZero, InputExhausted} <= seen
        assert {0, 1, 2} <= seen


#: Leaves that never raise on the start state below, in application order.
HARMLESS = [
    SetValue(Mem(1), Num(REGISTER) + 1),
    Copy(OUT, Mem(1)),
    InstructionOp(Instruction(Opcode.ADD, immediate(2))),
    SetValue(PC, Const(3)),
]
#: Each raises on the start state whatever the harmless leaves did before it.
RAISING = [
    (Copy(Mem(5), REGISTER), CopyOntoNonzero),
    (SetValue(Mem(6), Num(REGISTER) - 100), NegativeExponent),
    (InstructionOp(Instruction(Opcode.SUBTRACT, immediate(100))), SubtractUnderflow),
    (InstructionOp(Instruction(Opcode.DIVIDE, address(9))), DivideByZero),
    (Copy(Mem(8), IN), InputExhausted),
]


class TestErrorsInARun:
    START = BasisState(register=3, mem={5: 7})

    @pytest.mark.parametrize("raising, error", RAISING, ids=lambda x: getattr(x, "__name__", ""))
    @pytest.mark.parametrize("position", range(len(HARMLESS) + 1))
    @pytest.mark.parametrize("amp", [0.6 + 0j, 1e-13 + 0j], ids=["kept", "dropped"])
    @pytest.mark.parametrize("tail", [False, True], ids=["whole", "then-number"])
    def test_same_error_and_count(self, raising, error, position, amp, tail):
        applied = HARMLESS[:position] + [raising] + HARMLESS[position:]
        # A number operator after the run makes the run a part of the plan.
        factors = ([NumberOp(REGISTER)] if tail else []) + applied[::-1]
        expr = Product(tuple(factors))
        got = evaluate(expr, [(amp, self.START)])
        assert got == evaluate(hide_leaves(expr), [(amp, self.START)])
        if amp == 0.6 or position == 0:
            # The first leaf runs before the drop; the rest only on a kept term.
            assert got[0] is error and got[2] == position + 1
        else:
            assert got == ([], 1)


class Rebuild(Deterministic):
    """A leaf that breaks the image contract: it builds a new basis state
    instead of updating the one it is given."""

    def image(self, state):
        return BasisState(register=state.register + 1)


def test_a_leaf_that_builds_its_own_state_is_not_lost_silently():
    expr = Product((Rebuild(), Clear(Mem(5))))
    with pytest.raises(AttributeError):
        evaluate(expr, [(1.0 + 0j, BasisState(mem={5: 7}))])


def test_one_record_per_retired_instruction(monkeypatch):
    program = qasm.parse_program(COUNTING_LOOP)
    records = 0
    record = state._record

    def counting(*fields):
        nonlocal records
        records += 1
        return record(*fields)

    retired = qasm.interpret(program, [100, 4, 13]).steps_executed
    monkeypatch.setattr(state, "_record", counting)
    qasm.run_algebraic(program, [100, 4, 13], fuel=101)
    assert retired > 900 and records <= 1.2 * retired

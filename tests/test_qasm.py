import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockvm.errors import (
    DivideByZero,
    FuelExhausted,
    InputExhausted,
    JumpsNotSupported,
    NormViolation,
    ParseError,
    PcOutOfRange,
    StepLimitExceeded,
    SubtractUnderflow,
)
from fockvm.isa import Opcode, OperandKind, bitwise_not, shift_value
from fockvm.operators import Bra, Clear, Copy, Define, GuardedPower, IN, Mem, Product, apply_expr, product
from fockvm.qasm import (
    compile_guarded,
    compile_sequential,
    interpret,
    parse_program,
    run_algebraic,
    run_superposed,
)
from fockvm.state import BasisState, unit

ADD_PROGRAM = """
; add two inputs
1 INPUT x
2 INPUT y
3 LOAD x
4 ADD y
5 STORE z
6 OUTPUT z
7 HALT
"""

TZR_PROGRAM = """
1 INPUT x
2 INPUT y
3 LOAD x
4 TZR y
5 ADD y
6 STORE z
7 OUTPUT z
8 HALT
"""


class TestParser:
    def test_add_program_symbols(self):
        p = parse_program(ADD_PROGRAM)
        assert len(p.instructions) == 7
        assert p.symbols == {"x": 0, "y": 1, "z": 2}
        assert p.pool == {}

    def test_line_numbers_optional(self):
        with_numbers = parse_program(ADD_PROGRAM)
        without = parse_program(
            "\n".join(line.split(None, 1)[1] for line in ADD_PROGRAM.strip().splitlines()[1:])
        )
        assert with_numbers.instructions == without.instructions

    def test_not_takes_no_operand(self):
        with pytest.raises(ParseError):
            parse_program("NOT 5\nHALT\n")

    def test_immediate(self):
        p = parse_program("ADD #1\nHALT\n")
        operand = p.instructions[0].operand
        assert operand.kind is OperandKind.IMMEDIATE and operand.value == 1
        assert p.pool == {0: 1}

    def test_immediate_not_everywhere(self):
        with pytest.raises(ParseError):
            parse_program("MULTIPLY #2\nHALT\n")

    def test_shift_signed_count(self):
        p = parse_program("SHIFT -2\nHALT\n")
        assert p.instructions[0].operand.value == -2

    def test_raw_address_operand(self):
        p = parse_program("LOAD [7]\nHALT\n")
        assert p.instructions[0].operand.value == 7

    def test_comments_and_blanks(self):
        p = parse_program("; whole line\nLOAD x ; trailing\n\nHALT\n")
        assert len(p.instructions) == 2

    def test_unknown_opcode(self):
        with pytest.raises(ParseError) as err:
            parse_program("FROB x\nHALT\n")
        assert err.value.line == 1

    def test_requires_halt(self):
        with pytest.raises(ParseError):
            parse_program("LOAD x\n")

    def test_pool_is_deduplicated_and_after_symbols(self):
        p = parse_program("LOAD x\nADD #5\nSUBTRACT #5\nADD #2\nHALT\n")
        assert p.symbols == {"x": 0}
        assert p.pool == {1: 2, 2: 5}


class TestInterpret:
    def test_add_program(self):
        # Hand trace: x=2, y=3, register 2+3, stored and printed.
        result = interpret(parse_program(ADD_PROGRAM), [2, 3])
        amp, state = result.sole()
        assert state.output == (5,)
        assert state.register == 5
        assert state.mem == ((0, 2), (1, 3), (2, 5))
        assert result.steps_executed == 7

    def test_shift_doubles(self):
        r = interpret(parse_program("LOAD #7\nSHIFT 1\nSTORE a\nOUTPUT a\nHALT\n"), [])
        assert r.sole()[1].output == (14,)

    def test_and_or(self):
        text = "INPUT a\nLOAD #5\n{op} a\nSTORE b\nOUTPUT b\nHALT\n"
        assert interpret(parse_program(text.format(op="AND")), [3]).sole()[1].output == (1,)
        assert interpret(parse_program(text.format(op="OR")), [3]).sole()[1].output == (7,)

    def test_not(self):
        r = interpret(parse_program("LOAD #5\nNOT\nSTORE a\nOUTPUT a\nHALT\n"), [])
        assert r.sole()[1].output == (2,)

    def test_tzr_jump_reexecutes_instruction_two(self):
        # x = 0 and y = 2 jump back to the second instruction, which
        # consumes another input; the run needs four inputs to finish.
        result = interpret(parse_program(TZR_PROGRAM), [0, 2, 5])
        amp, state = result.sole()
        assert state.output == (5,)
        assert state.input == ()

    def test_tzr_jump_forward(self):
        result = interpret(parse_program(TZR_PROGRAM), [0, 6])
        assert result.sole()[1].output == (0,)

    def test_tzr_no_jump_when_register_nonzero(self):
        result = interpret(parse_program(TZR_PROGRAM), [3, 4])
        assert result.sole()[1].output == (7,)

    def test_tzr_self_jump_exceeds_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            interpret(parse_program(TZR_PROGRAM), [0, 4], step_limit=100)

    def test_errors(self):
        with pytest.raises(SubtractUnderflow):
            interpret(parse_program("LOAD #1\nSUBTRACT #2\nHALT\n"), [])
        with pytest.raises(DivideByZero):
            interpret(parse_program("LOAD #1\nDIVIDE a\nHALT\n"), [])
        with pytest.raises(InputExhausted):
            interpret(parse_program("INPUT a\nHALT\n"), [])
        with pytest.raises(PcOutOfRange):
            interpret(parse_program("INPUT a\nLOAD b\nTRA a\nHALT\n"), [99])

    def test_straight_line_steps_count_every_instruction(self):
        program = parse_program("LOAD #1\nADD #1\nSTORE a\nHALT\n")
        assert interpret(program, []).steps_executed == 4


class TestValueSemantics:
    @given(st.integers(0, 2**64), st.integers(0, 12))
    def test_shift_right_multiplies(self, v, k):
        assert shift_value(v, k) == v * 2**k

    @given(st.integers(0, 2**64), st.integers(0, 12))
    def test_shift_left_floor_divides(self, v, k):
        assert shift_value(v, -k) == v // 2**k

    @given(st.integers(1, 2**64))
    def test_not_is_mask_xor(self, v):
        mask = 2 ** v.bit_length() - 1
        assert bitwise_not(v) == v ^ mask
        assert bitwise_not(v) < 2 ** v.bit_length()

    def test_not_examples(self):
        assert bitwise_not(5) == 2
        assert bitwise_not(2) == 1
        assert bitwise_not(0) == 0


class TestCompileSequential:
    def test_add_program_structure(self):
        expr = compile_sequential(parse_program(ADD_PROGRAM))
        assert isinstance(expr, Product)
        factors = expr.factors
        assert len(factors) == 7
        assert factors[0] == Bra()
        assert factors[-1] == product(Copy(Mem(0), IN), Clear(Mem(0)))

    def test_halt_only_program_is_bare_bra(self):
        assert compile_sequential(parse_program("HALT\n")) == Bra()

    def test_jumps_rejected(self):
        with pytest.raises(JumpsNotSupported):
            compile_sequential(parse_program(TZR_PROGRAM))

    def test_matches_interpreter(self):
        program = parse_program(ADD_PROGRAM)
        final = apply_expr(compile_sequential(program), unit(BasisState(input=(2, 3))))
        [(amp, state)] = final.terms
        expected = interpret(program, [2, 3]).sole()[1]
        assert state.output == expected.output
        assert state.mem == expected.mem
        assert abs(abs(amp) - 1) <= 1e-12


class TestCompileGuarded:
    def test_eight_guarded_factors(self):
        expr = compile_guarded(parse_program(TZR_PROGRAM), fuel=10)
        define = expr.factors[0]
        assert isinstance(define, Define)
        body = define.body
        assert isinstance(body, Product)
        assert len(body.factors) == 8
        assert all(isinstance(f, GuardedPower) for f in body.factors)

    def test_straight_line_guarded_equals_sequential(self):
        program = parse_program(ADD_PROGRAM)
        guarded = run_algebraic(program, [2, 3])
        sequential = apply_expr(compile_sequential(program), unit(BasisState(input=(2, 3))))
        gs = guarded.sole()[1]
        [(amp, ss)] = sequential.terms
        assert (gs.register, gs.mem, gs.output) == (ss.register, ss.mem, ss.output)

    def test_forward_jump_runs_with_zero_fuel(self):
        with_fuel = run_algebraic(parse_program(TZR_PROGRAM), [0, 6], fuel=10)
        without = run_algebraic(parse_program(TZR_PROGRAM), [0, 6], fuel=0)
        a, b = with_fuel.sole()[1], without.sole()[1]
        assert (a.register, a.mem, a.output) == (b.register, b.mem, b.output)

    def test_backward_jump_consumes_fuel(self):
        result = run_algebraic(parse_program(TZR_PROGRAM), [0, 2, 5], fuel=10)
        amp, state = result.sole()
        assert state.output == (5,)
        assert state.fuel == 9
        assert abs(amp) == 1.0

    def test_divergent_program_exhausts_fuel(self):
        with pytest.raises(FuelExhausted):
            run_algebraic(parse_program(TZR_PROGRAM), [0, 4], fuel=10)

    def test_nested_cut_does_not_trip_the_advance_branch(self):
        # A backward jump cut by fuel exhaustion parks its term, with a
        # nonzero register, inside the loop of an outer conditional jump;
        # the term must not advance past that jump and halt. The program
        # diverges classically, so the operator run must not halt.
        nested = parse_program(
            """
            1 LOAD #9
            2 STORE s
            3 LOAD #6
            4 STORE j
            5 TRA s
            6 LOAD #7
            7 TRA j
            8 HALT
            9 LOAD z
            10 TZR j
            11 HALT
            """
        )
        with pytest.raises(StepLimitExceeded):
            interpret(nested, [], step_limit=500)
        with pytest.raises(FuelExhausted):
            run_algebraic(nested, [], fuel=2)
        with pytest.raises(FuelExhausted):
            run_algebraic(nested, [], fuel=20)

    def test_wild_jump_is_pc_error_like_interpret(self):
        program = parse_program("INPUT a\nLOAD b\nTRA a\nHALT\n")
        with pytest.raises(PcOutOfRange):
            run_algebraic(program, [99], fuel=10)

    def test_input_exhaustion_matches_interpret(self):
        with pytest.raises(InputExhausted):
            run_algebraic(parse_program(TZR_PROGRAM), [0, 2], fuel=10)


OPCODE_POOL = [
    Opcode.LOAD,
    Opcode.STORE,
    Opcode.SHIFT,
    Opcode.ADD,
    Opcode.SUBTRACT,
    Opcode.MULTIPLY,
    Opcode.DIVIDE,
    Opcode.AND,
    Opcode.OR,
    Opcode.NOT,
    Opcode.INPUT,
    Opcode.OUTPUT,
]

VARS = ["a", "b", "c", "d"]


def random_straight_line(rng: random.Random, max_len: int = 20) -> tuple[str, list[int]]:
    lines = []
    inputs = []
    for _ in range(rng.randrange(1, max_len)):
        op = rng.choice(OPCODE_POOL)
        if op is Opcode.SHIFT:
            lines.append(f"SHIFT {rng.randrange(-4, 5)}")
        elif op is Opcode.NOT:
            lines.append("NOT")
        elif op is Opcode.INPUT:
            lines.append(f"INPUT {rng.choice(VARS)}")
            inputs.append(rng.randrange(0, 10**6))
        elif op in {Opcode.LOAD, Opcode.ADD, Opcode.SUBTRACT} and rng.random() < 0.3:
            lines.append(f"{op.value} #{rng.randrange(0, 10**6)}")
        else:
            lines.append(f"{op.value} {rng.choice(VARS)}")
    lines.append("HALT")
    return "\n".join(lines) + "\n", inputs


def equivalence_corpus(count: int, seed: int = 20240811):
    """Yield programs whose classical run succeeds, with their inputs."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        text, inputs = random_straight_line(rng)
        program = parse_program(text)
        try:
            reference = interpret(program, inputs)
        except (SubtractUnderflow, DivideByZero):
            continue
        produced += 1
        yield program, inputs, reference


class TestOracleEquivalence:
    def test_interpret_equals_algebraic_on_random_programs(self):
        for program, inputs, reference in equivalence_corpus(60):
            algebraic = run_algebraic(program, inputs)
            amp, got = algebraic.sole()
            want = reference.sole()[1]
            assert got.register == want.register
            assert got.mem == want.mem
            assert got.output == want.output
            assert got.input == want.input
            assert abs(abs(amp) - 1) <= 1e-12

    def test_guarded_equals_sequential_on_random_programs(self):
        for program, inputs, reference in equivalence_corpus(30, seed=7):
            seq = apply_expr(
                compile_sequential(program), unit(BasisState(input=tuple(inputs)))
            )
            [(amp, state)] = seq.terms
            want = reference.sole()[1]
            assert state.register == want.register
            assert state.mem == want.mem
            assert state.output == want.output
            assert abs(abs(amp) - 1) <= 1e-12

    def test_interpret_equals_algebraic_on_random_jumpy_programs(self):
        # Programs with random conditional and unconditional jumps. Clean
        # classical halts must match the operator run exactly; classical
        # divergence or runtime errors must surface as machine errors in
        # the operator run too.
        from fockvm.errors import MachineError

        rng = random.Random(555)
        halted = 0
        erring = 0
        for _ in range(400):
            lines = []
            inputs = []
            for _ in range(rng.randrange(3, 14)):
                roll = rng.random()
                if roll < 0.15:
                    lines.append(f"LOAD #{rng.randrange(0, 12)}")
                elif roll < 0.3:
                    lines.append(f"STORE {rng.choice(VARS)}")
                elif roll < 0.4:
                    lines.append(f"INPUT {rng.choice(VARS)}")
                    inputs.append(rng.randrange(0, 12))
                elif roll < 0.55:
                    lines.append(f"{rng.choice(['ADD', 'SUBTRACT'])} #{rng.randrange(0, 4)}")
                elif roll < 0.75:
                    lines.append(f"TZR {rng.choice(VARS)}")
                else:
                    lines.append(f"TRA {rng.choice(VARS)}")
            lines.append("HALT")
            program = parse_program("\n".join(lines) + "\n")
            try:
                reference = interpret(program, inputs, step_limit=200)
            except MachineError as classical_error:
                erring += 1
                with pytest.raises(MachineError):
                    run_algebraic(program, inputs, fuel=250)
                continue
            halted += 1
            amp, got = run_algebraic(program, inputs, fuel=250).sole()
            want = reference.sole()[1]
            assert got.register == want.register
            assert got.mem == want.mem
            assert got.output == want.output
            assert got.pc == want.pc
            assert abs(abs(amp) - 1) <= 1e-12
        assert halted >= 20 and erring >= 20


COUNTING_LOOP = """
; acc = n + (n-1) + ... + 1; inputs: n, loop-top index, exit index
INPUT n
INPUT top
INPUT done
LOAD n
TZR done
LOAD acc
ADD n
STORE acc
LOAD n
SUBTRACT #1
STORE n
TRA top
OUTPUT acc
HALT
"""


NESTED_JUMPS = """
; inputs 3, 9: TZR t1 jumps back to step 3 once, TZR t7 back to step 9 once
INPUT t1
INPUT t7
LOAD f
STORE g
LOAD #1
STORE f
LOAD g
TZR t1
LOAD h
ADD #1
STORE h
SUBTRACT #1
TZR t7
HALT
"""


def assert_equals_interpret(program, inputs, fuel):
    amp, got = run_algebraic(program, inputs, fuel=fuel).sole()
    want = interpret(program, inputs).sole()[1]
    assert got.register == want.register
    assert got.mem == want.mem
    assert got.input == want.input
    assert got.output == want.output
    assert abs(abs(amp) - 1) <= 1e-12


class TestFuel:
    """A run allows exactly ``fuel`` backward jumps and has no other depth limit."""

    def test_nested_jumps_spend_one_fuel_unit_each(self):
        # With fuel 1 the jump back from step 13 finds no fuel, so the term
        # stalls at step 9. It must not run on through steps 9-14 of the
        # pass that made the first jump, which would halt it.
        program = parse_program(NESTED_JUMPS)
        with pytest.raises(FuelExhausted):
            run_algebraic(program, [3, 9], fuel=1)
        assert_equals_interpret(program, [3, 9], fuel=2)

    @pytest.mark.parametrize("fuel", [1000, 1001])
    def test_counting_loop_of_1000_iterations_equals_interpret(self, fuel):
        program = parse_program(COUNTING_LOOP)
        assert len(program.instructions) == 14
        assert_equals_interpret(program, [1000, 4, 13], fuel)

    def test_counting_loop_one_fuel_unit_short(self):
        with pytest.raises(FuelExhausted):
            run_algebraic(parse_program(COUNTING_LOOP), [1000, 4, 13], fuel=999)


class TestRunSuperposed:
    def setup_method(self):
        self.writers = [
            parse_program(f"LOAD #{value}\nSTORE a\nHALT\n") for value in (1, 2, 3)
        ]

    def test_three_outcomes(self):
        amp = 3**-0.5
        result = run_superposed([(amp, p) for p in self.writers], [])
        assert len(result.final) == 3
        from fockvm.state import probabilities

        for prob in probabilities(result.final).values():
            assert prob == pytest.approx(1 / 3, abs=1e-12)

    def test_single_program_matches_run_algebraic(self):
        lone = run_superposed([(1.0, self.writers[0])], [])
        direct = run_algebraic(self.writers[0], [])
        assert lone.final == direct.final

    def test_destructive_interference(self):
        amp = 2**-0.5
        result = run_superposed(
            [(amp, self.writers[0]), (complex(-amp), self.writers[0])], []
        )
        assert result.final.terms == ()

    def test_norm_violation(self):
        with pytest.raises(NormViolation):
            run_superposed([(0.5, self.writers[0])], [])

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockvm import operators
from fockvm.errors import (
    CopyOntoNonzero,
    FuelExhausted,
    MachineError,
    NegativeExponent,
    SubtractUnderflow,
    UndefinedReference,
    UnsupportedLocation,
)
from fockvm.isa import Instruction, Opcode, address, count, immediate
from fockvm.operators import (
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
    ExpAdd,
    ExpMul,
    ExpSub,
    GuardedPower,
    Identity,
    InstructionOp,
    Lower,
    Mem,
    Num,
    NumberOp,
    Raise,
    Product,
    RecursiveRef,
    ScalarMul,
    SetValue,
    Sum,
    Theta,
    ThetaTheta,
    apply_expr,
    apply_primitive,
    apply_with_status,
    eval_exponent,
    product,
    scaled,
    sexpr,
    summation,
)
from fockvm.state import DROP_TOLERANCE, BasisState, merge, unit


def split_status(expr, s, **kwargs):
    """(live, halted) terms of an evaluation, each as (amplitude, state) pairs."""
    live, halted = apply_with_status(expr, s, **kwargs)
    return list(live), list(halted)


class TestPrimitives:
    def test_lower_amplitude_is_sqrt(self):
        [(amp, out)] = apply_primitive(Lower(Mem(3)), BasisState(mem={3: 4}))
        assert amp == 2.0
        assert out.mem_value(3) == 3

    def test_lower_annihilates_zero(self):
        assert apply_primitive(Lower(Mem(3)), BasisState()) == []

    def test_raise_amplitude(self):
        [(amp, out)] = apply_primitive(Raise(REGISTER), BasisState(register=2))
        assert amp == complex(math.sqrt(3))
        assert out.register == 3

    def test_number_operator(self):
        [(amp, out)] = apply_primitive(NumberOp(Mem(1)), BasisState(mem={1: 6}))
        assert amp == 6 and out == BasisState(mem={1: 6})

    def test_clear(self):
        [(amp, out)] = apply_primitive(Clear(Mem(3)), BasisState(mem={3: 7}))
        assert amp == 1 and out.mem_value(3) == 0

    def test_copy(self):
        [(amp, out)] = apply_primitive(Copy(Mem(2), Mem(5)), BasisState(mem={5: 9}))
        assert amp == 1
        assert out.mem_value(2) == 9 and out.mem_value(5) == 9

    def test_copy_onto_nonzero_is_error(self):
        with pytest.raises(CopyOntoNonzero):
            apply_primitive(Copy(Mem(2), Mem(5)), BasisState(mem={2: 1, 5: 9}))

    def test_stream_copies(self):
        [(_, out)] = apply_primitive(Copy(Mem(0), IN), BasisState(input=(8, 9)))
        assert out.mem_value(0) == 8 and out.input == (9,)
        [(_, out)] = apply_primitive(Copy(OUT, Mem(1)), BasisState(mem={1: 5}))
        assert out.output == (5,)

    def test_streams_reject_other_primitives(self):
        with pytest.raises(UnsupportedLocation):
            apply_primitive(Raise(IN), BasisState())
        with pytest.raises(UnsupportedLocation):
            apply_primitive(Clear(OUT), BasisState())


    def test_apply_primitive_takes_set_value_and_instructions(self):
        assert apply_primitive(SetValue(Mem(0), Const(4)), BasisState()) == [(1, BasisState(mem={0: 4}))]
        ins = InstructionOp(Instruction(Opcode.ADD, immediate(2)))
        assert apply_primitive(ins, BasisState(register=3)) == [(1, BasisState(register=5))]

    def test_apply_primitive_rejects_composites(self):
        with pytest.raises(TypeError):
            apply_primitive(product(Raise(Mem(0)), Lower(Mem(0))), BasisState())


class TestOverloading:
    def test_product(self):
        assert Raise(Mem(1)) * Lower(Mem(0)) == product(Raise(Mem(1)), Lower(Mem(0)))

    def test_numbers_are_multiples_of_the_identity(self):
        loc = Mem(0)
        assert 1 - NumberOp(loc) == Sum((Identity(), ScalarMul(-1.0 + 0j, NumberOp(loc))))
        assert 0.5 * Raise(loc) == ScalarMul(0.5 + 0j, Raise(loc))
        assert Raise(loc) + 2 == Sum((Raise(loc), ScalarMul(2.0 + 0j, Identity())))
        with pytest.raises(TypeError):
            Raise(loc) + "x"

    def test_non_finite_scalar_fails_at_construction(self):
        with pytest.raises(ValueError):
            ScalarMul(float("nan"), Identity())
        with pytest.raises(ValueError):
            scaled(complex(0, float("inf")), Identity())


class TestExponents:
    def test_thetatheta_at_zero(self):
        assert eval_exponent(ThetaTheta(Num(PC) - 4), BasisState(pc=4)) == 1
        assert eval_exponent(ThetaTheta(Num(PC) - 4), BasisState(pc=5)) == 0

    def test_theta_of_zero_is_one(self):
        assert eval_exponent(Theta(Num(REGISTER)), BasisState(register=0)) == 1
        assert eval_exponent(Theta(Const(-1)), BasisState()) == 0

    def test_arithmetic(self):
        state = BasisState(register=2, mem={4: 3})
        assert eval_exponent(Num(REGISTER) + Num(Mem(4)), state) == 5
        assert eval_exponent(2 * Num(REGISTER) - 1, state) == 3
        assert eval_exponent(ExpMul(Theta(Num(REGISTER) - 2), ExpAdd(Num(Mem(4)), Const(1))), state) == 4

    def test_non_exponent_is_a_type_error(self):
        for bad in (Identity(), 3, ExpSub(Const(1), Identity())):
            with pytest.raises(TypeError, match="not an exponent expression"):
                eval_exponent(bad, BasisState())

    def test_recursion_goes_through_the_module_name(self, monkeypatch):
        from fockvm import operators

        seen = []
        plain = operators.eval_exponent

        def counting(expr, state):
            seen.append(type(expr).__name__)
            return plain(expr, state)

        monkeypatch.setattr(operators, "eval_exponent", counting)
        assert operators.eval_exponent(ThetaTheta(Num(PC) - 4), BasisState(pc=4)) == 1
        assert seen == ["ThetaTheta", "ExpSub", "Num", "Const"]


class TestApplyExpr:
    def test_number_decomposition(self):
        out = apply_expr(product(Raise(REGISTER), Lower(REGISTER)), unit(BasisState(register=5)))
        [(amp, state)] = out.terms
        assert state.register == 5
        assert abs(amp - 5) < 1e-12

    def test_guard_zero_is_identity(self):
        expr = GuardedPower(Raise(PC), ThetaTheta(Num(PC) - 3))
        start = unit(BasisState(pc=2))
        assert apply_expr(expr, start) == start

    def test_guard_one_is_base(self):
        state = unit(BasisState(mem={0: 2}))
        base = Raise(Mem(0))
        assert apply_expr(GuardedPower(base, Const(1)), state) == apply_expr(base, state)

    def test_guard_k_fold(self):
        expr = GuardedPower(InstructionOp(Instruction(Opcode.ADD, immediate(1))), Const(4))
        out = apply_expr(expr, unit(BasisState(register=1)))
        assert out.terms[0][1].register == 5

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            apply_expr(GuardedPower(Identity(), Const(-1)), unit(BasisState()))

    def test_deep_product_chain(self):
        # Nested products run as one flat plan, so depth costs no frames,
        # and only the evaluated product keeps a plan.
        expr = Raise(REGISTER)
        for _ in range(3000):
            expr = Product((Identity(), expr))
        assert apply_expr(expr, unit(BasisState())) == unit(BasisState(register=1))
        assert "_plan" in vars(expr) and "_plan" not in vars(expr.factors[1])

    def test_sum_distributes_and_merges(self):
        s = unit(BasisState(register=1))
        expr = summation(scaled(0.5, Identity()), scaled(0.5, Identity()))
        assert apply_expr(expr, s) == s

    def test_clear_is_idempotent(self):
        s = unit(BasisState(mem={2: 9}))
        once = apply_expr(Clear(Mem(2)), s)
        twice = apply_expr(product(Clear(Mem(2)), Clear(Mem(2))), s)
        assert once == twice

    def test_copy_after_clear_preserves_source(self):
        s = unit(BasisState(mem={0: 4, 1: 6}))
        expr = product(Copy(Mem(0), Mem(1)), Clear(Mem(0)))
        [(_, out)] = apply_expr(expr, s).terms
        assert out.mem_value(1) == 6 and out.mem_value(0) == 6

    def test_set_value(self):
        expr = SetValue(Mem(2), Num(Mem(0)) + Num(Mem(1)))
        [(amp, out)] = apply_expr(expr, unit(BasisState(mem={0: 2, 1: 3, 2: 7}))).terms
        assert amp == 1 and out.mem_value(2) == 5

    def test_set_value_zero_equals_clear(self):
        s = unit(BasisState(mem={1: 9}))
        assert apply_expr(SetValue(Mem(1), Const(0)), s) == apply_expr(Clear(Mem(1)), s)

    def test_set_value_negative(self):
        with pytest.raises(NegativeExponent):
            apply_expr(SetValue(Mem(0), Num(Mem(0)) - 1), unit(BasisState()))

    def test_halted_terms_are_inert(self):
        live, halted = apply_with_status(
            product(Raise(Mem(0)), Bra()), unit(BasisState(mem={0: 1}))
        )
        assert not live and len(halted) == 1
        assert halted.terms[0][1].mem_value(0) == 1

    def test_scaled_bra_halts_the_scaled_term(self):
        live, halted = split_status(scaled(0.5, Bra()), unit(BasisState()))
        assert live == [] and halted == [(0.5, BasisState())]

    @pytest.mark.parametrize(
        "op",
        [
            GuardedPower(Raise(Mem(0)), Const(2)),
            InstructionOp(Instruction(Opcode.ADD, address(0))),
            RecursiveRef("step"),
        ],
        ids=["guarded-power", "instruction", "recursive-ref"],
    )
    def test_halted_term_passes_through_unchanged(self, op):
        start = BasisState(register=3, mem={0: 1})
        live, halted = split_status(product(op, Bra()), unit(start), fuel_budget=0)
        assert live == [] and halted == [(1, start)]

    def test_sum_after_bra_does_not_duplicate_halted_terms(self):
        expr = product(summation(Raise(Mem(0)), Lower(Mem(0))), Bra())
        live, halted = split_status(expr, unit(BasisState(mem={0: 1})))
        assert live == [] and halted == [(1, BasisState(mem={0: 1}))]

    def test_instruction_action(self):
        expr = InstructionOp(Instruction(Opcode.MULTIPLY, address(0)))
        [(amp, out)] = apply_expr(expr, unit(BasisState(register=6, mem={0: 7}))).terms
        assert amp == 1 and out.register == 42

    @given(
        v1=st.integers(0, 6),
        v2=st.integers(0, 6),
        amps1=st.floats(-1, 1, allow_nan=False),
        amps2=st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_linearity(self, v1, v2, amps1, amps2):
        s1 = BasisState(mem={0: v1})
        s2 = BasisState(mem={0: v2, 1: 1})
        expr = summation(
            product(Raise(Mem(1)), Lower(Mem(0))),
            scaled(0.5, NumberOp(Mem(0))),
        )
        mixed = apply_expr(expr, merge([(amps1, s1), (amps2, s2)], drop_tolerance=0))
        separate = merge(
            [
                (amp * factor, state)
                for amp, base in ((amps1, s1), (amps2, s2))
                for factor, state in apply_expr(expr, unit(base)).terms
            ],
            drop_tolerance=0,
        )
        for _, state in separate.terms:
            assert abs(mixed.amplitude(state) - separate.amplitude(state)) <= 1e-12


def chained_and_hidden(*factors):
    """A product of deterministic leaves, as written and with every leaf
    wrapped as the one-branch ``Sum((leaf,))``, which no plan runs as a
    chain of state images."""
    return Product(factors), Product(tuple(Sum((f,)) for f in factors))


def evaluate(expr, amp, state):
    """Everything one evaluation of ``expr`` on the single term reports:
    the live terms with each amplitude as the bytes of its two doubles, or
    the error's type and message, and the primitive count."""
    stats = EvalStats()
    try:
        live = operators._dispatch(expr, [(amp, state)], {}, 0, DROP_TOLERANCE, stats, [])
    except MachineError as error:
        return type(error), str(error), stats.primitive_ops
    return [(struct.pack("<dd", a.real, a.imag), s) for a, s in live], stats.primitive_ops


class TestDeterministicChain:
    """A product of deterministic leaves on one term runs as a chain of
    state images with one merge; every result matches the leaf-by-leaf walk."""

    def test_only_the_written_product_is_a_chain(self):
        chained, hidden = chained_and_hidden(Clear(Mem(0)), Copy(Mem(0), REGISTER))
        assert operators._plan(chained)[2] and not operators._plan(hidden)[2]

    def test_a_dropped_term_stops_before_a_later_factor_raises(self):
        # The copy would raise: the set value leaves the destination nonzero.
        state = BasisState(register=3)
        for expr in chained_and_hidden(Copy(Mem(0), REGISTER), SetValue(Mem(0), Const(5))):
            assert evaluate(expr, 1e-13 + 0j, state) == ([], 1)
            assert evaluate(expr, 1.0 + 0j, state)[0] is CopyOntoNonzero

    def test_a_signed_zero_comes_out_with_the_same_bits(self):
        ins = InstructionOp(Instruction(Opcode.ADD, immediate(2)))
        results = [evaluate(e, complex(1.0, -0.0), BasisState()) for e in chained_and_hidden(Clear(Mem(1)), ins)]
        assert results[0] == results[1] == ([(struct.pack("<dd", 1.0, 0.0), BasisState(register=2))], 2)

    @pytest.mark.parametrize(
        ("leaf", "error"),
        [
            (SetValue(Mem(0), ExpSub(Const(0), Num(REGISTER))), NegativeExponent),
            (InstructionOp(Instruction(Opcode.SUBTRACT, immediate(5))), SubtractUnderflow),
            (Copy(Mem(2), REGISTER), CopyOntoNonzero),
        ],
        ids=["set-value", "instruction", "copy"],
    )
    def test_errors_match_with_their_count(self, leaf, error):
        # Applied right to left: the copy fills mem 2, then the leaf raises.
        chained, hidden = chained_and_hidden(Clear(Mem(1)), leaf, Copy(Mem(2), REGISTER))
        got = evaluate(chained, 0.6 + 0j, BasisState(register=3))
        assert got == evaluate(hidden, 0.6 + 0j, BasisState(register=3))
        assert got[0] is error and got[2] == 2


class TestRecursion:
    def test_reentry_consumes_budget(self):
        # Count down the register to zero, one re-entry per unit.
        body = GuardedPower(
            product(
                RecursiveRef("loop"),
                InstructionOp(Instruction(Opcode.SUBTRACT, immediate(1))),
            ),
            Theta(Num(REGISTER) - 1),
        )
        expr = Define("loop", body)
        out = apply_expr(expr, unit(BasisState(register=5)), fuel_budget=10)
        assert out.terms[0][1].register == 0

    def test_budget_exhaustion(self):
        body = product(RecursiveRef("loop"), Identity())
        with pytest.raises(FuelExhausted):
            apply_expr(Define("loop", body), unit(BasisState()), fuel_budget=3)

    def test_scaled_reentry_scales_the_reentered_terms(self):
        spend = product(RecursiveRef("loop"), SetValue(FUEL, Num(FUEL) - 1))
        body = GuardedPower(scaled(2, spend), Theta(Num(FUEL) - 1))
        out = apply_expr(Define("loop", body), unit(BasisState(fuel=2)))
        assert out.terms == ((4, BasisState(fuel=0)),)

    def test_unbound_label(self):
        with pytest.raises(UndefinedReference):
            apply_expr(RecursiveRef("nowhere"), unit(BasisState()))


class TestSexpr:
    def test_deterministic_dump(self):
        expr = GuardedPower(
            product(SetValue(PC, Const(2)), Copy(Mem(0), IN)),
            ThetaTheta(Num(PC) - 1),
        )
        text = sexpr(expr)
        assert text == (
            "(GuardedPower (Product (SetValue ProgramCounter 2) "
            "(Copy (Mem 0) In)) (ThetaTheta (Sub (NumberOp ProgramCounter) 1)))"
        )
        assert sexpr(expr) == text

    def test_scalar_formats(self):
        assert sexpr(scaled(0.5, Identity())) == "(ScalarMul 0.5 (Identity))"
        assert sexpr(scaled(1j, Bra())) == "(ScalarMul (0,1) (Bra))"


@pytest.mark.parametrize(
    "node, text",
    [
        (Identity(), "(Identity)"),
        (Raise(REGISTER), "(Raise Register)"),
        (Lower(Mem(3)), "(Lower (Mem 3))"),
        (NumberOp(FUEL), "(NumberOp Fuel)"),
        (Clear(PC), "(Clear ProgramCounter)"),
        (Copy(OUT, Mem(2)), "(Copy Out (Mem 2))"),
        (Copy(Mem(0), IN), "(Copy (Mem 0) In)"),
        (scaled(0.5, Identity()), "(ScalarMul 0.5 (Identity))"),
        (scaled(complex(0.25, -1.5), Bra()), "(ScalarMul (0.25,-1.5) (Bra))"),
        (
            Product((Raise(Mem(0)), Lower(Mem(1)), Identity())),
            "(Product (Raise (Mem 0)) (Lower (Mem 1)) (Identity))",
        ),
        (Sum((Identity(), Bra())), "(Sum (Identity) (Bra))"),
        (
            GuardedPower(Raise(Mem(0)), Theta(Num(PC) - 1)),
            "(GuardedPower (Raise (Mem 0)) (Theta (Sub (NumberOp ProgramCounter) 1)))",
        ),
        (
            SetValue(Mem(2), Num(Mem(0)) + Num(Mem(1))),
            "(SetValue (Mem 2) (Add (NumberOp (Mem 0)) (NumberOp (Mem 1))))",
        ),
        (InstructionOp(Instruction(Opcode.NOT)), "(Instruction NOT)"),
        (InstructionOp(Instruction(Opcode.ADD, address(3))), "(Instruction ADD [3])"),
        (InstructionOp(Instruction(Opcode.ADD, immediate(5))), "(Instruction ADD #5)"),
        (InstructionOp(Instruction(Opcode.SHIFT, count(-2))), "(Instruction SHIFT -2)"),
        (RecursiveRef("program"), "(RecursiveRef program)"),
        (Bra(), "(Bra)"),
        (Define("program", RecursiveRef("program")), "(Define program (RecursiveRef program))"),
        (Const(7), "7"),
        (Num(REGISTER), "(NumberOp Register)"),
        (ExpAdd(Const(1), Num(Mem(4))), "(Add 1 (NumberOp (Mem 4)))"),
        (ExpSub(Num(PC), Const(4)), "(Sub (NumberOp ProgramCounter) 4)"),
        (ExpMul(Const(2), Const(3)), "(Mul 2 3)"),
        (Theta(Const(0)), "(Theta 0)"),
        (ThetaTheta(Num(FUEL) - 1), "(ThetaTheta (Sub (NumberOp Fuel) 1))"),
        (Mem(5), "(Mem 5)"),
        (IN, "In"),
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_sexpr_node_forms(node, text):
    assert sexpr(node) == text


def test_sexpr_rejects_foreign_objects():
    with pytest.raises(TypeError):
        sexpr(object())

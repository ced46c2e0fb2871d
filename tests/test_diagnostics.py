"""Diagnostics and operator API that the rest of the suite never reaches.

Each CLI case pins the exit code and the exact one-line stderr; each
library case pins the argument check by its message.
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from fockvm.cli import main
from fockvm.evolution import build_hop_hamiltonian, evolve
from fockvm.grammar import parse_grammar, transition_probability
from fockvm.operators import (
    Clear,
    Const,
    ExpAdd,
    ExpMul,
    ExpSub,
    Identity,
    Lower,
    Mem,
    Num,
    NumberOp,
    Product,
    ScalarMul,
    Sum,
    apply_expr,
    apply_with_status,
    eval_exponent,
)
from fockvm.qasm import compile_guarded, interpret, parse_program
from fockvm.state import BasisState, sample, unit

ADD = "INPUT x\nINPUT y\nLOAD x\nADD y\nSTORE z\nOUTPUT z\nHALT\n"


@pytest.mark.parametrize(
    "command, name, text, code, err",
    [
        (("assemble",), "a.qasm", "LOAD\n", 2, "parse error: line 1: LOAD requires an operand"),
        (("assemble",), "a.qasm", "SHIFT x\n", 2, "parse error: line 1: SHIFT count must be a signed integer, got 'x'"),
        (("assemble",), "a.qasm", "LOAD #1x\n", 2, "parse error: line 1: malformed immediate '#1x'"),
        (("assemble",), "a.qasm", "LOAD a b\n", 2, "parse error: line 1: too many operands for LOAD"),
        (("qc", "compile"), "a.qc", "input(1);\n", 2, "parse error: line 1, column 7: expected a name, got '1'"),
        (("qc", "compile"), "a.qc", "halt = 3;\n", 2, "parse error: line 1, column 6: expected ';', got '='"),
        (
            ("qc", "compile"), "a.qc", "if (a == 1) goto x;\n", 2,
            "parse error: line 1, column 10: conditions compare against 0",
        ),
        (("grammar", "derive"), "a.g", "rule: a b\n", 2, "parse error: line 1: rule needs the form 'lhs -> rhs'"),
        (("grammar", "derive"), "a.g", "rule:  -> b\n", 2, "parse error: line 1: rule left-hand side is empty"),
    ],
)
def test_file_diagnostic(capsys, tmp_path, command, name, text, code, err):
    path = tmp_path / name
    path.write_text(text)
    assert main([*command, str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "\n"


def test_superpose_term_without_amplitude(capsys, data_dir):
    term = str(data_dir / "add.qasm")
    assert main(["superpose", term]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: term {term!r} needs the form file@amplitude\n"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evolve(build_hop_hamiltonian(3), unit(BasisState()), 0.1, -1), "order must be nonnegative, got -1"),
        (
            lambda: transition_probability(parse_grammar("start: a\nrule: a -> b\n"), "a", "b", -1),
            "max_steps must be nonnegative, got -1",
        ),
        (lambda: compile_guarded(parse_program(ADD), fuel=-1), "fuel must be nonnegative, got -1"),
        (
            lambda: apply_with_status(Identity(), unit(BasisState()), fuel_budget=-1),
            "fuel budget must be nonnegative, got -1",
        ),
        (lambda: sample(unit(BasisState()), -1, seed=0), "count must be nonnegative, got -1"),
        (lambda: interpret(parse_program(ADD), [2, 3], step_limit=0), "step limit must be positive, got 0"),
    ],
)
def test_library_argument_check(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestOperatorArithmetic:
    @pytest.mark.parametrize("n", [0, 1])
    def test_clear_form_with_a_leading_number(self, n):
        loc = Mem(2)
        form = 1 + (Lower(loc) - 1) * NumberOp(loc)
        assert isinstance(form, Sum) and form.terms[0] == Identity()
        assert isinstance(form.terms[1], Product)
        start = unit(BasisState(mem={2: n, 3: 4}))
        assert apply_expr(form, start) == apply_expr(Clear(loc), start)

    def test_exponent_with_a_leading_integer_and_a_product(self):
        state = BasisState(mem={0: 7})
        plus, minus, times = 3 + Num(Mem(0)), 10 - Num(Mem(0)), Num(Mem(0)) * 4
        assert plus == ExpAdd(Const(3), Num(Mem(0)))
        assert minus == ExpSub(Const(10), Num(Mem(0)))
        assert times == ExpMul(Num(Mem(0)), Const(4))
        assert [eval_exponent(e, state) for e in (plus, minus, times)] == [10, 3, 28]

    @pytest.mark.parametrize("number", [1, Fraction(1), 2, Fraction(2), 0.5, 1.5j], ids=repr)
    def test_a_number_on_either_side_is_a_scalar(self, number):
        op, value = Lower(Mem(0)), complex(number)
        assert number * op == ScalarMul(value, op)
        assert op * number == Product((op, Identity() if value == 1 else ScalarMul(value, Identity())))

    @pytest.mark.parametrize("other", ["x", None, Decimal(2)], ids=repr)
    def test_anything_else_is_a_type_error(self, other):
        op = Lower(Mem(0))
        for build in (
            lambda: other * op, lambda: op * other, lambda: other + op,
            lambda: op + other, lambda: other - op, lambda: op - other,
        ):
            with pytest.raises(TypeError):
                build()

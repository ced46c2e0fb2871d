import random

import pytest

from fockvm.errors import (
    ParseError,
    SubtractUnderflow,
    UndefinedLabel,
    UnknownVariable,
    UnsupportedConstruct,
)
from fockvm.isa import Opcode, OperandKind
from fockvm.oracles import address_commutator_holds
from fockvm.qasm import interpret, run_algebraic
from fockvm.qcc import (
    Assign,
    Binary,
    BitNot,
    CAst,
    Goto,
    HaltStmt,
    IfZeroGoto,
    InputStmt,
    MAX_EXPR_DEPTH,
    LabelStmt,
    Lit,
    OutputStmt,
    Shift,
    Var,
    address_of,
    compile_c,
    lower_direct,
    lower_to_qasm,
    parse_c,
    star_get,
    star_set,
    uses_pointers,
)
from fockvm.operators import Clear, Mem, Num, NumberOp, apply_expr
from fockvm.state import BasisState, unit


# ---------------------------------------------------------------------------
# Independent reference: a big-step evaluator over the syntax tree, written
# before and apart from the compiler. Pointer-free programs only; the
# machine's arithmetic conventions (underflow, floor division, masked
# complement) are restated here from first principles.


def reference_eval(expr, env):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env.get(expr.name, 0)
    if isinstance(expr, BitNot):
        v = reference_eval(expr.expr, env)
        return v ^ (2 ** v.bit_length() - 1) if v else 0
    if isinstance(expr, Shift):
        v = reference_eval(expr.expr, env)
        return v * 2**expr.by if expr.by >= 0 else v // 2 ** (-expr.by)
    if isinstance(expr, Binary):
        a = reference_eval(expr.left, env)
        b = reference_eval(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            if a < b:
                raise ArithmeticError("underflow")
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if b == 0:
                raise ArithmeticError("divide by zero")
            return a // b
        if expr.op == "&":
            return a & b
        if expr.op == "|":
            return a | b
    raise AssertionError(f"reference cannot evaluate {expr!r}")


def reference_run(ast: CAst, inputs):
    env: dict[str, int] = {}
    out: list[int] = []
    labels = {
        s.name: i for i, s in enumerate(ast.statements) if isinstance(s, LabelStmt)
    }
    cursor = 0
    i = 0
    steps = 0
    while i < len(ast.statements):
        steps += 1
        assert steps < 100_000, "reference run diverged"
        stmt = ast.statements[i]
        if isinstance(stmt, Assign):
            env[stmt.target] = reference_eval(stmt.expr, env)
        elif isinstance(stmt, InputStmt):
            env[stmt.var] = inputs[cursor]
            cursor += 1
        elif isinstance(stmt, OutputStmt):
            out.append(reference_eval(stmt.expr, env))
        elif isinstance(stmt, Goto):
            i = labels[stmt.label]
            continue
        elif isinstance(stmt, IfZeroGoto):
            if reference_eval(stmt.expr, env) == 0:
                i = labels[stmt.label]
                continue
        elif isinstance(stmt, HaltStmt):
            break
        i += 1
    return env, out


class TestParse:
    def test_simple_assignment(self):
        ast = parse_c("a = b + c;")
        [stmt] = ast.statements
        assert stmt == Assign("a", Binary("+", Var("b"), Var("c")))

    def test_pointer_statements(self):
        ast = parse_c("ptr = &x; z = *ptr; *ptr = 99;")
        assert len(ast.statements) == 3
        assert isinstance(ast.statements[2].pointer, Var)

    def test_undefined_label(self):
        with pytest.raises(UndefinedLabel):
            parse_c("goto L;")

    def test_duplicate_label(self):
        with pytest.raises(ParseError):
            parse_c("L: L: halt;")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_c("a = ;\n")
        assert err.value.line == 1 and err.value.column == 5

    def test_comments(self):
        ast = parse_c("// leading\na = 1; // trailing\n")
        assert len(ast.statements) == 1

    def test_precedence(self):
        [stmt] = parse_c("a = b + c * d;").statements
        assert stmt.expr == Binary("+", Var("b"), Binary("*", Var("c"), Var("d")))

    def test_shift_literal_only(self):
        with pytest.raises(ParseError):
            parse_c("a = b << c;")

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("b - c - d", Binary("-", Binary("-", Var("b"), Var("c")), Var("d"))),
            ("b / c * d", Binary("*", Binary("/", Var("b"), Var("c")), Var("d"))),
            ("b | c & d", Binary("|", Var("b"), Binary("&", Var("c"), Var("d")))),
            ("b & c | d", Binary("|", Binary("&", Var("b"), Var("c")), Var("d"))),
            ("b + c << 1", Shift(Binary("+", Var("b"), Var("c")), 1)),
            ("b << 1 >> 2", Shift(Shift(Var("b"), 1), -2)),
            ("b | c << 1", Binary("|", Var("b"), Shift(Var("c"), 1))),
            ("~b * c", Binary("*", BitNot(Var("b")), Var("c"))),
            ("(b | c) * d", Binary("*", Binary("|", Var("b"), Var("c")), Var("d"))),
        ],
    )
    def test_operator_levels(self, source, expected):
        [stmt] = parse_c(f"a = {source};").statements
        assert stmt.expr == expected

    @pytest.mark.parametrize("source", ["a = b << 1 + c;", "a = b << 1 * c;"])
    def test_nothing_tighter_than_a_shift_follows_it(self, source):
        with pytest.raises(ParseError):
            parse_c(source)


def _deep_sources(depth):
    """Expressions ``depth`` levels deep; the right-nested one, which adds
    two levels per step, rounds an even depth down."""
    return {
        "sum": "+".join(["b"] * depth),
        "parentheses": "(" * (depth - 1) + "b" + ")" * (depth - 1),
        "bit-nots": "~" * (depth - 1) + "b",
        "right-nested": "b+(" * ((depth - 1) // 2) + "b" + ")" * ((depth - 1) // 2),
    }


class TestExpressionDepth:
    @pytest.mark.parametrize("shape", list(_deep_sources(3)))
    def test_deepest_allowed_expression_parses_and_lowers(self, shape):
        source = f"input(b);\na = {_deep_sources(MAX_EXPR_DEPTH)[shape]};\noutput(a);\nhalt;\n"
        program = compile_c(source)
        assert run_algebraic(program, [1]).sole()[1].output == interpret(program, [1]).sole()[1].output

    @pytest.mark.parametrize("shape", list(_deep_sources(3)))
    def test_one_level_deeper_is_a_parse_error(self, shape):
        source = _deep_sources(MAX_EXPR_DEPTH + 1)[shape]
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_EXPR_DEPTH} levels"):
            parse_c(f"a = {source};")


class TestLowering:
    def test_add_is_three_instructions(self):
        program = lower_to_qasm(parse_c("a = b + c;"))
        ops = [(i.opcode, i.operand.value if i.operand else None) for i in program.instructions]
        b, c, a = program.symbols["b"], program.symbols["c"], program.symbols["a"]
        assert ops == [
            (Opcode.LOAD, b),
            (Opcode.ADD, c),
            (Opcode.STORE, a),
            (Opcode.HALT, None),
        ]

    def test_literal_subtract_uses_immediate(self):
        program = lower_to_qasm(parse_c("a = b - 1;"))
        sub = program.instructions[1]
        assert sub.opcode is Opcode.SUBTRACT
        assert sub.operand.kind is OperandKind.IMMEDIATE and sub.operand.value == 1

    def test_end_to_end_add(self):
        program = compile_c("input(b); input(c); a = b + c; output(a); halt;")
        assert interpret(program, [2, 3]).sole()[1].output == (5,)
        result = run_algebraic(program, [2, 3])
        amp, state = result.sole()
        assert state.output == (5,) and abs(abs(amp) - 1) <= 1e-12

    def test_against_reference_evaluator(self):
        source = """
        input(n);
        a = n * n + 3;
        b = a & 12;
        c = (a | b) - n;
        c = c << 2;
        d = ~c;
        output(d);
        output(c / 5);
        halt;
        """
        ast = parse_c(source)
        program = lower_to_qasm(ast)
        for n in (0, 1, 7, 19, 255):
            env, out = reference_run(ast, [n])
            got = interpret(program, [n]).sole()[1]
            assert got.output == tuple(out)
            for name, value in env.items():
                assert got.mem_value(program.symbols[name]) == value

    def test_randomized_against_reference(self):
        rng = random.Random(90125)
        ops = ["+", "-", "*", "/", "&", "|"]
        names = ["a", "b", "c"]

        def leaf():
            if rng.random() < 0.5:
                return Lit(rng.randrange(0, 50))
            return Var(rng.choice(names))

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return leaf()
            choice = rng.random()
            if choice < 0.15:
                return BitNot(expr(depth - 1))
            if choice < 0.3:
                return Shift(expr(depth - 1), rng.randrange(-2, 3))
            return Binary(rng.choice(ops), expr(depth - 1), expr(depth - 1))

        produced = 0
        while produced < 40:
            statements = [InputStmt("a"), InputStmt("b")]
            for _ in range(rng.randrange(1, 5)):
                statements.append(Assign(rng.choice(names), expr(2)))
            statements.append(OutputStmt(expr(2)))
            statements.append(HaltStmt())
            ast = CAst(tuple(statements))
            inputs = [rng.randrange(0, 100), rng.randrange(0, 100)]
            try:
                env, out = reference_run(ast, inputs)
            except ArithmeticError:
                continue
            produced += 1
            program = lower_to_qasm(ast)
            got = interpret(program, inputs).sole()[1]
            assert got.output == tuple(out)
            for name, value in env.items():
                assert got.mem_value(program.symbols[name]) == value

    def test_goto_loop(self):
        source = """
        input(n);
        s = 0;
        top:
        if (n == 0) goto done;
        s = s + n;
        n = n - 1;
        goto top;
        done:
        output(s);
        halt;
        """
        ast = parse_c(source)
        program = lower_to_qasm(ast)
        env, out = reference_run(ast, [4])
        assert interpret(program, [4]).sole()[1].output == tuple(out) == (10,)
        algebraic = run_algebraic(program, [4], fuel=10)
        assert algebraic.sole()[1].output == (10,)


class TestPointers:
    def test_round_trip(self, data_dir):
        program = compile_c((data_dir / "pointer.qc").read_text(), window=8)
        result = interpret(program, [])
        assert result.sole()[1].output == (99, 99)

    def test_round_trip_algebraic(self, data_dir):
        program = compile_c((data_dir / "pointer.qc").read_text(), window=8)
        result = run_algebraic(program, [], fuel=10)
        amp, state = result.sole()
        assert state.output == (99, 99)
        assert abs(abs(amp) - 1) <= 1e-12

    @pytest.mark.parametrize("value", [0, 1, 41, 10**6])
    def test_write_values(self, value):
        program = compile_c(f"p = &x; *p = {value}; output(x); halt;", window=8)
        assert interpret(program, []).sole()[1].output == (value,)

    def test_deref_read_of_each_window_slot(self):
        program = compile_c("input(k); a = 5; b = 6; z = *k; output(z); halt;", window=8)
        a = program.symbols["a"]
        b = program.symbols["b"]
        assert interpret(program, [a]).sole()[1].output == (5,)
        assert interpret(program, [b]).sole()[1].output == (6,)

    def test_out_of_window_pointer_fails_both_modes(self):
        program = compile_c("p = 100; z = *p; halt;", window=8)
        with pytest.raises(SubtractUnderflow):
            interpret(program, [])
        with pytest.raises(SubtractUnderflow):
            run_algebraic(program, [], fuel=10)

    def test_window_too_small_for_variables(self):
        source = "; ".join(f"v{i} = {i}" for i in range(10)) + "; z = *v0; halt;"
        with pytest.raises(UnsupportedConstruct):
            compile_c(source, window=4)


class TestUsesPointers:
    @pytest.mark.parametrize(
        "source",
        [
            "p = &x; halt;",
            "a = 1; b = ~(a + *a); halt;",
            "a = 1; output((*a) << 2); halt;",
            "a = 1; top: if (*a == 0) goto top; halt;",
            "a = 1; *a = 2; halt;",
        ],
    )
    def test_address_or_dereference_anywhere(self, source):
        assert uses_pointers(parse_c(source))

    def test_plain_program(self, data_dir):
        assert not uses_pointers(parse_c((data_dir / "add.qc").read_text()))

    def test_pointer_sample(self, data_dir):
        assert uses_pointers(parse_c((data_dir / "pointer.qc").read_text()))


class TestDirectLowering:
    def test_sum_assignment(self):
        expr = lower_direct(Assign("a", Binary("+", Var("b"), Var("c"))))
        start = unit(BasisState(mem={0: 9, 1: 2, 2: 3}))
        [(amp, out)] = apply_expr(expr, start).terms
        assert amp == 1.0
        assert out.mem_value(0) == 5

    def test_copy_zero(self):
        expr = lower_direct(Assign("a", Var("b")))
        [(amp, out)] = apply_expr(expr, unit(BasisState(mem={0: 4}))).terms
        assert out.mem_value(0) == 0

    def test_rejects_other_shapes(self):
        with pytest.raises(UnsupportedConstruct):
            lower_direct(Assign("a", Binary("*", Var("b"), Var("c"))))

    def test_matches_instruction_lowering_on_eigenstates(self):
        ast = parse_c("a = b + c;")
        program = lower_to_qasm(ast)
        direct = lower_direct(ast.statements[0], table=program.symbols)
        from fockvm.qasm import compile_sequential

        sequential = compile_sequential(program)
        table = program.symbols
        for vb, vc, va in [(0, 0, 0), (2, 3, 9), (100, 100, 1), (7, 0, 7)]:
            start = unit(
                BasisState(mem={table["a"]: va, table["b"]: vb, table["c"]: vc})
            )
            one = apply_expr(direct, start)
            two = apply_expr(sequential, start)
            [(amp1, s1)] = one.terms
            [(amp2, s2)] = two.terms
            assert s1.mem_value(table["a"]) == s2.mem_value(table["a"]) == vb + vc
            assert abs(abs(amp1) - 1) <= 1e-12 and abs(abs(amp2) - 1) <= 1e-12


class TestStarOperators:
    def test_star_set_constant(self):
        [(amp, out)] = apply_expr(star_set(3, 99), unit(BasisState(mem={3: 7}))).terms
        assert amp == 1.0 and out.mem_value(3) == 99

    def test_star_set_zero_is_clear(self):
        start = unit(BasisState(mem={3: 7}))
        assert apply_expr(star_set(3, 0), start) == apply_expr(Clear(Mem(3)), start)

    def test_star_set_sum_reproduces_direct_lowering(self):
        table = {"a": 0, "b": 1, "c": 2}
        direct = lower_direct(Assign("a", Binary("+", Var("b"), Var("c"))), table)
        star = star_set(0, Num(Mem(1)) + Num(Mem(2)))
        start = unit(BasisState(mem={0: 9, 1: 2, 2: 3}))
        assert apply_expr(direct, start) == apply_expr(star, start)

    def test_star_get_is_number_operator(self):
        assert star_get(4) == NumberOp(Mem(4))


class TestAddressOf:
    def test_table_lookup(self):
        table = {"x": 0, "ptr": 1}
        assert address_of("x", table) == 0
        with pytest.raises(UnknownVariable):
            address_of("nope", table)

    def test_commutator_yields_the_address(self):
        occ = (0, 0, 0, 2, 0, 1)
        assert address_commutator_holds(3, 6, occ, dagger=True)
        assert address_commutator_holds(3, 6, occ, dagger=False)

    def test_float_evaluator_commutator(self):
        from fockvm.qcc import build_address_operator
        from fockvm.operators import Raise, product
        from fockvm.state import merge

        window = 5
        a_op = build_address_operator(window)
        m = 3
        original = BasisState(mem={m: 2})
        start = unit(original)
        forward = apply_expr(product(a_op, Raise(Mem(m))), start)
        backward = apply_expr(product(Raise(Mem(m)), a_op), start)
        diff = merge(
            list(forward.terms) + [(-amp, s) for amp, s in backward.terms]
        )
        # The commutator is m times the identity, up to float residue; the
        # exact statement is covered by the oracle checks above.
        [(amp, state)] = diff.terms
        assert state == original
        assert abs(amp - m) <= 1e-12

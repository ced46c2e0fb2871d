"""The guarded compiled form and the evaluator's program-counter guard index.

The digests pin ``sexpr`` of ``compile_guarded`` output, so sharing
subtrees inside a compile cannot change the printed form. The differential
tests run each guarded tree as compiled, where ``Product`` runs a flat plan
that expands nested products, fires instruction factors by program counter
and skips those no live term meets, and against two rewrites of the same
operator: every instruction guard as ``ThetaTheta(Const(0) + (Num(PC) - c))``,
which the index does not recognise, so every factor's guard is evaluated as
the paper's product reads; every nested product wrapped as a one-term
``Sum``, which the plan does not expand; and every deterministic leaf
wrapped as a one-term ``Sum``, so no product runs one term as a chain of
state images. All runs must agree bit for bit.
"""

import hashlib
import random
import struct

import pytest

from fockvm import operators, qasm, qcc
from fockvm.errors import MachineError
from fockvm.operators import (
    PC,
    Const,
    Define,
    Deterministic,
    EvalStats,
    ExpAdd,
    ExpSub,
    GuardedPower,
    Num,
    Product,
    Sum,
    ThetaTheta,
    apply_expr,
    apply_with_status,
    eval_exponent,
    locations,
    sexpr,
    walk,
)
from fockvm.qasm import compile_guarded, parse_program, run_superposed
from fockvm.state import BasisState, merge, unit

POINTER_A = """input(a);
b = a * 3;
c = b + 17;
p = &b;
*p = c + 41;
a = *p + c;
p = &a;
output(a);
output(b);
output(c);
halt;
"""

POINTER_B = """input(a);
b = a + 9;
p = &a;
p = &b;
b = *p + a;
*p = a + 5;
output(a);
output(b);
halt;
"""

#: sha256 of ``sexpr(compile_guarded(...))``, recorded before the compiler
#: shared any subtree.
QASM_DIGESTS = {
    ("add.qasm", 0): "92b65706ff58f67237189061f09c082080122a56eea6815f168d3230cc6ec0b2",
    ("add.qasm", 3): "8088884b6471eb82df863602d7352fca91f02a9c2a100bee6b8f2a75f6384cfe",
    ("add.qasm", 10): "0613f0fbef95c6bd74f47adfdeec2ed04e4c5553fc26bb72c2073503ef50be7b",
    ("tzr.qasm", 0): "7a86a8c76d5f2271167125952a1884c240a354ef9f3d3f97276039daf70ba246",
    ("tzr.qasm", 3): "c3ddf45450e489da90c86a1bbfaa967fb296aa0a84ffae5a0bd1bc1b2a0548a0",
    ("tzr.qasm", 10): "48afcc1ee7157763f93ee25e764588b834277f85751698e22159b0b5e10edb8a",
}
QC_DIGESTS = {
    ("add.qc", 8): "0613f0fbef95c6bd74f47adfdeec2ed04e4c5553fc26bb72c2073503ef50be7b",
    ("add.qc", 256): "0613f0fbef95c6bd74f47adfdeec2ed04e4c5553fc26bb72c2073503ef50be7b",
    ("pointer.qc", 8): "7913f8d24ea38fcec40f41282e35ca2f7cba9c0d59e69e265944fe4f70ac9705",
    ("pointer.qc", 256): "38b8f1d7cd0dc90fe714bb146c4a0167553d4114975f95a7f2cae15fa0fab8c4",
}
INLINE_DIGESTS = {
    POINTER_A: "666e4c0acfa5bb3d6e3de8bf05cd19959b9ed6e18aad473d32e4f979f870b8ec",
    POINTER_B: "82ef595385c57eef9c10d1da173c61fea18ca2d21361503f58b1c52a82f02a9b",
}


def digest(expr) -> str:
    return hashlib.sha256(sexpr(expr).encode()).hexdigest()


def hide_guards(node):
    """``node`` with every instruction guard ``ThetaTheta(Num(PC) - c)``
    rewritten as ``ThetaTheta(Const(0) + (Num(PC) - c))``: the same value,
    in a shape the guard index does not recognise."""
    if isinstance(node, Define):
        return Define(node.label, hide_guards(node.body))
    if isinstance(node, Product):
        return Product(tuple(hide_guards(factor) for factor in node.factors))
    if isinstance(node, GuardedPower):
        guard = node.exponent
        if (
            isinstance(guard, ThetaTheta)
            and isinstance(guard.arg, ExpSub)
            and guard.arg.left == Num(PC)
            and isinstance(guard.arg.right, Const)
        ):
            return GuardedPower(node.base, ThetaTheta(ExpAdd(Const(0), guard.arg)))
    return node


def hide_nesting(node):
    """``node`` with every ``Product`` factor that is itself a ``Product``
    wrapped as the one-term ``Sum((inner,))``: the same operator, in a shape
    the plan does not expand, so each inner product runs on its own and its
    output is merged again one level up."""
    if isinstance(node, Define):
        return Define(node.label, hide_nesting(node.body))
    if isinstance(node, GuardedPower):
        return GuardedPower(hide_nesting(node.base), node.exponent)
    if isinstance(node, Product):
        factors = (hide_nesting(factor) for factor in node.factors)
        return Product(tuple(Sum((f,)) if isinstance(f, Product) else f for f in factors))
    return node


def hide_leaves(node):
    """``node`` with every deterministic leaf wrapped as the one-term
    ``Sum((leaf,))``: the same operator, in a shape no plan runs as a chain,
    so each leaf's output is merged on its own."""
    if isinstance(node, Deterministic):
        return Sum((node,))
    if isinstance(node, Define):
        return Define(node.label, hide_leaves(node.body))
    if isinstance(node, GuardedPower):
        return GuardedPower(hide_leaves(node.base), node.exponent)
    if isinstance(node, Product):
        return Product(tuple(map(hide_leaves, node.factors)))
    return node


def nest_steps(expr):
    """``expr`` with its definition product regrouped into nested products
    of at most three instruction factors, so instruction guards sit inside
    inner products."""
    factors = []
    for factor in expr.factors:
        if isinstance(factor, Define) and isinstance(factor.body, Product):
            steps = factor.body.factors
            chunks = [steps[i : i + 3] for i in range(0, len(steps), 3)]
            body = Product(tuple(Product(c) if len(c) > 1 else c[0] for c in chunks))
            factor = Define(factor.label, body)
        factors.append(factor)
    return Product(tuple(factors))


def bits(terms) -> list:
    """Terms with each amplitude as the bytes of its two doubles, so signed
    zeros and last-place differences compare unequal."""
    return [(struct.pack("<dd", amp.real, amp.imag), state) for amp, state in terms]


def outcome(expr, start, fuel):
    """Everything a guarded run reports: its live and halted terms with
    exact amplitudes and its counters, or the type of the error it raised."""
    stats = EvalStats()
    try:
        live, halted = apply_with_status(expr, start, fuel, stats=stats)
    except MachineError as error:
        return type(error), stats.primitive_ops, stats.reentries
    return bits(live.terms), bits(halted.terms), stats.primitive_ops, stats.reentries


class TestCompiledFormIsPinned:
    @pytest.mark.parametrize("name, fuel", sorted(QASM_DIGESTS))
    def test_qasm_files(self, data_dir, name, fuel):
        program = parse_program((data_dir / name).read_text())
        assert digest(compile_guarded(program, fuel)) == QASM_DIGESTS[name, fuel]

    @pytest.mark.parametrize("name, window", sorted(QC_DIGESTS))
    def test_qc_files(self, data_dir, name, window):
        program = qcc.compile_c((data_dir / name).read_text(), window)
        assert digest(compile_guarded(program)) == QC_DIGESTS[name, window]

    @pytest.mark.parametrize("source", [POINTER_A, POINTER_B], ids=["a", "b"])
    def test_inline_pointer_programs_before_and_after_evaluation(self, source):
        program = qcc.compile_c(source, 256)
        expr = compile_guarded(program)
        assert digest(expr) == INLINE_DIGESTS[source]
        found = locations(expr)
        halted = qasm.run_algebraic(program, [4]).final
        live, again = apply_with_status(expr, unit(BasisState(input=(4,))))
        assert (live.terms, again) == ((), halted)
        assert digest(expr) == INLINE_DIGESTS[source]
        assert locations(expr) == found

    def test_dumps_unchanged_by_evaluation(self, data_dir):
        expr = compile_guarded(parse_program((data_dir / "tzr.qasm").read_text()), 3)
        text, found = sexpr(expr), locations(expr)
        apply_expr(expr, unit(BasisState(input=(0, 5))), 3)
        assert sexpr(expr) == text
        assert locations(expr) == found


VARS = ["a", "b", "c", "d"]


def random_jumpy_program(rng: random.Random) -> tuple[str, list[int]]:
    lines, inputs = [], []
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
    return "\n".join(lines) + "\n", inputs


class TestGuardIndexDifferential:
    def test_hide_guards_rewrites_every_instruction_guard(self, data_dir):
        expr = compile_guarded(parse_program((data_dir / "tzr.qasm").read_text()))
        hidden = hide_guards(expr)
        assert sexpr(hidden) != sexpr(expr)
        assert sexpr(hidden).count("(Add 0 (Sub (NumberOp ProgramCounter)") == 8

    def test_index_skips_the_factors_no_term_reaches(self, monkeypatch):
        # POINTER_A lowers to 1325 instructions, and its run executes few of
        # them; only the hidden guards are evaluated at every factor.
        program = qcc.compile_c(POINTER_A, 256)
        evaluated = []

        def counting(expr, state):
            evaluated.append(expr)
            return eval_exponent(expr, state)

        def instruction_guards(exprs):
            """(hidden, c) of each instruction guard among ``exprs``."""
            found = []
            for e in exprs:
                if isinstance(e, ThetaTheta):
                    hidden = isinstance(e.arg, ExpAdd)
                    arg = e.arg.right if hidden else e.arg
                    if isinstance(arg, ExpSub) and arg.left == Num(PC) and isinstance(arg.right, Const):
                        found.append((hidden, arg.right.value))
            return found

        monkeypatch.setattr(operators, "eval_exponent", counting)
        found = []
        for expr in (compile_guarded(program), hide_guards(compile_guarded(program))):
            evaluated.clear()
            apply_with_status(expr, unit(BasisState(input=(4,))))
            found.append(instruction_guards(evaluated))
        # Indexed guards fire by program counter and are never evaluated;
        # hidden ones are evaluated at every instruction factor.
        assert found[0] == []
        assert {c for hidden, c in found[1] if hidden} == set(range(1, len(program) + 1))
        assert all(hidden for hidden, _ in found[1])

    def test_hide_nesting_wraps_every_nested_product(self, data_dir):
        def nested(node):
            if isinstance(node, Define):
                return nested(node.body)
            if isinstance(node, GuardedPower):
                return nested(node.base)
            if isinstance(node, Sum):
                return sum(map(nested, node.terms))
            if isinstance(node, Product):
                return sum(isinstance(f, Product) + nested(f) for f in node.factors)
            return 0

        expr = compile_guarded(parse_program((data_dir / "add.qasm").read_text()))
        hidden = hide_nesting(expr)
        assert nested(expr) > 0 and nested(hidden) == 0
        assert sexpr(hidden).count("(Sum ") == nested(expr)

    def test_hide_leaves_leaves_no_chain(self, data_dir):
        def chains(node):
            """How many products under ``node`` run as a chain of images."""
            if isinstance(node, Define):
                return chains(node.body)
            if isinstance(node, GuardedPower):
                return chains(node.base)
            if isinstance(node, Product):
                return operators._plan(node)[2] + sum(map(chains, node.factors))
            return 0

        expr = compile_guarded(parse_program((data_dir / "add.qasm").read_text()))
        hidden = hide_leaves(expr)
        assert chains(expr) > 0 and chains(hidden) == 0
        assert sexpr(hidden).count("(Sum ") == sum(isinstance(n, Deterministic) for n in walk(expr))

    def test_random_jumpy_programs(self):
        rng = random.Random(7070)
        kinds = set()
        for _ in range(150):
            text, inputs = random_jumpy_program(rng)
            program = parse_program(text)
            fuel = rng.randrange(0, 6)
            expr = compile_guarded(program, fuel)
            nested = nest_steps(expr)
            others = [hide_guards(expr), hide_nesting(expr), nested, hide_nesting(nested), hide_leaves(expr)]
            # Three inputs that share a length, so the terms can take
            # different branches within one evaluation.
            starts = [
                BasisState(input=tuple(rng.randrange(0, 12) for _ in inputs))
                for _ in range(3)
            ]
            for start in (unit(starts[0]), merge([(0.6, starts[0]), (-0.8j, starts[1]), (0.5, starts[2])])):
                got = outcome(expr, start, fuel)
                for other in others:
                    assert got == outcome(other, start, fuel), text
                kinds.add(got[0] if isinstance(got[0], type) else "ran")
        assert len(kinds) >= 3

    def test_run_superposed(self, monkeypatch):
        self.check_run_superposed(monkeypatch, hide_guards)

    def test_run_superposed_nesting(self, monkeypatch):
        self.check_run_superposed(monkeypatch, hide_nesting)

    def test_run_superposed_leaves(self, monkeypatch):
        self.check_run_superposed(monkeypatch, hide_leaves)

    @staticmethod
    def check_run_superposed(monkeypatch, hide):
        # Four input-free programs that halt within the fuel, at least one
        # of them after a backward jump.
        rng = random.Random(31)
        programs = []
        while len(programs) < 4:
            text, inputs = random_jumpy_program(rng)
            program = parse_program(text)
            stats = EvalStats()
            try:
                qasm._run_halted(program, [], 4, stats)
            except MachineError:
                continue
            if inputs or (not programs and not stats.reentries):
                continue
            programs.append(program)
        amp = 0.5

        def run(compile_fn):
            made = []

            def counting_stats():
                made.append(EvalStats())
                return made[-1]

            monkeypatch.setattr(qasm, "compile_guarded", compile_fn)
            monkeypatch.setattr(qasm, "EvalStats", counting_stats)
            try:
                result = run_superposed([(amp, p) for p in programs], [], fuel=4)
            except MachineError as error:
                return type(error), [(s.primitive_ops, s.reentries) for s in made]
            counters = [(s.primitive_ops, s.reentries) for s in made]
            return bits(result.final.terms), result.steps_executed, counters

        plain = run(compile_guarded)
        hidden = run(lambda program, fuel: hide(compile_guarded(program, fuel)))
        assert plain == hidden
        final, _, counters = plain
        assert final and counters[0][1] > 0

"""Tree readers at depths far beyond Python's recursion limit.

``sexpr``, ``locations`` and ``uses_pointers`` read trees through the one
iterative :func:`fockvm.operators.walk`, so no dump or scan is bounded by
the interpreter's recursion limit. The assembly and grammar readers take
3000-line inputs through to a result. The last test keeps it that way: no
test, script or benchmark may raise the limit to make a deep input pass.
"""

import re
from pathlib import Path

import pytest

from fockvm.evolution import Hamiltonian
from fockvm.grammar import parse_grammar, transition_probability
from fockvm.operators import (
    END,
    PC,
    Bra,
    Const,
    Define,
    GuardedPower,
    Identity,
    Mem,
    Num,
    Product,
    Raise,
    ScalarMul,
    Sum,
    locations,
    sexpr,
    walk,
)
from fockvm.qasm import interpret, parse_program, run_algebraic
from fockvm.qcc import AddressOf, CAst, Deref, OutputStmt, Var, uses_pointers

DEPTH = 3000
REPO = Path(__file__).resolve().parent.parent

# (leaf, wrap one level, text before the inner dump, text after it)
_CHAINS = {
    "ScalarMul": (Raise(Mem(5)), lambda e: ScalarMul(1, e), "(ScalarMul 1 ", ")"),
    "Sum": (Raise(Mem(5)), lambda e: Sum((Identity(), e)), "(Sum (Identity) ", ")"),
    "Product": (Raise(Mem(5)), lambda e: Product((e, Identity())), "(Product ", " (Identity))"),
    "GuardedPower": (Raise(Mem(5)), lambda e: GuardedPower(e, Const(1)), "(GuardedPower ", " 1)"),
    "Define": (Raise(Mem(5)), lambda e: Define("d", e), "(Define d ", ")"),
    "exponent": (Num(Mem(5)), lambda e: e + 1, "(Add ", " 1)"),
}


def chain(leaf, wrap, depth=DEPTH):
    expr = leaf
    for _ in range(depth):
        expr = wrap(expr)
    return expr


@pytest.mark.parametrize("name", list(_CHAINS))
def test_deep_chain_dumps_and_scans(name):
    leaf, wrap, before, after = _CHAINS[name]
    expr = chain(leaf, wrap)
    assert sexpr(expr) == before * DEPTH + sexpr(leaf) + after * DEPTH
    assert locations(expr) == {Mem(5)}


def test_hamiltonian_over_a_deep_sum():
    _, wrap, _, _ = _CHAINS["Sum"]
    assert Hamiltonian(chain(Raise(Mem(5)), wrap), 6).mode_count == 6
    with pytest.raises(ValueError, match="outside the 5-mode window"):
        Hamiltonian(chain(Raise(Mem(5)), wrap), 5)


def test_uses_pointers_on_a_deep_dereference():
    deep = chain(Var("p"), Deref)
    assert uses_pointers(CAst((OutputStmt(deep),)))
    assert uses_pointers(CAst((OutputStmt(chain(AddressOf("p"), Deref)),)))
    assert not uses_pointers(CAst((OutputStmt(Var("p")),)))


def test_walk_is_preorder_with_an_end_after_each_node():
    expr = Product((Raise(PC), Bra(), GuardedPower(Identity(), Num(PC) - 1)))
    sub = expr.factors[2].exponent
    assert list(walk(expr)) == [
        expr,
        Raise(PC), PC, END,
        Bra(), END,
        expr.factors[2], Identity(), END, sub, Num(PC), PC, END, Const(1), END, END,
        END,
    ]


def test_long_assembly_program_runs_on_both_back_ends():
    cycle = ["LOAD #{k}", "STORE a", "ADD a", "STORE b", "OUTPUT b"]
    lines = [cycle[i % len(cycle)].format(k=i % 9) for i in range(DEPTH - 1)] + ["HALT"]
    program = parse_program("\n".join(lines) + "\n")
    assert len(program) == DEPTH
    classical = interpret(program, []).sole()[1]
    amp, algebraic = run_algebraic(program, []).sole()
    assert amp == 1
    assert (algebraic.register, algebraic.mem, algebraic.output) == (
        classical.register, classical.mem, classical.output
    )
    # The last cycle is cut before its OUTPUT by the HALT.
    assert classical.output == tuple(2 * (i % 9) for i in range(0, DEPTH - len(cycle), len(cycle)))


def test_long_grammar_and_start_give_a_one_step_probability():
    # Each rule rewrites one distinct symbol to the next one, cyclically.
    symbols = [chr(0x4E00 + i) for i in range(DEPTH)]
    rules = "".join(f"rule: {a} -> {b}\n" for a, b in zip(symbols, symbols[1:] + symbols[:1]))
    grammar = parse_grammar(f"start: {''.join(symbols)}\n{rules}")
    assert len(grammar.rules) == len(grammar.start) == DEPTH
    target = symbols[1] * 2 + "".join(symbols[2:])
    assert transition_probability(grammar, grammar.start, target, max_steps=1) == (1.0, 1 / DEPTH)


def test_no_file_raises_the_recursion_limit():
    call = re.compile(r"setrecursionlimit\s*\(")
    offenders = [
        str(path.relative_to(REPO))
        for folder in ("src", "tests", "scripts", "bench")
        for path in sorted((REPO / folder).rglob("*.py"))
        if call.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []

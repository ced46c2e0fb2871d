"""Compile-time sharing: memoized steps and actions, instruction keys, interning.

The compilers take the program-independent subtrees of each step and the
value action of each distinct instruction from per-process memos, so the
order of compiles and concurrent compiles must not change any dump. C
lowering resolves each distinct instruction once. The digests and listing
hashes below were recorded before any of this sharing.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fockvm import qasm, qcc
from fockvm.isa import Instruction, Opcode, OperandKind, address, count, immediate
from fockvm.operators import (
    PC,
    Const,
    Define,
    ExpSub,
    Num,
    SetValue,
    ThetaTheta,
    apply_with_status,
    locations,
    sexpr,
)
from fockvm.qasm import compile_guarded, compile_sequential, disassemble, instruction_operator, parse_program
from fockvm.state import BasisState, unit
from test_guard_index import POINTER_A, POINTER_B, QASM_DIGESTS, digest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Two pointer reads at window 256: 1060 instructions.
POINTER_LONG = """input(a);
b = a + 7;
p = &a;
c = *p + b;
p = &b;
d = *p + c;
output(d);
halt;
"""
POINTER_LONG_DIGEST = "c8c66a880b7da6fbb14dae440e67600fee380a16757f7a3d1f93f1c07bf5dbc2"

#: sha256 of ``disassemble(compile_c(...), raw_addresses=True)``.
LISTING_DIGESTS = {
    ("add.qc", 8): "acad9063c180804e528ee39d8a5a2678cb609e70e75cfb4b27dd3838c3ae60be",
    ("add.qc", 256): "acad9063c180804e528ee39d8a5a2678cb609e70e75cfb4b27dd3838c3ae60be",
    ("pointer.qc", 8): "4fcdbe526cfc2750bc2d85cf8b23ca1a08125ca01fdcc7879a3c123b88bcc5d6",
    ("pointer.qc", 256): "0889939a20a59437e623b475f16f5c3468a3d457a18b5bc66a0d39c325480014",
}
INLINE_LISTING_DIGESTS = {
    POINTER_A: "09004bef1d49e3b54dd90cd9329df7ef8b7d1956394e6e6c11ecf900bf105478",
    POINTER_B: "c6b6ab892353a49f3e481b505b12d75b418bbb4fb772ac476c106b7fb9db2be9",
    POINTER_LONG: "a3a7fdb07399bb95cf4808caefe651cd16ab989f70525a27356aef353474ad61",
}

#: Run in a fresh interpreter, so the memos start empty: compiles the long
#: pointer program and the assembly files in the order given, and prints
#: each digest and the number of memoized steps.
ORDERED_COMPILES = """
import hashlib, json, sys
from pathlib import Path
from fockvm import qasm, qcc
from fockvm.operators import sexpr

data, source, order = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
jobs = [("long", 10)] + [(name, fuel) for name in ("add.qasm", "tzr.qasm") for fuel in (0, 3, 10)]
if order == "reverse":
    jobs.reverse()
digests, longest = [], 0
for name, fuel in jobs:
    if name == "long":
        program = qcc.compile_c(source, 256)
    else:
        program = qasm.parse_program((data / name).read_text())
    longest = max(longest, len(program))
    text = sexpr(qasm.compile_guarded(program, fuel))
    digests.append([name, fuel, hashlib.sha256(text.encode()).hexdigest()])
steps = qasm._step.cache_info().currsize
print(json.dumps({"digests": digests, "longest": longest, "steps": steps,
                  "indices": all(qasm._step(i).advance.value == qasm.Const(i + 1)
                                 for i in range(1, longest + 1))}))
"""


def fresh_interpreter(script: str, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def assembly(length: int) -> str:
    """A program of ``length`` instructions, jumps of both kinds included."""
    cycle = ["LOAD #{k}", "STORE a", "ADD b", "TZR c", "SUBTRACT #1", "TRA a", "OUTPUT b"]
    lines = [cycle[i % len(cycle)].format(k=i % 9) for i in range(length - 1)]
    return "\n".join(lines + ["HALT"]) + "\n"


class TestStepTableAcrossCompiles:
    @pytest.mark.parametrize("order", ["long first", "reverse"])
    def test_compile_order_keeps_every_digest(self, data_dir, order):
        got = fresh_interpreter(ORDERED_COMPILES, str(data_dir), POINTER_LONG, order)
        for name, fuel, value in got["digests"]:
            want = POINTER_LONG_DIGEST if name == "long" else QASM_DIGESTS[name, fuel]
            assert value == want, (name, fuel)
        assert got["longest"] == 1060
        assert got["steps"] == got["longest"]
        assert got["indices"]

    def test_step_holds_its_guard_and_advance(self):
        for length in (12, 40, 25):
            definition = compile_guarded(parse_program(assembly(length))).factors[0].body
            for i, factor in enumerate(reversed(definition.factors), start=1):
                assert factor.exponent is qasm._step(i).guard
        for i in range(1, 41):
            step = qasm._step(i)
            assert step.guard == ThetaTheta(ExpSub(Num(PC), Const(i)))
            assert step.advance == SetValue(PC, Const(i + 1))
            assert step.halt.exponent is step.guard
            assert step.advance_if_nonzero.base is step.advance

    def test_evaluating_one_program_leaves_another_unchanged(self):
        first, second = (compile_guarded(qcc.compile_c(src, 256)) for src in (POINTER_A, POINTER_B))
        text, found = sexpr(second), locations(second)
        for inputs in ((4,), (0,), (31,)):
            apply_with_status(first, unit(BasisState(input=inputs)))
        assert sexpr(second) == text
        assert locations(second) == found
        apply_with_status(second, unit(BasisState(input=(4,))))
        assert sexpr(second) == text

    def test_threads_compiling_different_lengths(self):
        # Three threads (more than the cores of a small machine) take turns
        # at compiling the longest program so far, so all of them fill the
        # memos, from empty ones and with frequent thread switches.
        programs = [[parse_program(assembly(10 * k + j)) for k in range(1, 51)] for j in (0, 3, 6)]
        want = [[digest(compile_guarded(p)) for p in batch] for batch in programs]
        qasm._step.cache_clear()
        qasm._action.cache_clear()
        compiled: list[list] = [[] for _ in programs]

        def compile_all(k: int) -> None:
            compiled[k] = [compile_guarded(p) for p in programs[k]]

        threads = [threading.Thread(target=compile_all, args=(k,)) for k in range(len(programs))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert [[digest(expr) for expr in batch] for batch in compiled] == want
        assert all(qasm._step(i).advance.value == Const(i + 1) for i in range(1, 507))


class TestSharedActions:
    def test_immediate_and_pool_address_share_one_action(self):
        # With no symbols the pool starts at address 0, so #7 lives at [0].
        pooled = parse_program("LOAD #7\nADD #7\nHALT\n")
        direct = parse_program("LOAD [0]\nADD [0]\nHALT\n")
        assert pooled.pool == {0: 7}
        found = []
        for program in (pooled, direct):
            # Both products list HALT first, then ADD, then LOAD.
            found.append(compile_sequential(program).factors[1:3])
            definition = compile_guarded(program).factors[0]
            assert type(definition) is Define
            found.append(tuple(factor.base.factors[1] for factor in definition.body.factors[1:3]))
        add, load = found[0]
        assert sexpr(add) == "(Instruction ADD [0])"
        assert sexpr(load) == "(Product (Copy Register (Mem 0)) (Clear Register))"
        for actions in found[1:]:
            assert actions[0] is add and actions[1] is load

    def test_immediate_load_needs_a_pool(self):
        with pytest.raises(ValueError, match="immediate operand needs a constant pool"):
            instruction_operator(Instruction(Opcode.LOAD, immediate(3)))


class TestInstructionHashing:
    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
    def test_opcode_lookup_returns_the_member(self, opcode):
        assert Opcode(opcode.value) is opcode
        assert getattr(Opcode, opcode.name) is opcode

    def test_operand_kind_lookup_returns_the_member(self):
        for kind in OperandKind:
            assert OperandKind(kind.value) is kind

    def test_equal_instructions_are_one_key(self):
        made = [
            Instruction(Opcode.ADD, address(3)),
            Instruction(Opcode.ADD, address(3)),
            Instruction(Opcode.ADD, immediate(3)),
            Instruction(Opcode.SHIFT, count(3)),
            Instruction(Opcode.NOT),
            Instruction(Opcode.NOT, None),
            Instruction(Opcode.SUBTRACT, address(3)),
        ]
        assert made[0] == made[1] and made[0] is not made[1]
        assert hash(made[0]) == hash(made[1])
        assert made[4] == made[5]
        assert len(set(made)) == 5
        table = {ins: i for i, ins in enumerate(made)}
        assert table[Instruction(Opcode.ADD, address(3))] == 1
        assert table[Instruction(Opcode.NOT)] == 5
        assert Instruction(Opcode.ADD, immediate(3)) in table
        assert Instruction(Opcode.ADD, address(4)) not in table


class TestLoweringListings:
    @pytest.mark.parametrize("name, window", sorted(LISTING_DIGESTS))
    def test_qc_files(self, data_dir, name, window):
        program = qcc.compile_c((data_dir / name).read_text(), window)
        listing = disassemble(program, raw_addresses=True)
        assert hashlib.sha256(listing.encode()).hexdigest() == LISTING_DIGESTS[name, window]
        assert parse_program(listing).instructions == program.instructions

    @pytest.mark.parametrize("source", list(INLINE_LISTING_DIGESTS), ids=["a", "b", "long"])
    def test_inline_pointer_programs(self, source):
        program = qcc.compile_c(source, 256)
        listing = disassemble(program, raw_addresses=True)
        assert hashlib.sha256(listing.encode()).hexdigest() == INLINE_LISTING_DIGESTS[source]
        assert parse_program(listing).instructions == program.instructions

    def test_repeated_instructions_share_one_object(self):
        # Lowering resolves each distinct abstract instruction once; two
        # abstract operands (a variable and its raw address) may still
        # resolve to equal instructions.
        program = qcc.compile_c(POINTER_A, 256)
        objects = {id(ins) for ins in program.instructions}
        assert len(set(program.instructions)) <= len(objects) < len(program) // 2

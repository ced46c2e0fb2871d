"""Seeded workloads for the fockvm benchmark.

Each workload turns a seeded ``random.Random`` into a warm-up input and a
pool of measured inputs, and defines one operation (``op``), its
independent reference (``ref``) and the check that compares them. The
library only ever sees the generated inputs. Workloads call fockvm through
module attributes (``qasm.run_algebraic``, ``cli.main``, ...) so that the
traced run can wrap those functions where every caller looks them up.

Import this module only after ``fockvm`` itself: the harness times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass

from fockvm import cli, evolution, qasm, qcc, state

COUNT_QASM = "bench/programs/count.qasm"
LOOP_TOP, LOOP_EXIT = 4, 13
POINTER_WINDOW = 256
HOP_MODES = 24
HOP_TIME = 0.1
HOP_TOLERANCE = 1e-9
AMPLITUDE_TOLERANCE = 1e-9


@dataclass
class OpOut:
    """What an operation produced, plus the time of its algebraic part when
    that is only a slice of the operation (None: the whole operation)."""

    value: object
    alg_s: float | None = None


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def loop_inputs(n: int) -> list[int]:
    return [n, LOOP_TOP, LOOP_EXIT]


def same_machine(alg: qasm.RunResult, ref: qasm.RunResult) -> bool:
    """A single halted term with |amp| = 1 whose register, memory, input and
    output equal the interpreter's."""
    if len(alg.final.terms) != 1 or len(ref.final.terms) != 1 or not all(alg.halted):
        return False
    amp, got = alg.final.terms[0]
    _, want = ref.final.terms[0]
    return abs(abs(amp) - 1.0) <= AMPLITUDE_TOLERANCE and (
        got.register, got.mem, got.input, got.output
    ) == (want.register, want.mem, want.input, want.output)


class Loop:
    """One 14-instruction counting loop run algebraically with a seeded n.

    Deep and narrow: one live term re-enters the program definition n
    times, so nearly all the time is operator evaluation. n stays below the
    Python recursion ceiling of the current re-entry scheme.
    """

    name = "loop"
    pool_size = 4000

    def __init__(self, rng):
        self.program = qasm.parse_program(read_text(COUNT_QASM))
        self.warmup = rng.randint(60, 120)
        self.pool = [rng.randint(60, 120) for _ in range(self.pool_size)]

    def op(self, n):
        return OpOut(qasm.run_algebraic(self.program, loop_inputs(n), fuel=n + 1))

    def ref(self, n, out):
        return qasm.interpret(self.program, loop_inputs(n))

    def check(self, n, out, ref):
        return same_machine(out.value, ref)

    def program_key(self, n):
        return COUNT_QASM


def pointer_source(rng) -> tuple[str, list[int]]:
    """A C-like program with 2-4 data variables plus one pointer, one input,
    and 2-4 pointer operations (the first an address-of, then re-points,
    reads and writes through the pointer, at least one dereference)."""
    names = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    lines = [f"input({names[0]});"]
    for i, name in enumerate(names[1:], start=1):
        src = rng.choice(names[:i])
        if rng.random() < 0.5:
            lines.append(f"{name} = {src} + {rng.randint(1, 40)};")
        else:
            lines.append(f"{name} = {src} * {rng.randint(2, 5)};")
    lines.append(f"p = &{rng.choice(names)};")
    pointer_ops = rng.randint(2, 4) - 1
    kinds = [rng.choice(["point", "read", "write"]) for _ in range(pointer_ops)]
    if all(kind == "point" for kind in kinds):
        kinds[-1] = rng.choice(["read", "write"])
    for kind in kinds:
        if kind == "point":
            lines.append(f"p = &{rng.choice(names)};")
        elif kind == "read":
            lines.append(f"{rng.choice(names)} = *p + {rng.choice(names)};")
        else:
            lines.append(f"*p = {rng.choice(names)} + {rng.randint(1, 99)};")
    lines.extend(f"output({name});" for name in names)
    lines.append("halt;")
    return "\n".join(lines) + "\n", [rng.randint(0, 50)]


class Pointer:
    """A distinct seeded pointer program per operation, compiled at window
    256 and run algebraically. Lowering yields hundreds to thousands of
    instructions of which only about a hundred execute, so C lowering,
    guarded compilation and guard scanning dominate. No program repeats."""

    name = "pointer"
    pool_size = 2000

    def __init__(self, rng):
        seen: set[str] = set()
        self.warmup, *self.pool = [self._fresh(rng, seen) for _ in range(self.pool_size + 1)]

    @staticmethod
    def _fresh(rng, seen):
        while True:
            src, inputs = pointer_source(rng)
            if src not in seen:
                seen.add(src)
                return [src, inputs]

    def op(self, item):
        src, inputs = item
        program = qcc.compile_c(src, POINTER_WINDOW)
        start = time.perf_counter()
        result = qasm.run_algebraic(program, inputs)
        return OpOut((program, result), time.perf_counter() - start)

    def ref(self, item, out):
        return qasm.interpret(out.value[0], item[1])

    def check(self, item, out, ref):
        return same_machine(out.value[1], ref)

    def program_key(self, item):
        return item[0]


class Hop:
    """Truncated-series evolution under the 24-mode hop Hamiltonian from
    seeded starts. Wide and shallow: hundreds of live terms per order, Sum
    branching and large merges.

    Evolution cost depends on the shape of the start (how the quanta sit
    relative to each other) and on the order, and spans more than ten to
    one. So that every seed, and every prefix of the pool, gets the same
    cost mix, each group of nine operations runs every shape once, in
    seeded order, with the orders rotating so that three consecutive groups
    cover every (shape, order 8-10) pair once; the seed also shifts each
    shape by 0-3 modes. The hop Hamiltonian is shift-invariant away from
    its edge, so a shift changes the states but not the work."""

    name = "hop"
    pool_size = 918
    # Occupations of five consecutive modes: three shapes for each of 4, 5
    # and 6 quanta, from bunched to spread out.
    shapes = (
        (2, 2, 0, 0, 0), (1, 1, 1, 1, 0), (1, 0, 1, 1, 1),
        (3, 1, 1, 0, 0), (1, 2, 1, 1, 0), (1, 1, 1, 1, 1),
        (2, 2, 2, 0, 0), (2, 1, 1, 1, 1), (1, 1, 2, 1, 1),
    )
    orders = (8, 9, 10)
    max_shift = 3

    def __init__(self, rng):
        self.h = evolution.build_hop_hamiltonian(HOP_MODES)
        self.warmup = self._start(rng, self.shapes[4], 9)
        self.pool = []
        for group in range(self.pool_size // len(self.shapes)):
            picks = list(range(len(self.shapes)))
            rng.shuffle(picks)
            for i in picks:
                order = self.orders[(i + group) % len(self.orders)]
                self.pool.append(self._start(rng, self.shapes[i], order))

    def _start(self, rng, shape, order):
        shift = rng.randint(0, self.max_shift)
        return [[[mode + shift, count] for mode, count in enumerate(shape) if count], order]

    def _state(self, item):
        return state.unit(state.BasisState(mem=dict(item[0])))

    def op(self, item):
        return OpOut(evolution.evolve(self.h, self._state(item), HOP_TIME, item[1]))

    def ref(self, item, out):
        return evolution.dense_oracle_evolve(self.h, self._state(item), HOP_TIME, item[1])

    def check(self, item, out, ref):
        return state.distance(out.value, ref) <= HOP_TOLERANCE

    def program_key(self, item):
        return f"hop{HOP_MODES}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``fockvm`` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_argv(session, mode):
    n = session["n"]
    return [
        "run", COUNT_QASM, "--input", ",".join(map(str, loop_inputs(n))),
        "--mode", mode, "--fuel", str(n + 1), "--json",
    ]


def session_argvs(s) -> list[list[str]]:
    """The fixed command sequence of one CLI session; the first is the
    algebraic run whose state the reference checks."""
    return [
        _run_argv(s, "algebraic"),
        ["compile", COUNT_QASM, "--form", "guarded", "--fuel", str(s["n"] + 1)],
        ["grammar", "prob", "data/particles.g", "--from", "ee", "--to", s["target"],
         "--max-steps", str(s["max_steps"]), "--json"],
        ["grammar", "derive", "data/coin.g", "--from", s["coin"], "--mode", "pass",
         "--steps", str(s["passes"])],
        ["evolve", "--hamiltonian", "hop", "--modes", str(s["modes"]),
         "--state", "data/one_quantum.state", "-t", s["t"], "--order", str(s["order"]),
         "--json"],
        ["qc", "run", "data/pointer.qc", "--mode", "algebraic"],
        ["bit", "verify", "--modes", "4"],
        ["sample", "data/one_quantum.state", "--count", str(s["count"]),
         "--seed", str(s["sample_seed"])],
    ]


def _run_state(stdout: str):
    """(amplitude, halted, state record without pc and fuel) of a
    single-term ``run --json`` payload; None for any other term count."""
    terms = json.loads(stdout)["terms"]
    if len(terms) != 1:
        return None
    record = dict(terms[0]["state"])
    record.pop("pc")
    record.pop("fuel")
    return terms[0]["amplitude"], terms[0]["halted"], record


class Cli:
    """A fixed session of in-process ``cli.main`` calls with seeded
    arguments. The only workload reaching grammar, bitlevel and output
    formatting. Sixteen sessions are generated and cycled, so repeats can
    be checked for byte-identical stdout; their seeded parameters are
    stratified so every seed gets the same cost mix."""

    name = "cli"
    sessions = 16
    pool_size = 4000

    def __init__(self, rng):
        k = self.sessions
        columns = {
            "n": rng.sample(range(20, 41), k),
            "max_steps": [7, 8] * (k // 2),
            "target": ["ege", "eeg", "egeg", "eegg", "epee", "eepe", "egge", "ee"] * (k // 8),
            "coin": ["hh", "ht", "th", "tt"] * (k // 4),
            "passes": [2, 3, 4, 3] * (k // 4),
            "modes": [10, 11, 12, 11] * (k // 4),
            "t": ["0.05", "0.1", "0.15", "0.2"] * (k // 4),
            "order": [6, 7, 8, 9] * (k // 4),
            "count": [rng.randint(500, 2000) for _ in range(k)],
            "sample_seed": [rng.randrange(10**6) for _ in range(k)],
        }
        for values in columns.values():
            rng.shuffle(values)
        sessions = [{key: values[i] for key, values in columns.items()} for i in range(k)]
        self.warmup = sessions[0]
        self.pool = [sessions[i % k] for i in range(self.pool_size)]
        self.first_stdout: dict[str, str] = {}

    def op(self, session):
        results = []
        alg_s = 0.0
        for i, argv in enumerate(session_argvs(session)):
            start = time.perf_counter()
            results.append(run_cli(argv))
            if i == 0:
                alg_s = time.perf_counter() - start
        return OpOut(results, alg_s)

    def ref(self, session, out):
        return run_cli(_run_argv(session, "interp"))

    def check(self, session, out, ref):
        results = out.value
        if ref[0] != 0 or any(code != 0 for code, _ in results):
            return False
        alg, interp = _run_state(results[0][1]), _run_state(ref[1])
        if alg is None or interp is None or alg[0] != [1.0, 0.0] or not alg[1]:
            return False
        if alg[2] != interp[2]:
            return False
        stdout = "".join(text for _, text in results)
        first = self.first_stdout.setdefault(self.program_key(session), stdout)
        return stdout == first

    def program_key(self, session):
        return json.dumps(session, sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (Loop, Pointer, Hop, Cli)}

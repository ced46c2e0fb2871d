"""Command-line entry point.

One binary with subcommands: assemble, run, compile, grammar derive,
grammar prob, evolve, superpose, bit verify, qc compile, qc run, sample.
Results go to stdout (or --output), diagnostics to stderr. Exit codes:
0 success, 2 parse error in an input file, 3 runtime error, 4 usage error.
All randomness is seed-gated and numbers print with 12 significant digits,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bitlevel, evolution, grammar, qasm, qcc
from .errors import JumpsNotSupported, MachineError, ParseError
from .operators import sexpr
from .state import (
    BasisState,
    deserialize,
    parse_amplitude,
    probabilities,
    round_significant,
    sample,
    serialize,
    state_record,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RUNTIME = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _parse_input_list(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"bad input list {text!r}, expected comma-separated integers") from None


def _int_at_least(low: int, at_most: int | None = None):
    """argparse ``type=`` for an integer flag with a lower and an optional
    upper bound."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports malformed text as "invalid int value"
    return parse


def _state_label(state: BasisState) -> str:
    mem = ",".join(f"{a}:{v}" for a, v in state.mem)
    out = ",".join(str(v) for v in state.output)
    return f"reg={state.register} pc={state.pc} fuel={state.fuel} mem={{{mem}}} out=[{out}]"


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_assemble(args) -> int:
    program = qasm.parse_program(_read(args.file))
    if args.json:
        payload = {
            "instructions": [
                {
                    "index": i,
                    "opcode": ins.opcode.value,
                    "operand": str(ins.operand) if ins.operand else None,
                }
                for i, ins in enumerate(program.instructions, start=1)
            ],
            "symbols": program.symbols,
            "pool": {str(a): v for a, v in sorted(program.pool.items())},
        }
        _emit(args, _json_dumps(payload))
    else:
        _emit(args, qasm.disassemble(program))
    return EXIT_OK


def _run_result_payload(result: qasm.RunResult) -> dict:
    terms = []
    probs = probabilities(result.final) if result.final else {}
    for (amp, state), halted in zip(result.final.terms, result.halted):
        terms.append(
            {
                "amplitude": [round_significant(amp.real), round_significant(amp.imag)],
                "probability": round_significant(probs.get(state, 0.0)),
                "halted": halted,
                "state": state_record(state),
            }
        )
    return {"steps": result.steps_executed, "terms": terms}


def _render_run_result(result: qasm.RunResult) -> str:
    lines = []
    probs = probabilities(result.final) if result.final else {}
    for (amp, state), halted in zip(result.final.terms, result.halted):
        lines.append(f"output: {list(state.output)}")
        lines.append(f"register: {state.register}")
        lines.append(f"memory: {{{', '.join(f'{a}: {v}' for a, v in state.mem)}}}")
        lines.append(f"halted: {str(halted).lower()}")
        lines.append(
            f"amplitude: [{_fmt(amp.real)}, {_fmt(amp.imag)}]"
            f" probability: {_fmt(probs.get(state, 0.0))}"
        )
    lines.append(f"steps: {result.steps_executed}")
    return "\n".join(lines)


def _execute(program: qasm.Program, args) -> qasm.RunResult:
    values = _parse_input_list(args.input)
    if args.mode == "interp":
        return qasm.interpret(program, values, step_limit=args.step_limit)
    return qasm.run_algebraic(program, values, fuel=args.fuel)


def _cmd_run(args) -> int:
    program = qasm.parse_program(_read(args.file))
    result = _execute(program, args)
    if args.json:
        _emit(args, _json_dumps(_run_result_payload(result)))
    else:
        _emit(args, _render_run_result(result))
    return EXIT_OK


def _cmd_compile(args) -> int:
    program = qasm.parse_program(_read(args.file))
    if args.form == "sequential":
        expr = qasm.compile_sequential(program)
    else:
        expr = qasm.compile_guarded(program, fuel=args.fuel)
    if args.json:
        _emit(args, _json_dumps({"form": args.form, "expression": sexpr(expr)}))
    else:
        _emit(args, sexpr(expr))
    return EXIT_OK


def _cmd_grammar_derive(args) -> int:
    g = grammar.parse_grammar(_read(args.file))
    source = args.source if args.source is not None else g.start
    if args.mode == "pass":
        outcomes = {source: 1.0}
        for _ in range(args.steps):
            nxt: dict[str, float] = {}
            for s, p in outcomes.items():
                for t, q in grammar.pass_distribution(g, s).items():
                    nxt[t] = nxt.get(t, 0.0) + p * q
            outcomes = nxt
    else:
        outcomes = grammar.outcome_distribution(g, source, args.steps, position=args.position)
    rows = sorted(outcomes.items())
    if args.json:
        payload = {
            "from": source,
            "mode": args.mode,
            "steps": args.steps,
            "outcomes": [
                {"string": s, "probability": round_significant(p)} for s, p in rows
            ],
        }
        _emit(args, _json_dumps(payload))
    else:
        _emit(args, "\n".join(f"{s} {_fmt(p)}" for s, p in rows))
    return EXIT_OK


def _cmd_grammar_prob(args) -> int:
    g = grammar.parse_grammar(_read(args.file))
    source = args.source if args.source is not None else g.start
    if args.mode == "pass":
        outcomes = grammar.pass_distribution(g, source)
        probability = outcomes.get(args.target, 0.0)
        if args.json:
            _emit(
                args,
                _json_dumps(
                    {
                        "from": source,
                        "to": args.target,
                        "mode": "pass",
                        "probability": round_significant(probability),
                    }
                ),
            )
        else:
            _emit(args, _fmt(probability))
        return EXIT_OK
    relative, absolute = grammar.transition_probability(
        g, source, args.target, args.max_steps, position=args.position
    )
    if args.json:
        payload = {
            "from": source,
            "to": args.target,
            "mode": "step",
            "max_steps": args.max_steps,
            "relative": round_significant(relative),
            "absolute": round_significant(absolute),
        }
        _emit(args, _json_dumps(payload))
    else:
        _emit(args, f"relative: {_fmt(relative)}\nabsolute: {_fmt(absolute)}")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    build = {"hop": evolution.build_hop_hamiltonian, "adder": evolution.build_adder_hamiltonian}
    try:
        h = build[args.hamiltonian](args.modes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    start = deserialize(_read(args.state))
    evolved = evolution.evolve(h, start, args.time, args.order)
    table = []
    probs = probabilities(evolved) if evolved else {}
    for amp, state in evolved.terms:
        table.append(
            {
                "state": state_record(state),
                "amplitude": [round_significant(amp.real), round_significant(amp.imag)],
                "raw": round_significant(abs(amp) ** 2),
                "normalized": round_significant(probs.get(state, 0.0)),
            }
        )
    if args.json:
        _emit(args, _json_dumps({"state": json.loads(serialize(evolved)), "table": table}))
    else:
        lines = [serialize(evolved), ""]
        for row in table:
            state = row["state"]
            mem = ",".join(f"{a}:{v}" for a, v in sorted((int(a), v) for a, v in state["mem"].items()))
            lines.append(
                f"mem={{{mem}}} amplitude=[{_fmt(row['amplitude'][0])}, {_fmt(row['amplitude'][1])}]"
                f" raw={_fmt(row['raw'])} normalized={_fmt(row['normalized'])}"
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_superpose(args) -> int:
    programs = []
    for spec_text in args.term:
        path, sep, amp_text = spec_text.rpartition("@")
        if not sep:
            raise UsageError(f"term {spec_text!r} needs the form file@amplitude")
        try:
            amp = parse_amplitude(amp_text)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        programs.append((amp, qasm.parse_program(_read(path))))
    result = qasm.run_superposed(programs, _parse_input_list(args.input), fuel=args.fuel)
    if args.json:
        _emit(args, _json_dumps(_run_result_payload(result)))
    else:
        probs = probabilities(result.final)
        lines = []
        for amp, state in result.final.terms:
            lines.append(f"{_state_label(state)} probability={_fmt(probs[state])}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_bit_verify(args) -> int:
    relations = []
    ok_all = True
    modes = args.modes
    for i in range(modes):
        for j in range(modes):
            ok = bitlevel.anticommutator_is_delta(i, j, modes)
            ok_all &= ok
            relations.append((f"{{b_{i}, b_{j}+}} = delta", ok))
    mixed_ok = all(
        bitlevel.anticommutator_vanishes(i, j, modes, daggered)
        for i in range(modes)
        for j in range(modes)
        for daggered in (False, True)
    )
    ok_all &= mixed_ok
    relations.append(("{b_i, b_j} = 0 and {b_i+, b_j+} = 0", mixed_ok))
    idem_ok = all(bitlevel.number_is_idempotent(m, modes) for m in range(modes))
    ok_all &= idem_ok
    relations.append(("number operators idempotent", idem_ok))
    for kind in bitlevel.SIMPLIFIED_KINDS:
        report = bitlevel.verify_bit_semantics(kind, mode_count=min(modes, 3))
        ok_all &= report.passed
        relations.append((f"{kind} closed form value semantics", report.passed))
    if args.json:
        payload = {
            "modes": modes,
            "relations": [{"relation": name, "passed": ok} for name, ok in relations],
            "passed": ok_all,
        }
        _emit(args, _json_dumps(payload))
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in relations]
        lines.append(f"{'PASS' if ok_all else 'FAIL'} overall")
        _emit(args, "\n".join(lines))
    return EXIT_OK if ok_all else EXIT_RUNTIME


def _cmd_qc_compile(args) -> int:
    ast = qcc.parse_c(_read(args.file))
    program = qcc.lower_to_qasm(ast, window=args.window)
    if args.emit == "qasm":
        has_pointers = _uses_pointers(ast)
        listing = qasm.disassemble(program, raw_addresses=has_pointers)
        if args.json:
            payload = {"listing": listing, "symbols": program.symbols}
            _emit(args, _json_dumps(payload))
        else:
            _emit(args, listing)
    else:
        try:
            expr = qasm.compile_sequential(program)
        except JumpsNotSupported:
            expr = qasm.compile_guarded(program, fuel=args.fuel)
        if args.json:
            _emit(args, _json_dumps({"expression": sexpr(expr)}))
        else:
            _emit(args, sexpr(expr))
    return EXIT_OK


def _uses_pointers(ast: qcc.CAst) -> bool:
    def expr_uses(expr) -> bool:
        if isinstance(expr, (qcc.AddressOf, qcc.Deref)):
            return True
        if isinstance(expr, qcc.Binary):
            return expr_uses(expr.left) or expr_uses(expr.right)
        if isinstance(expr, (qcc.BitNot, qcc.Shift)):
            return expr_uses(expr.expr)
        return False

    for stmt in ast.statements:
        if isinstance(stmt, qcc.DerefAssign):
            return True
        if isinstance(stmt, qcc.Assign) and expr_uses(stmt.expr):
            return True
        if isinstance(stmt, (qcc.OutputStmt, qcc.IfZeroGoto)) and expr_uses(stmt.expr):
            return True
    return False


def _cmd_qc_run(args) -> int:
    program = qcc.compile_c(_read(args.file), window=args.window)
    result = _execute(program, args)
    if args.json:
        _emit(args, _json_dumps(_run_result_payload(result)))
    else:
        _emit(args, _render_run_result(result))
    return EXIT_OK


def _cmd_sample(args) -> int:
    state = deserialize(_read(args.file))
    counts = sample(state, args.count, args.seed)
    rows = sorted(counts.items(), key=lambda item: item[0])
    if args.json:
        payload = {
            "count": args.count,
            "seed": args.seed,
            "counts": [
                {"state": state_record(state), "count": n} for state, n in rows
            ],
        }
        _emit(args, _json_dumps(payload))
    else:
        _emit(args, "\n".join(f"{_state_label(state)} count={n}" for state, n in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_run_flags(parser) -> None:
    parser.add_argument("--input", default="", help="comma-separated input values")
    parser.add_argument("--mode", choices=["interp", "algebraic"], default="interp")
    parser.add_argument("--fuel", type=_int_at_least(0), default=qasm.DEFAULT_FUEL)
    parser.add_argument("--step-limit", type=_int_at_least(1), default=qasm.DEFAULT_STEP_LIMIT)


def _add_common(parser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--output", help="write results to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fockvm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble a program and print its listing")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("run", help="run an assembly program")
    p.add_argument("file")
    _add_run_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compile", help="print a program's operator expression")
    p.add_argument("file")
    p.add_argument("--form", choices=["sequential", "guarded"], default="sequential")
    p.add_argument("--fuel", type=_int_at_least(0), default=qasm.DEFAULT_FUEL)
    _add_common(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("grammar", help="grammar derivations and probabilities")
    gsub = p.add_subparsers(dest="grammar_command", required=True)

    g = gsub.add_parser("derive", help="outcome distribution after some steps")
    g.add_argument("file")
    g.add_argument("--from", dest="source", default=None)
    g.add_argument("--steps", type=_int_at_least(0), default=1)
    g.add_argument("--mode", choices=["step", "pass"], default="step")
    g.add_argument("--position", type=int, default=None)
    _add_common(g)
    g.set_defaults(func=_cmd_grammar_derive)

    g = gsub.add_parser("prob", help="transition probability between strings")
    g.add_argument("file")
    g.add_argument("--from", dest="source", default=None)
    g.add_argument("--to", dest="target", required=True)
    g.add_argument("--max-steps", type=_int_at_least(0), default=1)
    g.add_argument("--mode", choices=["step", "pass"], default="step")
    g.add_argument("--position", type=int, default=None)
    _add_common(g)
    g.set_defaults(func=_cmd_grammar_prob)

    p = sub.add_parser("evolve", help="evolve a state under a built-in Hamiltonian")
    p.add_argument("--hamiltonian", choices=["hop", "adder"], required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--state", required=True, help="state file in the canonical text format")
    p.add_argument("-t", "--time", type=float, default=0.1)
    p.add_argument("--order", type=_int_at_least(0), default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("superpose", help="run an amplitude-weighted set of programs")
    p.add_argument("term", nargs="+", help="program terms, each file@amplitude")
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=_int_at_least(0), default=qasm.DEFAULT_FUEL)
    _add_common(p)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("bit", help="bit-level relation suites")
    bsub = p.add_subparsers(dest="bit_command", required=True)
    b = bsub.add_parser("verify", help="anticommutation and semantics checks")
    b.add_argument("--modes", type=_int_at_least(2, at_most=bitlevel.MAX_VERIFY_MODES), default=6)
    _add_common(b)
    b.set_defaults(func=_cmd_bit_verify)

    p = sub.add_parser("qc", help="the C-like front end")
    qsub = p.add_subparsers(dest="qc_command", required=True)
    q = qsub.add_parser("compile", help="lower a source file")
    q.add_argument("file")
    q.add_argument("--emit", choices=["qasm", "opexpr"], default="qasm")
    q.add_argument("--window", type=int, default=qcc.DEFAULT_WINDOW)
    q.add_argument("--fuel", type=_int_at_least(0), default=qasm.DEFAULT_FUEL)
    _add_common(q)
    q.set_defaults(func=_cmd_qc_compile)
    q = qsub.add_parser("run", help="compile and run a source file")
    q.add_argument("file")
    q.add_argument("--window", type=int, default=qcc.DEFAULT_WINDOW)
    _add_run_flags(q)
    _add_common(q)
    q.set_defaults(func=_cmd_qc_run)

    p = sub.add_parser("sample", help="seeded measurement counts for a state file")
    p.add_argument("file")
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MachineError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())

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
import math
import sys

from . import bitlevel, evolution, grammar, qasm, qcc
from .errors import JumpsNotSupported, MachineError, ParseError
from .operators import sexpr
from .state import (
    SIGNIFICANT_DIGITS,
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

    def _get_values(self, action, arg_strings):
        # argparse drops "--" from a value before converting it, so before
        # Python 3.12 "--flag=--" parsed as an empty list instead of failing.
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def _fmt(x: float) -> str:
    return format(x, f".{SIGNIFICANT_DIGITS}g")


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
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"bad input list {text!r}, expected comma-separated integers") from None
    if any(value < 0 for value in values):
        raise UsageError(f"bad input list {text!r}, input values must be nonnegative")
    return values


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


def _finite_float(text: str) -> float:
    """argparse ``type=`` for a float flag that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # argparse reports malformed text as "invalid float value"


def _state_label(state: BasisState) -> str:
    mem = ",".join(f"{a}:{v}" for a, v in state.mem)
    out = ",".join(str(v) for v in state.output)
    return f"reg={state.register} pc={state.pc} fuel={state.fuel} mem={{{mem}}} out=[{out}]"


def _emit(args, result) -> None:
    """Write ``result`` to ``--output`` or stdout, ending in a newline.
    Text is written as it is, a ``--json`` payload as indented JSON with
    sorted keys."""
    text = result if isinstance(result, str) else json.dumps(result, indent=1, sort_keys=True)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_assemble(args) -> int:
    program = qasm.parse_program(_read(args.file))
    if args.json:
        _emit(args, {
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
        })
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


def _run(program: qasm.Program, args) -> int:
    """Run ``program`` on the back end ``--mode`` names and emit the result."""
    values = _parse_input_list(args.input)
    if args.mode == "interp":
        result = qasm.interpret(program, values, step_limit=args.step_limit)
    else:
        result = qasm.run_algebraic(program, values, fuel=args.fuel)
    _emit(args, _run_result_payload(result) if args.json else _render_run_result(result))
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run(qasm.parse_program(_read(args.file)), args)


def _cmd_compile(args) -> int:
    program = qasm.parse_program(_read(args.file))
    if args.form == "sequential":
        expr = qasm.compile_sequential(program)
    else:
        expr = qasm.compile_guarded(program, fuel=args.fuel)
    _emit(args, {"form": args.form, "expression": sexpr(expr)} if args.json else sexpr(expr))
    return EXIT_OK


def _read_grammar(args) -> tuple[grammar.Grammar, str]:
    """The grammar file and the source string of a ``grammar`` subcommand."""
    g = grammar.parse_grammar(_read(args.file))
    if args.mode == "pass" and g.mode != grammar.CLASSICAL:
        raise UsageError("--mode pass needs a classical grammar")
    return g, args.source if args.source is not None else g.start


def _cmd_grammar_derive(args) -> int:
    g, source = _read_grammar(args)
    if args.mode == "pass":
        outcomes = grammar.pass_outcomes(g, source, args.steps)
    else:
        outcomes = grammar.outcome_distribution(g, source, args.steps, position=args.position)
    rows = sorted(outcomes.items())
    if args.json:
        _emit(args, {
            "from": source,
            "mode": args.mode,
            "steps": args.steps,
            "outcomes": [
                {"string": s, "probability": round_significant(p)} for s, p in rows
            ],
        })
    else:
        _emit(args, "\n".join(f"{s} {_fmt(p)}" for s, p in rows))
    return EXIT_OK


def _cmd_grammar_prob(args) -> int:
    g, source = _read_grammar(args)
    if args.mode == "pass":
        probability = grammar.pass_distribution(g, source).get(args.target, 0.0)
        if args.json:
            _emit(args, {
                "from": source,
                "to": args.target,
                "mode": "pass",
                "probability": round_significant(probability),
            })
        else:
            _emit(args, _fmt(probability))
        return EXIT_OK
    relative, absolute = grammar.transition_probability(
        g, source, args.target, args.max_steps, position=args.position
    )
    if args.json:
        _emit(args, {
            "from": source,
            "to": args.target,
            "mode": "step",
            "max_steps": args.max_steps,
            "relative": round_significant(relative),
            "absolute": round_significant(absolute),
        })
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
        _emit(args, {"state": json.loads(serialize(evolved)), "table": table})
    else:
        lines = [serialize(evolved), ""]
        for (_, state), row in zip(evolved.terms, table):
            mem = ",".join(f"{a}:{v}" for a, v in state.mem)
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
        _emit(args, _run_result_payload(result))
    else:
        probs = probabilities(result.final)
        lines = []
        for amp, state in result.final.terms:
            lines.append(f"{_state_label(state)} probability={_fmt(probs[state])}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_bit_verify(args) -> int:
    relations = []
    modes = args.modes
    for i in range(modes):
        for j in range(modes):
            ok = bitlevel.anticommutator_is_delta(i, j, modes)
            relations.append((f"{{b_{i}, b_{j}+}} = delta", ok))
    mixed_ok = all(
        bitlevel.anticommutator_vanishes(i, j, modes, daggered)
        for i in range(modes)
        for j in range(modes)
        for daggered in (False, True)
    )
    relations.append(("{b_i, b_j} = 0 and {b_i+, b_j+} = 0", mixed_ok))
    idem_ok = all(bitlevel.number_is_idempotent(m, modes) for m in range(modes))
    relations.append(("number operators idempotent", idem_ok))
    for kind in bitlevel.SIMPLIFIED_KINDS:
        report = bitlevel.verify_bit_semantics(kind, mode_count=min(modes, 3))
        relations.append((f"{kind} closed form value semantics", report.passed))
    ok_all = all(ok for _, ok in relations)
    if args.json:
        _emit(args, {
            "modes": modes,
            "relations": [{"relation": name, "passed": ok} for name, ok in relations],
            "passed": ok_all,
        })
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in relations]
        lines.append(f"{'PASS' if ok_all else 'FAIL'} overall")
        _emit(args, "\n".join(lines))
    return EXIT_OK if ok_all else EXIT_RUNTIME


def _cmd_qc_compile(args) -> int:
    ast = qcc.parse_c(_read(args.file))
    program = qcc.lower_to_qasm(ast, window=args.window)
    if args.emit == "qasm":
        listing = qasm.disassemble(program, raw_addresses=qcc.uses_pointers(ast))
        _emit(args, {"listing": listing, "symbols": program.symbols} if args.json else listing)
        return EXIT_OK
    try:
        expr = qasm.compile_sequential(program)
    except JumpsNotSupported:
        expr = qasm.compile_guarded(program, fuel=args.fuel)
    _emit(args, {"expression": sexpr(expr)} if args.json else sexpr(expr))
    return EXIT_OK


def _cmd_qc_run(args) -> int:
    return _run(qcc.compile_c(_read(args.file), window=args.window), args)


def _cmd_sample(args) -> int:
    state = deserialize(_read(args.file))
    counts = sample(state, args.count, args.seed)
    rows = sorted(counts.items(), key=lambda item: item[0])
    if args.json:
        _emit(args, {
            "count": args.count,
            "seed": args.seed,
            "counts": [{"state": state_record(state), "count": n} for state, n in rows],
        })
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
    g.add_argument("--position", type=_int_at_least(0), default=None)
    _add_common(g)
    g.set_defaults(func=_cmd_grammar_derive)

    g = gsub.add_parser("prob", help="transition probability between strings")
    g.add_argument("file")
    g.add_argument("--from", dest="source", default=None)
    g.add_argument("--to", dest="target", required=True)
    g.add_argument("--max-steps", type=_int_at_least(0), default=1)
    g.add_argument("--mode", choices=["step", "pass"], default="step")
    g.add_argument("--position", type=_int_at_least(0), default=None)
    _add_common(g)
    g.set_defaults(func=_cmd_grammar_prob)

    p = sub.add_parser("evolve", help="evolve a state under a built-in Hamiltonian")
    p.add_argument("--hamiltonian", choices=["hop", "adder"], required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--state", required=True, help="state file in the canonical text format")
    p.add_argument("-t", "--time", type=_finite_float, default=0.1)
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
    q.add_argument("--window", type=_int_at_least(1), default=qcc.DEFAULT_WINDOW)
    q.add_argument("--fuel", type=_int_at_least(0), default=qasm.DEFAULT_FUEL)
    _add_common(q)
    q.set_defaults(func=_cmd_qc_compile)
    q = qsub.add_parser("run", help="compile and run a source file")
    q.add_argument("file")
    q.add_argument("--window", type=_int_at_least(1), default=qcc.DEFAULT_WINDOW)
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

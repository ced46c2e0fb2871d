import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockvm.cli import main
from fockvm.qcc import MAX_EXPR_DEPTH
from test_qasm import COUNTING_LOOP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_add_program(self, capsys, data_dir):
        code, out, err = run_cli(capsys, "run", str(data_dir / "add.qasm"), "--input", "2,3")
        assert code == 0
        assert "output: [5]" in out
        assert err == ""

    def test_algebraic_mode(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "run",
            str(data_dir / "add.qasm"),
            "--input",
            "2,3",
            "--mode",
            "algebraic",
        )
        assert code == 0 and "output: [5]" in out

    def test_fuel_exhaustion_exit_code(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys,
            "run",
            str(data_dir / "tzr.qasm"),
            "--input",
            "0,4",
            "--mode",
            "algebraic",
            "--fuel",
            "10",
        )
        assert code == 3
        assert "FuelExhausted" in err
        assert out == ""

    def test_json_output_parses(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "run", str(data_dir / "add.qasm"), "--input", "2,3", "--json"
        )
        payload = json.loads(out)
        assert payload["terms"][0]["state"]["output"] == [5]
        assert payload["terms"][0]["halted"] is True

    def test_deterministic_output(self, capsys, data_dir):
        args = ("run", str(data_dir / "add.qasm"), "--input", "2,3", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("FROB x\nHALT\n")
        code, out, err = run_cli(capsys, "assemble", str(bad))
        assert code == 2 and "parse error" in err

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 4

    def test_missing_file_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "assemble", "/nonexistent/file.qasm")
        assert code == 4

    def test_runtime_error(self, capsys, tmp_path):
        prog = tmp_path / "div.qasm"
        prog.write_text("LOAD #1\nDIVIDE a\nHALT\n")
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 3 and "DivideByZero" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "data/one_quantum.state", "--count", "-1"),
            ("run", "data/add.qasm", "--step-limit", "0"),
            ("run", "data/add.qasm", "--fuel", "-1"),
            ("compile", "data/add.qasm", "--fuel", "-1"),
            ("superpose", "data/add.qasm@1", "--fuel", "-1"),
            ("qc", "run", "data/add.qc", "--fuel", "-1"),
            ("qc", "compile", "data/add.qc", "--fuel", "-1"),
            ("grammar", "prob", "data/xy.g", "--to", "xy", "--max-steps", "-1"),
            ("grammar", "derive", "data/xy.g", "--steps", "-1"),
            ("evolve", "--hamiltonian", "hop", "--modes", "4", "--state", "data/one_quantum.state", "--order", "-1"),
            ("evolve", "--hamiltonian", "hop", "--modes", "1", "--state", "data/one_quantum.state"),
            ("evolve", "--hamiltonian", "adder", "--modes", "2", "--state", "data/one_quantum.state"),
            ("bit", "verify", "--modes", "1"),
            ("bit", "verify", "--modes", "9"),
            ("superpose", "data/add.qasm@nan", "--input", "2,3"),
            ("superpose", "data/add.qasm@(1,inf)", "--input", "2,3"),
            ("evolve", "--hamiltonian", "hop", "--modes", "12", "--state", "data/one_quantum.state", "-t", "nan"),
            ("evolve", "--hamiltonian", "hop", "--modes", "12", "--state", "data/one_quantum.state", "-t", "inf"),
            ("evolve", "--hamiltonian", "hop", "--modes", "12", "--state", "data/one_quantum.state", "-t=-inf"),
            ("qc", "run", "data/add.qc", "--input", "1,2", "--window", "-5"),
            ("qc", "compile", "data/pointer.qc", "--window", "-3"),
            ("qc", "compile", "data/pointer.qc", "--window", "0"),
            ("grammar", "derive", "data/xy.g", "--from", "xy", "--position", "-1"),
            ("grammar", "prob", "data/xy.g", "--from", "xy", "--to", "xxy", "--position", "-1"),
            ("grammar", "derive", "data/interference.g", "--mode", "pass"),
            ("grammar", "prob", "data/interference.g", "--to", "x", "--mode", "pass"),
            ("evolve", "--hamiltonian", "hop", "--modes=--", "--state", "data/one_quantum.state"),
            ("evolve", "--hamiltonian=--", "--modes", "4", "--state", "data/one_quantum.state"),
            ("sample", "data/one_quantum.state", "--count=--"),
            ("run", "data/add.qasm", "--input=--"),
            ("run", "data/add.qasm", "--input=-3,2", "--mode", "algebraic"),
            ("run", "data/add.qasm", "--input=-3,2", "--mode", "interp"),
            ("qc", "run", "data/add.qc", "--input=2,-3"),
            ("superpose", "data/add.qasm@1", "--input=-3,2"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_values_are_usage_errors(self, capsys, monkeypatch, data_dir, argv):
        monkeypatch.chdir(data_dir.parent)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--hamiltonian", "hop", "--modes", "12", "--state", "data/one_quantum.state", "-t", "1e300", "--order", "3"),
            ("evolve", "--hamiltonian", "hop", "--modes", "12", "--state", "data/one_quantum.state", "-t", "1e30", "--order", "8"),
            ("evolve", "--hamiltonian", "hop", "--modes", "4", "--state", "{big}", "-t", "1e150", "--order", "2"),
            ("sample", "{big}", "--count", "3"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_overflow_is_a_runtime_error(self, capsys, monkeypatch, data_dir, tmp_path, argv):
        big = tmp_path / "big.state"
        big.write_text('[{"amplitude": [1e200, 0], "mem": {"0": 1}}]')
        monkeypatch.chdir(data_dir.parent)
        code, out, err = run_cli(capsys, *(arg.format(big=big) for arg in argv))
        assert code == 3 and out == ""
        assert err.startswith("runtime error: NonFiniteAmplitude: ") and err.count("\n") == 1

    @pytest.mark.parametrize("amp", ["[NaN, 0]", "[0, Infinity]"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "{path}", "--count", "3"),
            ("evolve", "--hamiltonian", "hop", "--modes", "4", "--state", "{path}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_state_file_is_a_parse_error(self, capsys, tmp_path, amp, argv):
        path = tmp_path / "bad.state"
        path.write_text(f'[{{"amplitude": {amp}, "mem": {{"0": 1}}}}]')
        code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "text",
        [
            "[" + "[" * 959 + "]" * 959 + "]",
            '[{"amplitude": [1, 0], "fuel": "' + "x" * 2**20 + '"}]',
            '[{"amplitude": [1, 0], "register": ' + "1" * 5000 + "}]",
        ],
        ids=["deep", "long", "over-digit-limit"],
    )
    def test_bad_state_file_gives_one_short_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.state"
        path.write_text(text)
        code, out, err = run_cli(capsys, "sample", str(path), "--count", "3")
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1 and len(err) < 200


class TestAssembleCompile:
    def test_assemble_listing(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "assemble", str(data_dir / "add.qasm"))
        assert code == 0
        assert "symbols: x=0 y=1 z=2" in out

    def test_assemble_json(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "assemble", str(data_dir / "add.qasm"), "--json")
        payload = json.loads(out)
        assert payload["symbols"] == {"x": 0, "y": 1, "z": 2}
        assert len(payload["instructions"]) == 7

    def test_compile_sequential_dump(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "compile", str(data_dir / "add.qasm"))
        assert code == 0
        assert out.startswith("(Product (Bra)")

    def test_compile_guarded_on_jumps(self, capsys, data_dir):
        code, out, err = run_cli(capsys, "compile", str(data_dir / "tzr.qasm"))
        assert code == 3
        code, out, _ = run_cli(
            capsys, "compile", str(data_dir / "tzr.qasm"), "--form", "guarded"
        )
        assert code == 0 and "(Define program" in out


class TestGrammarCommands:
    def test_prob_pass_mode(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "grammar",
            "prob",
            str(data_dir / "coin.g"),
            "--from",
            "hh",
            "--to",
            "tt",
            "--mode",
            "pass",
        )
        assert code == 0
        assert out.strip() == "0.25"

    def test_prob_step_mode(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "grammar",
            "prob",
            str(data_dir / "xy.g"),
            "--from",
            "xy",
            "--to",
            "xxy",
            "--position",
            "0",
        )
        assert code == 0
        assert "relative: 0.75" in out and "absolute: 0.75" in out

    def test_derive(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "grammar",
            "derive",
            str(data_dir / "coin.g"),
            "--from",
            "hh",
            "--mode",
            "pass",
            "--json",
        )
        payload = json.loads(out)
        assert {row["string"]: row["probability"] for row in payload["outcomes"]} == {
            "hh": 0.25,
            "ht": 0.25,
            "th": 0.25,
            "tt": 0.25,
        }

    def test_interference_grammar(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "grammar",
            "prob",
            str(data_dir / "interference.g"),
            "--from",
            "a",
            "--to",
            "c",
        )
        assert code == 0
        assert "absolute: 0" in out


class TestEvolveSample:
    def test_evolve_json(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "evolve",
            "--hamiltonian",
            "hop",
            "--modes",
            "10",
            "--state",
            str(data_dir / "one_quantum.state"),
            "-t",
            "0.1",
            "--order",
            "8",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        amps = {
            next(iter(row["state"]["mem"])): row["amplitude"]
            for row in payload["table"]
        }
        assert amps["1"][1] == pytest.approx(-0.1)

    def test_evolve_at_order_200(self, capsys, monkeypatch, data_dir):
        monkeypatch.chdir(data_dir.parent)
        code, out, err = run_cli(
            capsys, "evolve", "--hamiltonian", "adder", "--modes", "4",
            "--state", "data/one_quantum.state", "-t", "0.1", "--order", "200",
        )
        assert code == 0 and out and err == ""

    def test_sample_deterministic(self, capsys, data_dir):
        args = (
            "sample",
            str(data_dir / "one_quantum.state"),
            "--count",
            "50",
            "--seed",
            "4",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0 and "count=50" in first
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSuperpose:
    def test_equal_weights(self, capsys, data_dir, tmp_path):
        files = []
        for value in (1, 2, 3):
            path = tmp_path / f"w{value}.qasm"
            path.write_text(f"LOAD #{value}\nSTORE a\nHALT\n")
            files.append(f"{path}@{1 / math.sqrt(3)!r}")
        code, out, _ = run_cli(capsys, "superpose", *files)
        assert code == 0
        assert out.count("probability=0.333333333333") == 3

    def test_norm_violation(self, capsys, tmp_path):
        path = tmp_path / "w.qasm"
        path.write_text("LOAD #1\nSTORE a\nHALT\n")
        code, _, err = run_cli(capsys, "superpose", f"{path}@0.5")
        assert code == 3 and "NormViolation" in err


class TestQcCommands:
    def test_compile_listing(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "qc", "compile", str(data_dir / "add.qc"))
        assert code == 0
        assert "LOAD b" in out and "ADD c" in out and "STORE a" in out

    def test_pointer_listing_uses_raw_addresses(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "qc", "compile", str(data_dir / "pointer.qc"), "--window", "8"
        )
        assert code == 0
        assert "[0]" in out

    def test_run(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "qc", "run", str(data_dir / "add.qc"), "--input", "2,3"
        )
        assert code == 0 and "output: [5]" in out

    def test_pointer_run(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys,
            "qc",
            "run",
            str(data_dir / "pointer.qc"),
            "--window",
            "8",
            "--mode",
            "algebraic",
        )
        assert code == 0 and "output: [99, 99]" in out

    def test_emit_opexpr(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "qc", "compile", str(data_dir / "add.qc"), "--emit", "opexpr"
        )
        assert code == 0 and out.startswith("(Product")


    @pytest.mark.parametrize("command", ["compile", "run"])
    @pytest.mark.parametrize(
        "source",
        [
            "a = " + "~" * 1500 + "1;\n",
            "a = " + "(" * 400 + "1" + ")" * 400 + ";\n",
            "a = " + "+".join(["b"] * 3000) + ";\n",
        ],
        ids=["1500-bit-nots", "400-parentheses", "3000-term-sum"],
    )
    def test_too_deep_expression_is_a_parse_error(self, capsys, tmp_path, command, source):
        path = tmp_path / "deep.qc"
        path.write_text(source)
        code, out, err = run_cli(capsys, "qc", command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert f"nested deeper than {MAX_EXPR_DEPTH} levels" in err


class TestPoolWordStores:
    """A store into a constant-pool word changes that constant for every
    later immediate, in both modes. The pool word of #1 is address 2, and
    p + 2 is the pool word of 2."""

    QASM = "LOAD #9\nSTORE [2]\nLOAD x\nADD #1\nSTORE y\nOUTPUT y\nHALT\n"
    QC = "input(a); b = a + 2; p = &b; *(p + 2) = 40; b = b + 2; output(b); halt;\n"

    @pytest.mark.parametrize("mode", ["interp", "algebraic"])
    def test_assembly(self, capsys, tmp_path, mode):
        path = tmp_path / "pool.qasm"
        path.write_text(self.QASM)
        code, out, err = run_cli(capsys, "run", str(path), "--mode", mode)
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == ["output: [9]", "register: 9", "memory: {1: 9, 2: 9, 3: 9}"]

    @pytest.mark.parametrize("mode", ["interp", "algebraic"])
    def test_c_pointer(self, capsys, tmp_path, mode):
        path = tmp_path / "pool.qc"
        path.write_text(self.QC)
        code, out, err = run_cli(capsys, "qc", "run", str(path), "--input", "1", "--mode", mode)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["output: [43]", "register: 43"]


class TestCountingLoop:
    """n = 300 iterations make 300 backward jumps; an algebraic run needs
    exactly that much fuel and has no other depth limit."""

    @pytest.mark.parametrize("fuel", ["300", "301"])
    def test_enough_fuel_matches_the_interpreter(self, capsys, tmp_path, fuel):
        path = tmp_path / "count.qasm"
        path.write_text(COUNTING_LOOP)
        code, want, _ = run_cli(capsys, "run", str(path), "--input", "300,4,13")
        assert code == 0
        code, got, err = run_cli(
            capsys, "run", str(path), "--input", "300,4,13", "--mode", "algebraic", "--fuel", fuel
        )
        assert code == 0 and err == ""
        assert got.splitlines()[:3] == want.splitlines()[:3] == [
            "output: [45150]",
            "register: 0",
            "memory: {1: 4, 2: 13, 3: 45150, 4: 1}",
        ]

    def test_one_fuel_unit_short_is_a_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "count.qasm"
        path.write_text(COUNTING_LOOP)
        code, out, err = run_cli(
            capsys, "run", str(path), "--input", "300,4,13", "--mode", "algebraic", "--fuel", "299"
        )
        assert code == 3 and out == ""
        assert err.startswith("runtime error: FuelExhausted: ") and err.count("\n") == 1


# Generated input files, one strategy per file format. Each mixes lines
# built from the format's grammar with lines of loose tokens. Integers stay
# at most 10^3, and runs get small step, fuel and window limits, so the test
# probes parsing and validation rather than resource limits.
_INTS = st.integers(-1, 1000).map(str)


def _mostly(good, bad):
    """``good`` four times in five, else ``bad``."""
    return st.integers(0, 4).flatmap(lambda roll: good if roll else bad)


def _text(line, junk, last=""):
    """Lines drawn mostly from ``line``, sometimes from loose ``junk`` tokens,
    and half the time a ``last`` line."""
    lines = st.lists(_mostly(line, st.lists(junk, max_size=4).map(" ".join)), min_size=1, max_size=8)
    return st.tuples(lines.map("\n".join), st.sampled_from(["", last])).map("\n".join)


def _joined(*parts):
    return st.tuples(*parts).map(" ".join)


_ADDRESSES = st.one_of(st.sampled_from(["x", "y", "t"]), _INTS.map("[{}]".format))
_QASM = _text(
    st.one_of(
        _joined(st.sampled_from(["HALT", "NOT"])),
        _joined(st.just("SHIFT"), _INTS),
        _joined(st.sampled_from(["STORE", "INPUT", "OUTPUT", "TRA", "TZR"]), _ADDRESSES),
        _joined(st.sampled_from(["LOAD", "ADD", "SUBTRACT", "MULTIPLY", "DIVIDE", "AND", "OR"]),
                st.one_of(_ADDRESSES, _INTS.map("#{}".format))),
    ),
    st.one_of(st.sampled_from(["LOAD", "HALT", "TRA", "frob", "x", "#", "#x", "[x]", ";", "7"]), _INTS),
    last="HALT",
)

_QC_EXPR = st.recursive(
    st.one_of(st.sampled_from(["a", "b", "p", "&a", "&p"]), _INTS),
    lambda inner: st.one_of(
        _joined(inner, st.sampled_from(["+", "-", "*", "/", "&", "|"]), inner),
        _joined(inner, st.sampled_from(["<<", ">>"]), st.sampled_from(["1", "3", "a"])),
        _joined(st.sampled_from(["~", "*"]), inner),
        inner.map("({})".format),
    ),
    max_leaves=6,
)
_QC = _text(
    st.one_of(
        _QC_EXPR.map("a = {};".format),
        _QC_EXPR.map("p = {};".format),
        _QC_EXPR.map("*p = {};".format),
        _QC_EXPR.map("output({});".format),
        _QC_EXPR.map("if ({} == 0) goto L;".format),
        st.sampled_from(["L:", "goto L;", "input(a);", "input(p);", "halt;", "// note"]),
    ),
    st.one_of(st.sampled_from(["a", "=", ";", ":", "(", ")", "==", "goto", "M", "$", "//"]), _INTS),
    last="L: halt;",
)

_SYMBOLS = st.text("Sxy", min_size=1, max_size=3)
_GRAMMAR = st.tuples(
    st.sampled_from(["", "", "mode: classical\n", "mode: quantum\n", "mode: quantum\n", "mode: other\n"]),
    st.sampled_from(["start: S\n", "start: S\n", "start: xy\n", "start: xy\n", "start:\n", ""]),
    _text(
        _joined(st.just("rule:"), _SYMBOLS, st.just("->"), _SYMBOLS,
                st.one_of(st.just(""), _INTS.map("@ {}".format),
                          st.sampled_from(["@ 0.5", "@ (1,2)", "@ (0,-1)", "@ nan", "@ 1e400", "@"]))),
        st.sampled_from(["start:", "rule:", "->", "@", "S", "x", "# note"]),
    ),
).map("".join)

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(-1e3, 1e3), st.sampled_from(["0", "x"]))
_JSON_INTS = _mostly(st.integers(-1, 1000), _JSON_SCALARS)
_JSON_INT_LISTS = _mostly(st.lists(st.integers(-1, 1000), max_size=3), _JSON_SCALARS)
_STATE_RECORD = st.fixed_dictionaries(
    {"amplitude": _mostly(st.lists(st.floats(-2, 2), min_size=2, max_size=2).filter(any), _JSON_SCALARS)},
    optional={
        "register": _JSON_INTS,
        "pc": _JSON_INTS,
        "fuel": _JSON_INTS,
        "mem": _mostly(st.dictionaries(st.sampled_from(["0", "1", "3", "-1", "x"]), _JSON_INTS, max_size=3),
                       _JSON_SCALARS),
        "input": _JSON_INT_LISTS,
        "output": _JSON_INT_LISTS,
        "other": _JSON_SCALARS,
    },
)
# Lists or objects nested deeper than the JSON decoder's recursion allows.
_DEEP_JSON = st.builds(
    lambda depth, nest: nest[0] * depth + nest[1] + nest[2] * depth,
    st.integers(1000, 5000),
    st.sampled_from([("[", "", "]"), ('{"a": ', "0", "}")]),
)
_STATE = _mostly(
    st.lists(_STATE_RECORD, max_size=3).map(json.dumps),
    st.one_of(
        st.lists(st.sampled_from(["[", "]", "{", "}", ",", ":", '"amplitude"', '"mem"', '"0"',
                                  "[1, 0]", "NaN", "Infinity", "1e400", "null"]), max_size=12).map(" ".join),
        _DEEP_JSON,
    ),
)
_RUN = ("--input", "1,2,3", "--fuel", "2", "--step-limit", "30")
_CONTRACT_CASES = {
    "assemble": (_QASM, ("assemble", "{}"), {}),
    "run": (_QASM, ("run", "{}", *_RUN), {"--mode": ["interp", "algebraic"]}),
    "compile": (_QASM, ("compile", "{}"), {"--form": ["sequential", "guarded"]}),
    "qc compile": (_QC, ("qc", "compile", "{}", "--window", "4"), {"--emit": ["qasm", "opexpr"]}),
    "qc run": (_QC, ("qc", "run", "{}", "--window", "4", *_RUN), {"--mode": ["interp", "algebraic"]}),
    "grammar derive": (_GRAMMAR, ("grammar", "derive", "{}", "--steps", "2"), {"--mode": ["step", "pass"]}),
    "grammar prob": (_GRAMMAR, ("grammar", "prob", "{}", "--to", "xy", "--max-steps", "2"), {"--mode": ["step", "pass"]}),
    "sample": (_STATE, ("sample", "{}", "--count", "3"), {}),
    "evolve --state": (_STATE, ("evolve", "--hamiltonian", "hop", "--modes", "4", "--order", "2", "--state", "{}"), {}),
}

# Generated flag values, each subcommand reading a valid file from data/:
# integers and floats in a small range around the valid values, input lists,
# and malformed text, passed as ``--flag=value`` so a value may start with "-".
_MALFORMED = st.sampled_from(
    ["", "x", "1.5", "1e2", "1e400", "-1e400", "nan", "inf", "-inf", "0x10", "1_0", " 3 ", "+2", "-0", "--", "\u0663"]
)


def _flag_value(low, high):
    """An integer or float in ``[low, high]``, or malformed text."""
    return st.one_of(
        st.integers(low, high).map(str),
        st.floats(low, high).map(str),
        _MALFORMED,
    )


_FUEL = {"--fuel": _flag_value(-2, 12)}
_WINDOW = {"--window": _flag_value(-2, 8)}
# Input lists: comma-joined integers in [-3, 9], or malformed text.
_INPUT = {"--input": st.one_of(st.lists(st.integers(-3, 9).map(str), max_size=4).map(",".join), _MALFORMED)}
_FLAG_CASES = {
    "run": (("run", "{data}/add.qasm", "--step-limit", "30"), {**_FUEL, **_INPUT}),
    "compile": (("compile", "{data}/add.qasm"), _FUEL),
    "qc compile": (("qc", "compile", "{data}/add.qc"), _WINDOW),
    "qc run": (("qc", "run", "{data}/add.qc", "--step-limit", "30"), {**_WINDOW, **_FUEL, **_INPUT}),
    "superpose": (("superpose", "{data}/add.qasm@1"), {**_FUEL, **_INPUT}),
    "grammar derive": (("grammar", "derive", "{data}/coin.g"), {"--steps": _flag_value(-2, 2)}),
    "sample": (("sample", "{data}/one_quantum.state"), {"--count": _flag_value(-2, 50)}),
    "evolve --state": (("evolve", "--hamiltonian", "hop", "--state", "{data}/one_quantum.state"),
                       {"--modes": _flag_value(-2, 8), "--order": _flag_value(-2, 6), "-t": _flag_value(-1e3, 1e3)}),
}


def _assert_documented_exit(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n")


class TestCliContract:
    """Every file a subcommand reads, and every value of its numeric and
    input-list flags, ends in exit 0, 2, 3 or 4, never a traceback, and a
    nonzero exit prints exactly one diagnostic line."""

    @pytest.mark.parametrize("command", list(_CONTRACT_CASES))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_file_gives_a_documented_exit(self, capsys, tmp_path, command, data):
        text_strategy, argv, choices = _CONTRACT_CASES[command]
        path = tmp_path / "input"
        path.write_text(data.draw(text_strategy, label="file") + "\n")
        argv = [arg.format(path) for arg in argv]
        for flag, values in choices.items():
            argv += [flag, data.draw(st.sampled_from(values), label=flag)]
        if data.draw(st.booleans(), label="--json"):
            argv.append("--json")
        _assert_documented_exit(capsys, argv)

    @pytest.mark.parametrize("command", list(_FLAG_CASES))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_flag_value_gives_a_documented_exit(self, capsys, data_dir, command, data):
        argv, flags = _FLAG_CASES[command]
        argv = [arg.format(data=data_dir) for arg in argv]
        for flag, values in flags.items():
            argv.append(f"{flag}={data.draw(values, label=flag)}")
        if data.draw(st.booleans(), label="--json"):
            argv.append("--json")
        _assert_documented_exit(capsys, argv)


class TestBitVerify:
    def test_all_relations_pass(self, capsys):
        code, out, _ = run_cli(capsys, "bit", "verify", "--modes", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(row["passed"] for row in payload["relations"])


class TestOutputFile:
    def test_write_to_path(self, capsys, data_dir, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(
            capsys,
            "run",
            str(data_dir / "add.qasm"),
            "--input",
            "2,3",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert "output: [5]" in target.read_text()

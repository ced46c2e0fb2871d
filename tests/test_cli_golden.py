"""Golden CLI and demo-script outputs: stdout and exit code must stay
byte-identical.

Each CLI case runs ``fockvm`` in-process from the repository root; each demo
script in ``scripts/`` runs as a subprocess with ``src`` on its path. Both
compare the exit code and stdout with ``tests/golden/<name>.txt``, whose
first line is ``exit: <code>`` and whose remainder is the exact stdout. To
re-record after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fockvm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

HOP = ("evolve", "--hamiltonian", "hop", "--modes", "10", "--state", "data/one_quantum.state")
ADDER = ("evolve", "--hamiltonian", "adder", "--modes", "4", "--state", "data/one_quantum.state")

CASES = {
    "assemble": ("assemble", "data/add.qasm"),
    "assemble-json": ("assemble", "data/add.qasm", "--json"),
    "assemble-tzr": ("assemble", "data/tzr.qasm"),
    "run-interp": ("run", "data/add.qasm", "--input", "2,3", "--mode", "interp"),
    "run-interp-json": ("run", "data/add.qasm", "--input", "2,3", "--json"),
    "run-algebraic": ("run", "data/add.qasm", "--input", "2,3", "--mode", "algebraic", "--fuel", "10"),
    "run-algebraic-json": ("run", "data/add.qasm", "--input", "2,3", "--mode", "algebraic", "--json"),
    "run-tzr-jump": ("run", "data/tzr.qasm", "--input", "0,8", "--mode", "algebraic"),
    "run-tzr-fuel-exhausted": ("run", "data/tzr.qasm", "--input", "0,4", "--mode", "algebraic"),
    "compile": ("compile", "data/add.qasm"),
    "compile-json": ("compile", "data/add.qasm", "--json"),
    "compile-guarded": ("compile", "data/tzr.qasm", "--form", "guarded"),
    "compile-guarded-json": ("compile", "data/tzr.qasm", "--form", "guarded", "--fuel", "3", "--json"),
    "derive-pass": ("grammar", "derive", "data/coin.g", "--from", "hh", "--mode", "pass"),
    "derive-pass-json": ("grammar", "derive", "data/coin.g", "--from", "hh", "--mode", "pass", "--steps", "2", "--json"),
    "derive-step": ("grammar", "derive", "data/xy.g", "--steps", "3"),
    "derive-step-json": ("grammar", "derive", "data/particles.g", "--steps", "2", "--json"),
    "prob-pass": ("grammar", "prob", "data/coin.g", "--from", "hh", "--to", "tt", "--mode", "pass"),
    "prob-pass-json": ("grammar", "prob", "data/coin.g", "--from", "hh", "--to", "tt", "--mode", "pass", "--json"),
    "prob-position": ("grammar", "prob", "data/xy.g", "--from", "xy", "--to", "xxy", "--position", "0"),
    "prob-step-json": ("grammar", "prob", "data/interference.g", "--to", "b", "--json"),
    "evolve-hop": (*HOP, "-t", "0.1", "--order", "8"),
    "evolve-hop-json": (*HOP, "--order", "4", "--json"),
    "evolve-adder": (*ADDER, "--order", "3"),
    "evolve-adder-json": (*ADDER, "-t", "0.3", "--order", "3", "--json"),
    "superpose": ("superpose", "data/add.qasm@0.6", "data/add.qasm@(0,0.8)", "--input", "2,3"),
    "superpose-json": ("superpose", "data/add.qasm@0.6", "data/tzr.qasm@(0,0.8)", "--input", "2,3", "--json"),
    "bit-verify": ("bit", "verify", "--modes", "6"),
    "bit-verify-json": ("bit", "verify", "--modes", "3", "--json"),
    "qc-compile": ("qc", "compile", "data/add.qc"),
    "qc-compile-json": ("qc", "compile", "data/add.qc", "--json"),
    "qc-compile-pointer": ("qc", "compile", "data/pointer.qc"),
    "qc-compile-opexpr": ("qc", "compile", "data/add.qc", "--emit", "opexpr"),
    "qc-compile-opexpr-json": ("qc", "compile", "data/pointer.qc", "--emit", "opexpr", "--window", "8", "--json"),
    "qc-run": ("qc", "run", "data/pointer.qc", "--mode", "algebraic"),
    "qc-run-json": ("qc", "run", "data/add.qc", "--input", "4,5", "--mode", "algebraic", "--json"),
    "sample": ("sample", "data/one_quantum.state", "--count", "10000", "--seed", "7"),
    "sample-json": ("sample", "data/one_quantum.state", "--count", "100", "--seed", "3", "--json"),
}

SCRIPTS = {
    f"script-{path.stem}": path for path in sorted((ROOT / "scripts").glob("*.py"))
}


def invoke(argv: tuple[str, ...]) -> str:
    """Run the CLI from the repository root; return the golden-file text."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return f"exit: {code}\n{out.getvalue()}"


def run_script(path: Path) -> str:
    """Run a demo script from the repository root; return the golden-file text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, timeout=60
    )
    return f"exit: {done.returncode}\n{done.stdout.decode('utf-8')}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert invoke(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_golden_script_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_script(SCRIPTS[name]) == expected


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(invoke(argv), encoding="utf-8")
    for name, path in sorted(SCRIPTS.items()):
        (GOLDEN / f"{name}.txt").write_text(run_script(path), encoding="utf-8")


if __name__ == "__main__":
    record()

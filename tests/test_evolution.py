import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fockvm.errors import (
    NonFiniteAmplitude,
    StateSpaceTooLarge,
    SubtractUnderflow,
    TruncationOverflow,
)
from fockvm import evolution
from fockvm.evolution import (
    assembly_hop_term,
    build_adder_hamiltonian,
    build_hop_hamiltonian,
    dense_oracle_evolve,
    evolve,
    ladder_via_register,
)
from fockvm.operators import (
    Identity,
    Lower,
    Mem,
    Product,
    Raise,
    Sum,
    apply_expr,
    scaled,
)
from fockvm.evolution import Hamiltonian
from fockvm.state import BasisState, distance, merge, unit


def hop_seed() -> BasisState:
    return BasisState(mem={0: 1})


class TestBuilders:
    def test_hop_two_modes_single_term(self):
        h = build_hop_hamiltonian(2)
        assert isinstance(h.expr, Product)

    def test_hop_term_count(self):
        h = build_hop_hamiltonian(5)
        assert isinstance(h.expr, Sum) and len(h.expr.terms) == 4

    def test_hop_moves_one_quantum(self):
        h = build_hop_hamiltonian(4)
        [(amp, state)] = apply_expr(h.expr, unit(hop_seed())).terms
        assert amp == 1.0
        assert state.mem == ((1, 1),)

    def test_adder_term_count(self):
        assert isinstance(build_adder_hamiltonian(3).expr.loc, type(Mem(0)))
        h = build_adder_hamiltonian(5)
        assert isinstance(h.expr, Sum) and len(h.expr.terms) == 3

    def test_adder_action(self):
        h = build_adder_hamiltonian(3)
        [(amp, state)] = apply_expr(h.expr, unit(BasisState(mem={0: 2, 1: 3, 2: 7}))).terms
        assert amp == 1.0
        assert state.mem == ((0, 2), (1, 3), (2, 5))

    def test_adder_on_vacuum_is_identity(self):
        h = build_adder_hamiltonian(3)
        start = unit(BasisState())
        assert apply_expr(h.expr, start) == start

    def test_window_invariant_enforced(self):
        with pytest.raises(ValueError):
            Hamiltonian(Raise(Mem(5)), mode_count=3)


class TestEvolve:
    def test_time_zero_is_identity(self):
        h = build_hop_hamiltonian(5)
        start = unit(hop_seed())
        assert evolve(h, start, 0.0, 6) == start

    def test_stops_once_the_state_is_annihilated(self, monkeypatch):
        # H annihilates a state with no quanta, so every order after the
        # first would apply H to an empty superposition.
        h = build_hop_hamiltonian(4)
        start = unit(BasisState(register=1))
        began = time.perf_counter()
        assert evolve(h, start, 0.1, 20000) == start
        assert time.perf_counter() - began < 0.25
        calls = []

        def counting(expr, s):
            calls.append(s)
            return apply_expr(expr, s)

        monkeypatch.setattr(evolution, "apply_expr", counting)
        assert evolve(h, start, 0.1, 10**9) == start
        assert calls == [start]

    def test_hop_series_matches_closed_form(self):
        h = build_hop_hamiltonian(12)
        evolved = evolve(h, unit(hop_seed()), 0.1, 8)
        for n in range(6):
            amp = evolved.amplitude(BasisState(mem={n: 1}))
            expected = (-0.1j) ** n / math.factorial(n)
            assert abs(amp - expected) <= 1e-12

    def test_truncation_overflow_is_loud(self):
        h = build_hop_hamiltonian(3)
        with pytest.raises(TruncationOverflow):
            evolve(h, unit(hop_seed()), 0.1, 5)

    @pytest.mark.parametrize("t, order", [(1e300, 3), (1e200, 2)])
    def test_coefficient_overflow_is_a_machine_error(self, t, order):
        h = build_hop_hamiltonian(12)
        with pytest.raises(NonFiniteAmplitude):
            evolve(h, unit(hop_seed()), t, order)

    def test_linearity(self):
        h = build_hop_hamiltonian(6)
        a = unit(BasisState(mem={0: 1}))
        b = unit(BasisState(mem={1: 1}))
        combined = merge([(0.6, a.terms[0][1]), (0.8j, b.terms[0][1])])
        left = evolve(h, combined, 0.2, 4)
        right = merge(
            [(0.6 * amp, s) for amp, s in evolve(h, a, 0.2, 4).terms]
            + [(0.8j * amp, s) for amp, s in evolve(h, b, 0.2, 4).terms]
        )
        assert distance(left, right) <= 1e-12

    def test_series_convergence_at_order_eight(self):
        h = build_hop_hamiltonian(14)
        for state in (hop_seed(), BasisState(mem={1: 1})):
            k8 = evolve(h, unit(state), 0.25, 8)
            k10 = evolve(h, unit(state), 0.25, 10)
            assert distance(k8, k10) <= 1e-9
        # Multi-quantum states amplify by the operator's norm growth; the
        # tail still shrinks factorially, just from a larger base.
        two = BasisState(mem={0: 1, 1: 1})
        k8 = evolve(h, unit(two), 0.25, 8)
        k10 = evolve(h, unit(two), 0.25, 10)
        assert distance(k8, k10) <= 1e-7


class TestDenseOracle:
    def test_hop_agreement(self):
        h = build_hop_hamiltonian(6)
        start = unit(hop_seed())
        assert distance(evolve(h, start, 0.1, 5), dense_oracle_evolve(h, start, 0.1, 5)) <= 1e-10

    def test_adder_agreement(self):
        h = build_adder_hamiltonian(3)
        start = unit(BasisState(mem={0: 1, 1: 1}))
        assert distance(evolve(h, start, 0.1, 3), dense_oracle_evolve(h, start, 0.1, 3)) <= 1e-10

    def test_zero_hamiltonian_is_identity(self):
        h = Hamiltonian(scaled(0.0, Identity()), mode_count=2)
        start = unit(BasisState(mem={0: 2}))
        assert dense_oracle_evolve(h, start, 0.7, 6) == start
        assert evolve(h, start, 0.7, 6) == start

    def test_order_beyond_the_factorial_float_range(self):
        h = build_adder_hamiltonian(4)
        start = unit(BasisState(mem={0: 1}))
        assert distance(evolve(h, start, 0.1, 200), dense_oracle_evolve(h, start, 0.1, 200)) <= 1e-12

    def test_state_space_bound(self):
        h = build_hop_hamiltonian(8)
        with pytest.raises(StateSpaceTooLarge):
            dense_oracle_evolve(h, unit(hop_seed()), 0.1, 5, bound=2)

    def test_occupancy_bound(self):
        with pytest.raises(StateSpaceTooLarge, match="oracle bound 64"):
            dense_oracle_evolve(build_hop_hamiltonian(4), unit(BasisState(mem={0: 65})), 0.1, 1)


class TestLadderViaRegister:
    @pytest.mark.parametrize("value", range(11))
    def test_raise_equals_direct(self, value):
        start = unit(BasisState(mem={4: value}))
        composite = apply_expr(ladder_via_register(4, "raise"), start)
        direct = apply_expr(Raise(Mem(4)), start)
        assert composite == direct

    @pytest.mark.parametrize("value", range(11))
    def test_lower_equals_direct(self, value):
        start = unit(BasisState(mem={4: value}))
        composite = apply_expr(ladder_via_register(4, "lower"), start)
        direct = apply_expr(Lower(Mem(4)), start)
        assert composite == direct

    def test_lower_annihilates_empty(self):
        assert apply_expr(ladder_via_register(2, "lower"), unit(BasisState())).terms == ()

    def test_register_restored(self):
        [(amp, state)] = apply_expr(
            ladder_via_register(0, "raise"), unit(BasisState(mem={0: 3}))
        ).terms
        assert state.register == 0
        assert amp == 2.0


class TestAssemblyForm:
    @pytest.mark.parametrize("n0,n1", [(1, 0), (2, 5), (4, 1), (3, 3)])
    def test_value_map_matches_ladder_product(self, n0, n1):
        start = unit(BasisState(mem={0: n0, 1: n1}))
        instruction_form = apply_expr(assembly_hop_term(0), start)
        ladder_form = apply_expr(Product((Raise(Mem(1)), Lower(Mem(0)))), start)
        [(amp_i, s_i)] = instruction_form.terms
        [(amp_l, s_l)] = ladder_form.terms
        # Values agree; the instruction form carries no square-root factors.
        assert (s_i.mem_value(0), s_i.mem_value(1)) == (s_l.mem_value(0), s_l.mem_value(1))
        assert amp_i == 1.0
        assert amp_l == pytest.approx(math.sqrt(n0) * math.sqrt(n1 + 1))

    def test_empty_source_underflows_instead_of_annihilating(self):
        start = unit(BasisState(mem={1: 2}))
        assert apply_expr(Product((Raise(Mem(1)), Lower(Mem(0)))), start).terms == ()
        with pytest.raises(SubtractUnderflow):
            apply_expr(assembly_hop_term(0), start)


# Occupations of five consecutive modes, as the hop benchmark starts them:
# three shapes for each of 4, 5 and 6 quanta, from bunched to spread out.
HOP_SHAPES = (
    (2, 2, 0, 0, 0), (1, 1, 1, 1, 0), (1, 0, 1, 1, 1),
    (3, 1, 1, 0, 0), (1, 2, 1, 1, 0), (1, 1, 1, 1, 1),
    (2, 2, 2, 0, 0), (2, 1, 1, 1, 1), (1, 1, 2, 1, 1),
)


def shaped(shape, shift):
    return BasisState(mem={mode + shift: count for mode, count in enumerate(shape) if count})


class TestOracleOnHopStarts:
    @pytest.mark.parametrize("k", range(len(HOP_SHAPES)))
    def test_every_shape_agrees_with_evolve(self, k):
        h = build_hop_hamiltonian(24)
        start = unit(shaped(HOP_SHAPES[k], k % 4))
        order = 8 + k % 3
        assert distance(dense_oracle_evolve(h, start, 0.1, order), evolve(h, start, 0.1, order)) <= 1e-12

    def test_two_term_start_agrees_with_evolve(self):
        h = build_hop_hamiltonian(24)
        start = merge([(0.6, shaped(HOP_SHAPES[1], 0)), (0.8j, shaped(HOP_SHAPES[7], 2))])
        assert len(start.terms) == 2
        assert distance(dense_oracle_evolve(h, start, 0.1, 9), evolve(h, start, 0.1, 9)) <= 1e-12


NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fockvm import cli
from fockvm.evolution import build_hop_hamiltonian, dense_oracle_evolve, evolve
from fockvm.state import BasisState, distance, unit
code = cli.main(["run", "--input", "2,3", sys.argv[1]])
h, start = build_hop_hamiltonian(8), unit(BasisState(mem={0: 2, 1: 1}))
gap = distance(dense_oracle_evolve(h, start, 0.1, 5), evolve(h, start, 0.1, 5))
loaded = sorted(name for name, mod in sys.modules.items() if name.split(".")[0] == "numpy" and mod is not None)
print(json.dumps({"code": code, "gap": gap, "loaded": loaded}))
"""


class TestStandardLibraryOnly:
    def test_nothing_needs_numpy(self, data_dir):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_BLOCKED, str(data_dir / "add.qasm")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True,
        )
        got = json.loads(done.stdout.splitlines()[-1])
        assert got["code"] == 0
        assert got["gap"] <= 1e-10
        assert got["loaded"] == []

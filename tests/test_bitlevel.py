"""Bit-level machine tests.

``tests/golden/closed-form-amplitudes.json`` pins the exact (amplitude,
state) list of every closed form on every 3-mode basis state, signed zeros
included. To re-record it after an intended change, run from the repository
root::

    PYTHONPATH=src python tests/test_bitlevel.py
"""

import copy
import itertools
import json
import math
import pickle
from pathlib import Path

import pytest

from fockvm import bitlevel
from fockvm.bitlevel import (
    BIT_REGISTER,
    MAX_VERIFY_MODES,
    BLower,
    BNumber,
    BRaise,
    BitBasisState,
    ONE,
    SIMPLIFIED_KINDS,
    all_states,
    anticommutator_is_delta,
    anticommutator_vanishes,
    apply_fermi,
    number_is_idempotent,
    simplified_form,
    verify_bit_semantics,
)
from fockvm.operators import Identity, Product, ScalarMul, Sum
from fockvm.state import combine


class TestStates:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitBasisState(2, (0,))
        with pytest.raises(ValueError):
            BitBasisState(0, (0, 3))

    def test_parity(self):
        s = BitBasisState(1, (1, 0, 1))
        assert s.parity_before(BIT_REGISTER) == 0
        assert s.parity_before(0) == 1
        assert s.parity_before(2) == 2

    @pytest.mark.parametrize(("method", "mode"), [("occupancy", -3), ("flipped", -3), ("flipped", 3), ("parity_before", 7)])
    def test_modes_past_either_end_are_a_one_line_value_error(self, method, mode):
        # Python indexing would read -3 as mode 0 and slice past the end.
        state = BitBasisState(0, (1, 0, 0))
        with pytest.raises(ValueError, match=f"^bit mode {mode} is out of range for 3 modes$"):
            getattr(state, method)(mode)

    @pytest.mark.parametrize("mode_count", range(5))
    def test_flipped_matches_the_constructor(self, mode_count):
        states = list(all_states(mode_count))
        for state in states:
            for mode in (BIT_REGISTER, *range(mode_count)):
                got = state.flipped(mode)
                register = 1 - state.register if mode == BIT_REGISTER else state.register
                want = BitBasisState(register, tuple(1 - b if i == mode else b for i, b in enumerate(state.bits)))
                assert type(got) is BitBasisState and not hasattr(got, "__dict__")
                assert got == want and hash(got) == hash(want)
                assert [got < other for other in states] == [want < other for other in states]
                assert [got > other for other in states] == [want > other for other in states]

    def test_flipped_states_copy_and_pickle(self):
        state = BitBasisState(0, (1, 0, 1)).flipped(BIT_REGISTER).flipped(1)
        for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(twin) is BitBasisState and not hasattr(twin, "__dict__")
            assert (twin.register, twin.bits) == (1, (1, 1, 1))
            assert twin == state and hash(twin) == hash(state)


class TestLeaves:
    @pytest.mark.parametrize("leaf", [BRaise, BLower, BNumber])
    def test_modes_below_the_register_are_rejected(self, leaf):
        for mode in (-2, -3):
            with pytest.raises(ValueError, match="register"):
                leaf(mode)

    def test_the_register_is_a_mode(self):
        state = BitBasisState(1, (0, 1, 0))
        assert BRaise(BIT_REGISTER).act(state) == []
        assert BLower(BIT_REGISTER).act(state) == [(1.0, BitBasisState(0, (0, 1, 0)))]
        assert BNumber(BIT_REGISTER).act(state) == [(1.0, state)]


class TestApplyFermi:
    def test_raise_without_preceding_occupation(self):
        s = BitBasisState(0, (0, 1))
        assert apply_fermi(BRaise(0), s) == [(1.0 + 0j, BitBasisState(0, (1, 1)))]

    def test_raise_behind_occupied_mode_picks_up_sign(self):
        s = BitBasisState(0, (1, 0))
        assert apply_fermi(BRaise(1), s) == [(-1.0 + 0j, BitBasisState(0, (1, 1)))]

    def test_raise_on_occupied_annihilates(self):
        assert apply_fermi(BRaise(0), BitBasisState(0, (1, 0))) == []

    def test_lower(self):
        s = BitBasisState(1, (1, 0))
        assert apply_fermi(BLower(0), s) == [(-1.0 + 0j, BitBasisState(1, (0, 0)))]
        assert apply_fermi(BLower(1), s) == []

    def test_number(self):
        s = BitBasisState(0, (1, 0))
        assert apply_fermi(BNumber(0), s) == [(1.0 + 0j, s)]
        assert apply_fermi(BNumber(1), s) == []

    def test_register_mode(self):
        s = BitBasisState(0, (1, 1))
        [(amp, out)] = apply_fermi(BRaise(BIT_REGISTER), s)
        assert amp == 1.0 and out.register == 1

    def test_tiny_amplitudes_are_kept(self):
        s = BitBasisState(0, (1, 0))
        assert apply_fermi(1e-13 * ONE, s) == [(1e-13 + 0j, s)]

    def test_difference_of_equal_operators_annihilates(self):
        op = BRaise(0) - BRaise(0)
        assert all(apply_fermi(op, s) == [] for s in all_states(3))


    def test_closed_forms_are_operator_expressions(self):
        spelled = Sum((
            Identity(),
            Product((Sum((BLower(0), ScalarMul(-1.0 + 0j, Identity()))), BNumber(0))),
        ))
        assert ONE + (BLower(0) - ONE) * BNumber(0) == spelled
        assert simplified_form("clear", m=0) == spelled


class TestRelations:
    def test_anticommutators_exhaustive(self):
        modes = 4
        pairs = list(itertools.product(range(modes), repeat=2))
        assert all(anticommutator_is_delta(i, j, modes) for i, j in pairs)
        assert all(
            anticommutator_vanishes(i, j, modes, daggered)
            for i, j in pairs
            for daggered in (False, True)
        )

    def test_register_participates(self):
        assert anticommutator_is_delta(BIT_REGISTER, BIT_REGISTER, 3)
        assert anticommutator_is_delta(BIT_REGISTER, 1, 3)

    def test_nilpotency(self):
        for state in all_states(3):
            for mode in range(3):
                assert apply_fermi(BRaise(mode) * BRaise(mode), state) == []
                assert apply_fermi(BLower(mode) * BLower(mode), state) == []

    def test_number_idempotent(self):
        assert all(number_is_idempotent(m, 4) for m in range(4))


def _unsigned_raise(self, state):
    return [] if state.occupancy(self.mode) else [(1.0, state.flipped(self.mode))]


def _unsigned_lower(self, state):
    return [(1.0, state.flipped(self.mode))] if state.occupancy(self.mode) else []


def _doubled_number(self, state):
    return [(2.0, state)] if state.occupancy(self.mode) else []


PAIRS = list(itertools.product(range(2), repeat=2))
CHECKERS = {
    "anticommutator_is_delta": lambda modes: all(anticommutator_is_delta(i, j, modes) for i, j in PAIRS),
    "anticommutator_vanishes": lambda modes: all(
        anticommutator_vanishes(i, j, modes, daggered) for i, j in PAIRS for daggered in (False, True)
    ),
    "number_is_idempotent": lambda modes: all(number_is_idempotent(m, modes) for m in range(2)),
    "verify_bit_semantics": lambda modes: verify_bit_semantics("clear", mode_count=modes).passed,
}


@pytest.fixture
def fresh_tables(monkeypatch):
    """``monkeypatch`` with the cached leaf tables and state tuples cleared
    on entry and on exit, so no table built from a patched ``act`` (or
    before the patch) outlives the test."""
    bitlevel._table.cache_clear()
    all_states.cache_clear()
    yield monkeypatch
    bitlevel._table.cache_clear()
    all_states.cache_clear()


class TestCachedTables:
    @pytest.mark.parametrize("mode_count", range(5))
    def test_all_states_is_the_packed_integer_enumeration(self, mode_count):
        packed = [
            BitBasisState(k & 1, tuple((k >> (i + 1)) & 1 for i in range(mode_count)))
            for k in range(2 ** (mode_count + 1))
        ]
        assert all_states(mode_count) == tuple(packed)
        assert all_states(mode_count) is all_states(mode_count)

    @pytest.mark.parametrize(
        ("checker", "leaf", "wrong"),
        [
            ("anticommutator_is_delta", BRaise, _unsigned_raise),
            ("anticommutator_is_delta", BLower, _unsigned_lower),
            ("anticommutator_vanishes", BRaise, _unsigned_raise),
            ("anticommutator_vanishes", BLower, _unsigned_lower),
            ("number_is_idempotent", BNumber, _doubled_number),
        ],
    )
    def test_a_wrong_leaf_fails_after_the_right_tables_exist(self, fresh_tables, checker, leaf, wrong):
        check = CHECKERS[checker]
        assert check(3)
        fresh_tables.setattr(leaf, "act", wrong)
        bitlevel._table.cache_clear()
        assert not check(3)

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_every_check_enforces_the_mode_bound(self, fresh_tables, checker):
        built = []
        real = BitBasisState.__post_init__

        def counted(state):
            built.append(state)
            real(state)

        fresh_tables.setattr(BitBasisState, "__post_init__", counted)
        with pytest.raises(ValueError, match=f"limited to {MAX_VERIFY_MODES} modes"):
            CHECKERS[checker](MAX_VERIFY_MODES + 1)
        assert built == []
        assert CHECKERS[checker](2) and built


def _dict_table(leaf, mode_count):
    return {state: leaf.act(state) for state in all_states(mode_count)}


def _dict_then(first, second, state):
    return [(f * g, image) for f, mid in first[state] for g, image in second[mid]]


def _dict_is_delta(i, j, mode_count):
    b_i, bdag_j = _dict_table(BLower(i), mode_count), _dict_table(BRaise(j), mode_count)
    delta = 1.0 if i == j else 0.0
    for state in all_states(mode_count):
        both = _dict_then(bdag_j, b_i, state) + _dict_then(b_i, bdag_j, state)
        expected = [(complex(delta), state)] if delta else []
        if combine(both, math.ulp(0.0)) != expected:
            return False
    return True


def _dict_vanishes(i, j, mode_count, daggered):
    op = BRaise if daggered else BLower
    op_i, op_j = _dict_table(op(i), mode_count), _dict_table(op(j), mode_count)
    for state in all_states(mode_count):
        both = _dict_then(op_j, op_i, state) + _dict_then(op_i, op_j, state)
        if combine(both, math.ulp(0.0)):
            return False
    return True


def _dict_is_idempotent(mode, mode_count):
    n_m = _dict_table(BNumber(mode), mode_count)
    return all(n_m[state] == _dict_then(n_m, n_m, state) for state in all_states(mode_count))


class TestPackedTables:
    """The relation checkers on packed-state tables against an inline copy
    of the versions they replace, which kept each leaf's action in a dict
    keyed by basis state and merged every composed term with ``combine``."""

    @pytest.mark.parametrize(
        ("leaf", "wrong"),
        [(None, None), (BRaise, _unsigned_raise), (BLower, _unsigned_lower), (BNumber, _doubled_number)],
    )
    @pytest.mark.parametrize("mode_count", range(5))
    def test_checkers_match_the_dict_table_versions(self, fresh_tables, mode_count, leaf, wrong):
        if leaf is not None:
            fresh_tables.setattr(leaf, "act", wrong)
        modes = range(BIT_REGISTER, mode_count)
        for i, j in itertools.product(modes, repeat=2):
            assert anticommutator_is_delta(i, j, mode_count) == _dict_is_delta(i, j, mode_count)
            for daggered in (False, True):
                got = anticommutator_vanishes(i, j, mode_count, daggered)
                assert got == _dict_vanishes(i, j, mode_count, daggered)
        for mode in modes:
            assert number_is_idempotent(mode, mode_count) == _dict_is_idempotent(mode, mode_count)

    @pytest.mark.parametrize("mode_count", range(5))
    def test_entry_k_describes_the_leaf_on_state_k(self, mode_count):
        states = all_states(mode_count)
        for leaf_type, mode in itertools.product((BRaise, BLower, BNumber), range(BIT_REGISTER, mode_count)):
            table = bitlevel._table(leaf_type(mode), mode_count)
            assert len(table) == len(states)
            for state, entry in zip(states, table):
                terms = leaf_type(mode).act(state)
                if entry is None:
                    assert terms == []
                else:
                    factor, image = entry
                    assert terms == [(factor, states[image])]

    @pytest.mark.parametrize(
        ("call", "mode", "mode_count"),
        [
            (lambda: anticommutator_is_delta(5, 0, 3), 5, 3),
            (lambda: apply_fermi(BRaise(3), BitBasisState(0, (0, 0, 0))), 3, 3),
            (lambda: number_is_idempotent(3, 3), 3, 3),
            (lambda: verify_bit_semantics("clear", mode_count=2, m=2), 2, 2),
        ],
    )
    def test_a_mode_past_the_state_is_a_one_line_value_error(self, fresh_tables, call, mode, mode_count):
        with pytest.raises(ValueError, match=f"^bit mode {mode} is out of range for {mode_count} modes$"):
            call()
        assert bitlevel._table.cache_info().currsize == 0
        assert anticommutator_is_delta(0, 0, mode_count) and number_is_idempotent(0, mode_count)


class TestSimplifiedForms:
    def test_clear(self):
        op = simplified_form("clear", m=0)
        [(amp, out)] = apply_fermi(op, BitBasisState(0, (1, 0)))
        assert abs(amp) == 1.0 and out.bits == (0, 0)
        s = BitBasisState(0, (0, 1))
        assert apply_fermi(op, s) == [(1.0 + 0j, s)]

    def test_add_annihilates_double_one(self):
        op = simplified_form("add", m=0)
        assert apply_fermi(op, BitBasisState(1, (1, 0))) == []

    def test_multiply_by_one_is_identity(self):
        op = simplified_form("multiply", m=0)
        for register in (0, 1):
            s = BitBasisState(register, (1, 0))
            assert apply_fermi(op, s) == [(1.0 + 0j, s)]

    def test_multiply_by_zero_clears_register(self):
        op = simplified_form("multiply", m=0)
        [(amp, out)] = apply_fermi(op, BitBasisState(1, (0, 1)))
        assert out.register == 0 and abs(amp) == 1.0

    def test_subtract_underflow_annihilates(self):
        op = simplified_form("subtract", m=0)
        assert apply_fermi(op, BitBasisState(0, (1, 0))) == []

    def test_copy_value_semantics(self):
        op = simplified_form("copy", m=0, n=1)
        [(amp, out)] = apply_fermi(op, BitBasisState(0, (0, 1)))
        assert out.bits == (1, 1) and abs(amp) == 1.0
        assert apply_fermi(op, BitBasisState(0, (1, 1))) == []
        s = BitBasisState(0, (1, 0))
        assert apply_fermi(op, s) == [(1.0 + 0j, s)]


class TestVerification:
    @pytest.mark.parametrize("kind", SIMPLIFIED_KINDS)
    def test_every_form_passes(self, kind):
        report = verify_bit_semantics(kind)
        assert report.passed
        assert bool(report)

    def test_signs_are_recorded(self):
        report = verify_bit_semantics("store", mode_count=2, m=1)
        signs = report.signs()
        assert signs
        assert all(abs(v) == 1.0 for v in signs.values())
        assert any(v.real < 0 for v in signs.values())

    def test_mode_bound(self):
        with pytest.raises(ValueError):
            verify_bit_semantics("clear", mode_count=9)


AMPLITUDES = Path(__file__).resolve().parent / "golden" / "closed-form-amplitudes.json"


def _closed_form_table() -> dict[str, list[list[object]]]:
    """``"kind m n register bits"`` -> ``[repr(amplitude), register, bits]``
    per result term, over every closed form addressing modes 0-2."""
    table = {}
    for kind in SIMPLIFIED_KINDS:
        for m in range(3):
            for n in [k for k in range(3) if k != m] if kind == "copy" else [None]:
                op = simplified_form(kind, m, n)
                for state in all_states(3):
                    key = f"{kind} {m} {n} {state.register} {''.join(map(str, state.bits))}"
                    table[key] = [
                        [repr(amp), image.register, "".join(map(str, image.bits))]
                        for amp, image in apply_fermi(op, state)
                    ]
    return table


def test_closed_form_amplitudes_are_pinned():
    assert _closed_form_table() == json.loads(AMPLITUDES.read_text(encoding="utf-8"))


if __name__ == "__main__":
    rows = [f"  {json.dumps(key)}: {json.dumps(terms)}" for key, terms in _closed_form_table().items()]
    AMPLITUDES.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")

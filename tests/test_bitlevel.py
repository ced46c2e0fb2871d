import itertools

import pytest

from fockvm.bitlevel import (
    BIT_REGISTER,
    BLower,
    BNumber,
    BRaise,
    BitBasisState,
    FProduct,
    FScalarMul,
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
        assert apply_fermi(FScalarMul(1e-13, ONE), s) == [(1e-13 + 0j, s)]

    def test_difference_of_equal_operators_annihilates(self):
        op = BRaise(0) - BRaise(0)
        assert all(apply_fermi(op, s) == [] for s in all_states(3))


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
                assert apply_fermi(FProduct((BRaise(mode), BRaise(mode))), state) == []
                assert apply_fermi(FProduct((BLower(mode), BLower(mode))), state) == []

    def test_number_idempotent(self):
        assert all(number_is_idempotent(m, 4) for m in range(4))


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

"""One-bit-word machine built on anticommuting mode operators.

Every bit location (and a one-bit register) carries raising and lowering
operators obeying anticommutation relations, so raising an occupied bit or
lowering an empty one annihilates the state, and operators acting past
occupied modes pick up signs. Signs come from a fixed canonical ordering,
register first and then modes ascending; without an ordering the
anticommutation relations cannot hold at all. Signed amplitudes are
reported as computed; they cancel in single-program probabilities.

Bit programs are ordinary operator expressions of :mod:`fockvm.operators`
whose leaves are ``BRaise``, ``BLower`` and ``BNumber``; ``+``, ``-`` and
``*`` build them, and the word-level evaluator runs them. There is no
bit-level text format. The closed polynomial forms of the basic instructions
(clear, copy, load, store, add, subtract, multiply) are provided along with
an exhaustive value-semantics checker.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from .operators import EvalStats, Identity, OperatorExpr, Primitive, _dispatch
from .state import combine

#: Mode index of the one-bit register in the canonical ordering.
BIT_REGISTER = -1

#: Largest mode count the exhaustive checks accept: they enumerate all
#: 2^(modes+1) basis states, so each further mode doubles their cost. It
#: also bounds the cached state tuples and leaf tables behind them.
MAX_VERIFY_MODES = 8

#: Merge tolerance that drops exactly cancelled terms and nothing else:
#: bit-level amplitudes are exact, so any nonzero sum is kept.
_EXACT_ZEROS_ONLY = math.ulp(0.0)


@dataclass(frozen=True, order=True, slots=True)
class BitBasisState:
    """Occupancies of the register and the memory modes, each zero or one."""

    register: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.register not in (0, 1):
            raise ValueError(f"register bit must be 0 or 1, got {self.register}")
        bits = tuple(self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

    def occupancy(self, mode: int) -> int:
        if mode == BIT_REGISTER:
            return self.register
        if 0 <= mode < len(self.bits):
            return self.bits[mode]
        raise ValueError(f"bit mode {mode} is out of range for {len(self.bits)} modes")

    def flipped(self, mode: int) -> "BitBasisState":
        if mode == BIT_REGISTER:
            return _record(1 - self.register, self.bits)
        bits = list(self.bits)
        bits[mode] = 1 - self.occupancy(mode)
        return _record(self.register, tuple(bits))

    def parity_before(self, mode: int) -> int:
        """Number of occupied modes strictly preceding ``mode`` in the
        canonical order (register first, then modes ascending)."""
        if mode == BIT_REGISTER:
            return 0
        self.occupancy(mode)  # rejects a mode out of range
        return self.register + sum(self.bits[:mode])


_set_register, _set_bits = (BitBasisState.__dict__[f.name].__set__ for f in fields(BitBasisState))


def _record(register: int, bits: tuple[int, ...]) -> BitBasisState:
    """A bit state from its field values in declaration order, unchecked."""
    state = object.__new__(BitBasisState)
    _set_register(state, register)
    _set_bits(state, bits)
    return state


def _sign(state: BitBasisState, mode: int) -> float:
    return -1.0 if state.parity_before(mode) % 2 else 1.0


@dataclass(frozen=True)
class _BitLeaf(Primitive):
    """A leaf addressing one mode: the register or a memory mode."""

    mode: int

    def __post_init__(self) -> None:
        if self.mode < BIT_REGISTER:
            raise ValueError(f"bit modes start at the register ({BIT_REGISTER}), got {self.mode}")


@dataclass(frozen=True)
class BRaise(_BitLeaf):
    def act(self, state: BitBasisState) -> list[tuple[float, BitBasisState]]:
        if state.occupancy(self.mode):
            return []
        return [(_sign(state, self.mode), state.flipped(self.mode))]


@dataclass(frozen=True)
class BLower(_BitLeaf):
    def act(self, state: BitBasisState) -> list[tuple[float, BitBasisState]]:
        if not state.occupancy(self.mode):
            return []
        return [(_sign(state, self.mode), state.flipped(self.mode))]


@dataclass(frozen=True)
class BNumber(_BitLeaf):
    def act(self, state: BitBasisState) -> list[tuple[float, BitBasisState]]:
        return [(1.0, state)] if state.occupancy(self.mode) else []


ONE = Identity()


def apply_fermi(op: OperatorExpr, state: BitBasisState) -> list[tuple[complex, BitBasisState]]:
    """Apply a bit operator expression to one basis state.

    Returns merged (amplitude, state) terms; an empty list means the state
    was annihilated. Amplitudes are exact (signs and small integers only).
    """
    live = _dispatch(op, [(1.0 + 0j, state)], {}, 0, _EXACT_ZEROS_ONLY, EvalStats(), [])
    return combine(live, _EXACT_ZEROS_ONLY)


#: A leaf's action on every basis state, indexed by packed state: its factor
#: and packed image, or None where it annihilates (a leaf gives one term at most).
_Table = tuple[tuple[float, int] | None, ...]


@functools.cache
def _table(leaf: Primitive, mode_count: int) -> _Table:
    """``leaf.act`` on every basis state of ``mode_count`` modes, built once."""
    states = all_states(mode_count)
    packed = {state: k for k, state in enumerate(states)}
    return tuple((out[0][0], packed[out[0][1]]) if out else None for out in map(leaf.act, states))


def _then(first: _Table, second: _Table, k: int) -> tuple[float, int] | None:
    """The leaf product ``second * first`` on packed state ``k``."""
    mid = first[k]
    if mid is None:
        return None
    out = second[mid[1]]
    return None if out is None else (mid[0] * out[0], out[1])


def _anticommutator(a: _Table, b: _Table, k: int) -> dict[int, float]:
    """``a * b + b * a`` on packed state ``k``, as {packed image: amplitude}
    with exact zeros dropped."""
    sums: dict[int, float] = {}
    for term in (_then(b, a, k), _then(a, b, k)):
        if term is not None:
            sums[term[1]] = sums.get(term[1], 0.0) + term[0]
    return {image: amp for image, amp in sums.items() if amp}


# ---------------------------------------------------------------------------
# Closed polynomial forms of the basic instructions

SIMPLIFIED_KINDS = ("clear", "copy", "load", "store", "add", "subtract", "multiply")


def simplified_form(kind: str, m: int = 0, n: int | None = None) -> OperatorExpr:
    """Closed polynomial form of a bit-level instruction.

    ``m`` is the memory mode the instruction addresses; ``copy`` also takes
    the source mode ``n``. The forms rely on number operators being
    idempotent on bit states. The printed copy form in circulation repeats
    the clear form verbatim, which cannot copy anything; the form here
    raises the destination under the source's number operator, which gives
    the documented value semantics (destination set from source when the
    destination holds zero).
    """
    b_m, bdag_m, n_m = BLower(m), BRaise(m), BNumber(m)
    b_r, bdag_r, n_r = BLower(BIT_REGISTER), BRaise(BIT_REGISTER), BNumber(BIT_REGISTER)
    if kind == "clear":
        return ONE + (b_m - ONE) * n_m
    if kind == "copy":
        if n is None:
            raise ValueError("copy needs a source mode")
        return ONE + (bdag_m - ONE) * BNumber(n)
    if kind == "load":
        return (ONE - n_r + b_r) * (ONE - n_m) + (n_r + bdag_r) * n_m
    if kind == "store":
        return (ONE - n_m + b_m) * (ONE - n_r) + (n_m + bdag_m) * n_r
    if kind == "add":
        return ONE + (bdag_r - ONE) * n_m
    if kind == "subtract":
        return ONE + (b_r - ONE) * n_m
    if kind == "multiply":
        return ONE + (b_r - n_r) * (ONE - n_m)
    raise ValueError(f"unknown simplified form {kind!r}")


def _expected_action(kind: str, state: BitBasisState, m: int, n: int | None):
    """Intended value semantics; None means the state is annihilated."""
    r, bit = state.register, state.occupancy(m)
    if kind == "clear":
        return state if bit == 0 else state.flipped(m)
    if kind == "copy":
        src = state.occupancy(n)
        if src == 0:
            return state
        return state.flipped(m) if bit == 0 else None
    if kind == "load":
        return state if r == bit else state.flipped(BIT_REGISTER)
    if kind == "store":
        return state if bit == r else state.flipped(m)
    if kind == "add":
        if state.occupancy(m) == 0:
            return state
        return state.flipped(BIT_REGISTER) if r == 0 else None
    if kind == "subtract":
        if state.occupancy(m) == 0:
            return state
        return state.flipped(BIT_REGISTER) if r == 1 else None
    if kind == "multiply":
        target = r * state.occupancy(m)
        return state if r == target else state.flipped(BIT_REGISTER)
    raise ValueError(f"unknown simplified form {kind!r}")


@dataclass(frozen=True)
class SemanticsCase:
    state: BitBasisState
    expected: BitBasisState | None
    got: tuple[tuple[complex, BitBasisState], ...]
    ok: bool


@dataclass(frozen=True)
class SemanticsReport:
    kind: str
    cases: tuple[SemanticsCase, ...]

    @property
    def passed(self) -> bool:
        return all(case.ok for case in self.cases)

    def __bool__(self) -> bool:
        return self.passed

    def signs(self) -> dict[BitBasisState, complex]:
        """Amplitude recorded per input state, for sign inspection."""
        return {
            case.state: case.got[0][0]
            for case in self.cases
            if len(case.got) == 1
        }


@functools.cache
def all_states(mode_count: int) -> tuple[BitBasisState, ...]:
    """Every basis state of ``mode_count`` memory modes and the register, in
    packed-integer order (register in bit 0, mode i in bit i + 1)."""
    if mode_count > MAX_VERIFY_MODES:
        raise ValueError(f"exhaustive verification is limited to {MAX_VERIFY_MODES} modes")
    return tuple(
        BitBasisState(packed & 1, tuple((packed >> (i + 1)) & 1 for i in range(mode_count)))
        for packed in range(2 ** (mode_count + 1))
    )


def verify_bit_semantics(kind: str, mode_count: int = 2, m: int = 0, n: int | None = None) -> SemanticsReport:
    """Exhaustively compare a closed form's value action with its intent.

    A case passes when the operator result is the expected single state
    with amplitude modulus one (sign free), or annihilation where the
    semantics demand it. Amplitudes are recorded so signs can be reported.
    """
    if kind == "copy" and n is None:
        n = 1
    op = simplified_form(kind, m, n)
    cases = []
    for state in all_states(mode_count):
        got = tuple(apply_fermi(op, state))
        expected = _expected_action(kind, state, m, n)
        if expected is None:
            ok = got == ()
        else:
            ok = len(got) == 1 and got[0][1] == expected and abs(abs(got[0][0]) - 1.0) == 0
        cases.append(SemanticsCase(state, expected, got, ok))
    return SemanticsReport(kind, tuple(cases))


# ---------------------------------------------------------------------------
# Algebraic relation checks


def anticommutator_is_delta(i: int, j: int, mode_count: int) -> bool:
    """Check {b_i, b_j+} = delta_ij exactly on every basis state."""
    b_i, bdag_j = _table(BLower(i), mode_count), _table(BRaise(j), mode_count)
    return all(_anticommutator(b_i, bdag_j, k) == ({k: 1.0} if i == j else {}) for k in range(len(b_i)))


def anticommutator_vanishes(i: int, j: int, mode_count: int, daggered: bool) -> bool:
    """Check {b_i, b_j} = 0 (or the daggered pair) on every basis state."""
    op = BRaise if daggered else BLower
    op_i, op_j = _table(op(i), mode_count), _table(op(j), mode_count)
    return not any(_anticommutator(op_i, op_j, k) for k in range(len(op_i)))


def number_is_idempotent(mode: int, mode_count: int) -> bool:
    """The identity the closed forms rely on: N and N^2 agree pointwise."""
    n_m = _table(BNumber(mode), mode_count)
    return all(n_m[k] == _then(n_m, n_m, k) for k in range(len(n_m)))

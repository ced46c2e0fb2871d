"""Hamiltonian time evolution by truncated exponential power series.

Evolution computes sum_{q=0}^{order} (-i t)^q / q! H^q |s0>, with the
coefficient carried as a running product so any order works, and applies no
normalization: the example Hamiltonians are not Hermitian, so evolution is
not unitary, and probabilities should be read through the rule-style
renormalization in :func:`fockvm.state.probabilities`. A sparse-matrix
oracle over the reachable basis provides an independent cross-check.

Mode truncation is strict: when a state occupies a boundary mode that the
untruncated operator would move out of the window, evolution raises instead
of silently dropping amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StateSpaceTooLarge, TruncationOverflow
from .isa import Instruction, Opcode, address, immediate
from .operators import (
    REGISTER,
    Clear,
    Copy,
    Lower,
    Mem,
    Num,
    OperatorExpr,
    Raise,
    SetValue,
    apply_expr,
    locations,
    product,
    summation,
)
from .qasm import instruction_operator
from .state import BasisState, Superposition, merge, unit

#: The dense oracle refuses a basis state with more quanta than this in a mode.
MAX_OCCUPANCY = 64


@dataclass(frozen=True)
class Hamiltonian:
    """A finite mode-truncated operator with its truncation metadata.

    ``boundary_modes`` lists modes whose occupancy means the next
    application would leak outside the window.
    """

    expr: OperatorExpr
    mode_count: int
    boundary_modes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for loc in locations(self.expr):
            if loc.kind == "mem" and loc.addr >= self.mode_count:
                raise ValueError(
                    f"operator touches mode {loc.addr}, outside the "
                    f"{self.mode_count}-mode window"
                )


def build_hop_hamiltonian(modes: int) -> Hamiltonian:
    """Sum of hop terms moving one quantum from each mode to the next.

    Truncated to terms a(m+1)+ a(m) for m in [0, modes-2]; occupancy in the
    last mode marks the edge of the window.
    """
    if modes < 2:
        raise ValueError(f"hop Hamiltonian needs at least 2 modes, got {modes}")
    terms = [product(Raise(Mem(m + 1)), Lower(Mem(m))) for m in range(modes - 1)]
    return Hamiltonian(summation(*terms), modes, boundary_modes=(modes - 1,))


def build_adder_hamiltonian(modes: int) -> Hamiltonian:
    """Sum of adder terms writing mem[m] + mem[m+1] into mem[m+2].

    Each term is the normalized set-value form, so it acts with amplitude
    one on number eigenstates. Terms only overwrite modes inside the
    window, so there is no boundary leakage.
    """
    if modes < 3:
        raise ValueError(f"adder Hamiltonian needs at least 3 modes, got {modes}")
    terms = [
        SetValue(Mem(m + 2), Num(Mem(m)) + Num(Mem(m + 1)))
        for m in range(modes - 2)
    ]
    return Hamiltonian(summation(*terms), modes)


def ladder_via_register(m: int, kind: str) -> OperatorExpr:
    """Raising or lowering on a memory location routed through the register.

    The register is used as a scratchpad: clear it, copy the location in,
    apply the ladder there, copy back, and clear the register again. On
    states with register zero the composite reproduces the direct ladder
    operator exactly, amplitude included.
    """
    if kind not in {"raise", "lower"}:
        raise ValueError(f"kind must be 'raise' or 'lower', got {kind!r}")
    ladder = Raise(REGISTER) if kind == "raise" else Lower(REGISTER)
    loc = Mem(m)
    return product(
        Clear(REGISTER),
        Copy(loc, REGISTER),
        Clear(loc),
        ladder,
        Copy(REGISTER, loc),
        Clear(REGISTER),
    )


def assembly_hop_term(m: int) -> OperatorExpr:
    """One hop term written as assembly instruction actions.

    Decrement location m through the register, then increment location m+1.
    The value map matches the ladder product a(m+1)+ a(m) wherever location
    m is occupied, but every factor has amplitude one, so the square-root
    amplitudes of the ladder form are absent; an empty source underflows
    instead of annihilating.
    """
    load_m = instruction_operator(Instruction(Opcode.LOAD, address(m)))
    store_m = instruction_operator(Instruction(Opcode.STORE, address(m)))
    load_m1 = instruction_operator(Instruction(Opcode.LOAD, address(m + 1)))
    store_m1 = instruction_operator(Instruction(Opcode.STORE, address(m + 1)))
    sub_one = instruction_operator(Instruction(Opcode.SUBTRACT, immediate(1)))
    add_one = instruction_operator(Instruction(Opcode.ADD, immediate(1)))
    return product(store_m1, add_one, load_m1, store_m, sub_one, load_m)


def _check_boundary(h: Hamiltonian, s: Superposition) -> None:
    for _, state in s.terms:
        for mode in h.boundary_modes:
            if state.mem_value(mode) > 0:
                raise TruncationOverflow(
                    f"occupancy at boundary mode {mode} would leave the "
                    f"{h.mode_count}-mode window"
                )


def evolve(h: Hamiltonian, s0: Superposition, t: float, order: int) -> Superposition:
    """Truncated power series evolution of ``s0`` for time ``t``."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if t == 0:
        return merge(s0.terms)
    terms = list(s0.terms)
    current = s0
    coeff = 1.0 + 0j
    for q in range(1, order + 1):
        _check_boundary(h, current)
        current = apply_expr(h.expr, current)
        if not current:
            break
        coeff *= -1j * t / q
        terms.extend((coeff * amp, state) for amp, state in current.terms)
    return merge(terms)


def _reachable_basis(h: Hamiltonian, s0: Superposition, order: int, bound: int) -> list[BasisState]:
    seen: dict[BasisState, None] = {state: None for _, state in s0.terms}
    frontier = list(seen)
    for _ in range(order):
        new: list[BasisState] = []
        for state in frontier:
            if any(v > MAX_OCCUPANCY for _, v in state.mem):
                raise StateSpaceTooLarge(f"occupancy exceeded the oracle bound {MAX_OCCUPANCY}")
            for _, image in apply_expr(h.expr, unit(state)).terms:
                if image not in seen:
                    seen[image] = None
                    new.append(image)
            if len(seen) > bound:
                raise StateSpaceTooLarge(f"reachable basis exceeded {bound} states")
        frontier = new
        if not frontier:
            break
    return list(seen)


def dense_oracle_evolve(
    h: Hamiltonian,
    s0: Superposition,
    t: float,
    order: int,
    bound: int = 10**4,
) -> Superposition:
    """Independent series evolution through an explicit matrix of H.

    Enumerates the basis reachable from ``s0`` within ``order`` applications
    of the Hamiltonian, keeps the matrix of H on it as sparse columns of
    ``(row, entry)`` pairs, and runs the same truncated series with
    matrix-vector products that skip zero entries (the name dates from a
    dense array). Raises :class:`StateSpaceTooLarge` beyond ``bound`` states.
    """
    basis = _reachable_basis(h, s0, order, bound)
    index = {state: i for i, state in enumerate(basis)}
    columns: list[list[tuple[int, complex]]] = []
    for state in basis:
        column = []
        for amp, image in apply_expr(h.expr, unit(state)).terms:
            row = index.get(image)
            # Images outside the basis come only from maximum-depth states,
            # whose outgoing edges no power up to `order` ever uses.
            if row is not None:
                column.append((row, amp))
        columns.append(column)
    power = [0j] * len(basis)
    for amp, state in s0.terms:
        power[index[state]] += amp
    out = power
    coeff = 1.0 + 0j
    for q in range(1, order + 1):
        image = [0j] * len(basis)
        for col, x in enumerate(power):
            if x:
                for row, entry in columns[col]:
                    image[row] += entry * x
        power = image
        coeff *= -1j * t / q
        out = [o + coeff * p for o, p in zip(out, power)]
    return merge(zip(out, basis))

"""Operator expression trees and their evaluator.

Programs and Hamiltonians are expression trees built from a small set of
primitives acting on machine basis states:

* ``Raise``/``Lower``: ladder operators, value v to v+1 with amplitude
  sqrt(v+1), or v to v-1 with amplitude sqrt(v) (annihilating at zero).
* ``NumberOp``: leaves the state alone, multiplies the amplitude by v.
* ``Clear``: the normalized lowering power that sets a location to zero
  with amplitude one.
* ``Copy``: the normalized raising power that copies a source value onto a
  zeroed destination with amplitude one.
* ``SetValue``: the normalized set-to-value form (the star-assignment
  operator of the C layer); writes the value of an integer exponent
  expression into a location with amplitude one.
* ``GuardedPower``: a base operator raised to an integer exponent computed
  per basis term from number operators, including the step guards
  Theta (1 iff x >= 0, so Theta(0) = 1) and ThetaTheta (1 iff x == 0).
* ``InstructionOp``: the amplitude-one value action of an arithmetic or
  bitwise assembly instruction on the register.
* ``RecursiveRef``/``Define``: re-entry points for compiled programs with
  backward jumps. A term that reaches a ``RecursiveRef`` leaves the current
  pass, like a halted one; the enclosing ``Define`` then runs its body again
  on the re-entered terms, one pass per re-entry, until none re-enters. The
  fuel budget counts these passes; there is no other depth limit.
* ``Bra``: halts a term. The term leaves the evaluator's working set at
  once and is returned with the halted terms, so it is inert under every
  further operator, ``Sum`` included; only an enclosing ``ScalarMul``
  still scales it.

Every leaf is a ``Primitive``, defined by its action on one basis state.
``Clear``, ``Copy``, ``SetValue`` and ``InstructionOp`` are ``Deterministic``:
each maps one state to exactly one ``image`` with factor one, or raises.
The bit-level machine (:mod:`fockvm.bitlevel`) adds three more leaves over
its own state type; its programs are ordinary operator expressions, and the
one evaluator here runs both. ``+``, ``-`` and ``*`` build sums, products
and scalar multiples.

Products apply right to left, sums distribute and merge, and guarded
exponents are evaluated per basis term, so superposition terms evolve
independently. Everything here is pure: evaluation returns new states.

The input and output streams are pseudo-locations: ``Copy(dst, IN)``
consumes the head of the input stream and ``Copy(OUT, src)`` appends to the
output stream. No other primitive touches the streams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Mapping, Union

from . import isa
from .errors import (
    CopyOntoNonzero,
    FuelExhausted,
    NegativeExponent,
    UndefinedReference,
    UnsupportedLocation,
)
from .state import DROP_TOLERANCE, SIGNIFICANT_DIGITS, BasisState, Superposition, combine, merge

#: Default budget of re-entry passes, matching the default fuel counter.
DEFAULT_FUEL_BUDGET = 10


# ---------------------------------------------------------------------------
# Locations


@dataclass(frozen=True)
class Location:
    """A storage slot: the register, program counter, fuel counter, one of
    the two stream pseudo-locations, or a memory address."""

    kind: str
    addr: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in {"register", "pc", "fuel", "in", "out", "mem"}:
            raise ValueError(f"unknown location kind {self.kind!r}")
        if self.kind == "mem":
            if self.addr is None or self.addr < 0:
                raise ValueError(f"memory address must be nonnegative, got {self.addr!r}")
        elif self.addr is not None:
            raise ValueError(f"{self.kind} takes no address")

    def __str__(self) -> str:
        names = {
            "register": "Register",
            "pc": "ProgramCounter",
            "fuel": "Fuel",
            "in": "In",
            "out": "Out",
        }
        if self.kind == "mem":
            return f"(Mem {self.addr})"
        return names[self.kind]


REGISTER = Location("register")
PC = Location("pc")
FUEL = Location("fuel")
IN = Location("in")
OUT = Location("out")


def Mem(addr: int) -> Location:
    return Location("mem", addr)


def location_value(state: BasisState, loc: Location) -> int:
    if loc.kind == "mem":
        return state.mem_value(loc.addr)
    if loc.kind == "register":
        return state.register
    if loc.kind == "pc":
        return state.pc
    if loc.kind == "fuel":
        return state.fuel
    raise UnsupportedLocation(f"{loc} has no readable value")


def with_location(state: BasisState, loc: Location, value: int) -> BasisState:
    if loc.kind == "mem":
        return state.with_mem(loc.addr, value)
    if loc.kind == "register":
        return state.with_register(value)
    if loc.kind == "pc":
        return state.with_pc(value)
    if loc.kind == "fuel":
        return state.with_fuel(value)
    raise UnsupportedLocation(f"{loc} cannot be written directly")


# ---------------------------------------------------------------------------
# Integer exponent expressions


class ExponentExpr:
    """Integer-valued expression over number operators.

    Supports +, -, * with other exponent expressions or plain integers, so
    guard formulas read naturally, e.g. ``ThetaTheta(Num(PC) - 4)``.
    """

    def __add__(self, other):
        return ExpAdd(self, as_exponent(other))

    def __radd__(self, other):
        return ExpAdd(as_exponent(other), self)

    def __sub__(self, other):
        return ExpSub(self, as_exponent(other))

    def __rsub__(self, other):
        return ExpSub(as_exponent(other), self)

    def __mul__(self, other):
        return ExpMul(self, as_exponent(other))

    def __rmul__(self, other):
        return ExpMul(as_exponent(other), self)


@dataclass(frozen=True)
class Const(ExponentExpr):
    value: int


@dataclass(frozen=True)
class Num(ExponentExpr):
    """The eigenvalue of the number operator at a location."""

    loc: Location


@dataclass(frozen=True)
class ExpAdd(ExponentExpr):
    left: ExponentExpr
    right: ExponentExpr


@dataclass(frozen=True)
class ExpSub(ExponentExpr):
    left: ExponentExpr
    right: ExponentExpr


@dataclass(frozen=True)
class ExpMul(ExponentExpr):
    left: ExponentExpr
    right: ExponentExpr


@dataclass(frozen=True)
class Theta(ExponentExpr):
    """Step guard: 1 iff the argument is >= 0. Theta(0) = 1 throughout."""

    arg: ExponentExpr


@dataclass(frozen=True)
class ThetaTheta(ExponentExpr):
    """Equality guard: 1 iff the argument is exactly 0."""

    arg: ExponentExpr


def as_exponent(value: Union[int, ExponentExpr]) -> ExponentExpr:
    if isinstance(value, ExponentExpr):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot use {value!r} as an exponent expression")
    return Const(value)


def eval_exponent(expr: ExponentExpr, state: BasisState) -> int:
    """Exact integer evaluation of an exponent expression on a basis state.

    Branches on the node's exact type, most frequent first; the recursion
    goes through the module-level name, so wrapping it sees every call.
    """
    kind = type(expr)
    if kind is Const:
        return expr.value
    if kind is ExpSub:
        return eval_exponent(expr.left, state) - eval_exponent(expr.right, state)
    if kind is Num:
        return location_value(state, expr.loc)
    if kind is ThetaTheta:
        return 1 if eval_exponent(expr.arg, state) == 0 else 0
    if kind is ExpMul:
        return eval_exponent(expr.left, state) * eval_exponent(expr.right, state)
    if kind is Theta:
        return 1 if eval_exponent(expr.arg, state) >= 0 else 0
    if kind is ExpAdd:
        return eval_exponent(expr.left, state) + eval_exponent(expr.right, state)
    raise TypeError(f"not an exponent expression: {expr!r}")


# ---------------------------------------------------------------------------
# Operator expression nodes


class OperatorExpr:
    """Base class for operator expression tree nodes.

    ``+``, ``-`` and ``*`` build ``Sum``, ``Product`` and ``ScalarMul``
    nodes, and a number stands for that multiple of the identity, so
    closed forms read like the paper's formulas, e.g.
    ``1 + (Lower(loc) - 1) * NumberOp(loc)``.
    """

    def __add__(self, other):
        return Sum((self, _as_operator(other)))

    def __radd__(self, other):
        return Sum((_as_operator(other), self))

    def __sub__(self, other):
        return Sum((self, ScalarMul(-1.0 + 0j, _as_operator(other))))

    def __rsub__(self, other):
        return Sum((_as_operator(other), ScalarMul(-1.0 + 0j, self)))

    def __mul__(self, other):
        return Product((self, _as_operator(other)))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ScalarMul(complex(other), self)
        return Product((_as_operator(other), self))


class Primitive(OperatorExpr):
    """A leaf operator, defined by its action on one basis state."""

    def act(self, state) -> list[tuple[complex, object]]:
        """The (factor, image) pairs of this leaf on ``state``; an empty
        list means the state is annihilated."""
        raise NotImplementedError


class Deterministic(Primitive):
    """A leaf whose ``image`` maps a state to exactly one, factor one, or raises."""

    def act(self, state: BasisState) -> list[tuple[complex, BasisState]]:
        return [(1.0 + 0j, self.image(state))]


@dataclass(frozen=True)
class Identity(OperatorExpr):
    pass


@dataclass(frozen=True)
class Raise(Primitive):
    loc: Location

    def act(self, state: BasisState) -> list[tuple[complex, BasisState]]:
        v = location_value(state, self.loc)
        return [(complex(math.sqrt(v + 1)), with_location(state, self.loc, v + 1))]


@dataclass(frozen=True)
class Lower(Primitive):
    loc: Location

    def act(self, state: BasisState) -> list[tuple[complex, BasisState]]:
        v = location_value(state, self.loc)
        if v == 0:
            return []
        return [(complex(math.sqrt(v)), with_location(state, self.loc, v - 1))]


@dataclass(frozen=True)
class NumberOp(Primitive):
    loc: Location

    def act(self, state: BasisState) -> list[tuple[complex, BasisState]]:
        return [(complex(location_value(state, self.loc)), state)]


@dataclass(frozen=True)
class Clear(Deterministic):
    loc: Location

    def image(self, state: BasisState) -> BasisState:
        return with_location(state, self.loc, 0)


@dataclass(frozen=True)
class Copy(Deterministic):
    """Copy the source value onto the destination, which must hold zero.

    ``Copy(dst, IN)`` consumes the input head; ``Copy(OUT, src)`` appends to
    the output stream (no zero requirement, appending is the write).
    """

    dst: Location
    src: Location

    def image(self, state: BasisState) -> BasisState:
        dst, src = self.dst, self.src
        if dst.kind == "out":
            if src.kind in {"in", "out"}:
                raise UnsupportedLocation("output copy source must be a storage location")
            return state.append_output(location_value(state, src))
        if dst.kind == "in" or src.kind == "out":
            raise UnsupportedLocation("streams support only input reads and output appends")
        if (held := location_value(state, dst)) != 0:
            raise CopyOntoNonzero(f"copy onto nonzero destination {dst} (value {held})")
        if src.kind == "in":
            value, state = state.pop_input()
        else:
            value = location_value(state, src)
        return with_location(state, dst, value)


@dataclass(frozen=True)
class ScalarMul(OperatorExpr):
    scalar: complex
    expr: OperatorExpr

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.scalar):
            raise ValueError(f"non-finite scalar {self.scalar!r}")


@dataclass(frozen=True)
class Product(OperatorExpr):
    """Operator product; the rightmost factor applies first.

    Evaluation runs a flat plan of the factors in application order, built
    on first use (:func:`_plan`). A factor that is itself a ``Product`` is
    expanded in place, which is exact because merging is idempotent on its
    own output: the inner product's last merge only re-merged a merged
    list. A factor ``GuardedPower(_, ThetaTheta(Num(PC) - c))`` applies its
    base to the live terms with ``pc == c`` and passes the others through,
    as the guard's 0/1 exponent would, without evaluating the guard; once
    the terms have been merged it is skipped while no term has ``pc == c``,
    which is exactly the identity.

    A plan of ``Deterministic`` leaves given one term chains their images:
    they keep the amplitude, so only the merge after the first can act.
    """

    factors: tuple[OperatorExpr, ...]

    def __post_init__(self) -> None:
        if type(self.factors) is not tuple:
            object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("Product requires at least one factor")


@dataclass(frozen=True)
class Sum(OperatorExpr):
    terms: tuple[OperatorExpr, ...]

    def __post_init__(self) -> None:
        if type(self.terms) is not tuple:
            object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("Sum requires at least one term")


@dataclass(frozen=True)
class GuardedPower(OperatorExpr):
    """Base operator applied k times, k evaluated per basis term.

    Exponent 0 means identity; a negative exponent is an error.
    """

    base: OperatorExpr
    exponent: ExponentExpr


@dataclass(frozen=True)
class SetValue(Deterministic):
    """Set a location to the value of an exponent expression, amplitude one.

    The normalized raise-to-power/lower-to-zero composite in closed form;
    ``SetValue(loc, Const(0))`` acts exactly like ``Clear(loc)``.
    """

    loc: Location
    value: ExponentExpr

    def image(self, state: BasisState) -> BasisState:
        value = eval_exponent(self.value, state)
        if value < 0:
            raise NegativeExponent(f"set-value target evaluated to {value}")
        return with_location(state, self.loc, value)


@dataclass(frozen=True)
class InstructionOp(Deterministic):
    """Amplitude-one value action of a register instruction."""

    instr: isa.Instruction

    def image(self, state: BasisState) -> BasisState:
        return isa.apply_to_state(self.instr, state)


@dataclass(frozen=True)
class RecursiveRef(OperatorExpr):
    """Re-enter the named definition in its next pass, spending one unit of budget."""

    label: str


@dataclass(frozen=True)
class Bra(OperatorExpr):
    """Halts a term: it leaves evaluation and no further operator sees it."""


@dataclass(frozen=True)
class Define(OperatorExpr):
    """Bind ``label`` to ``body`` for recursive references, then apply it."""

    label: str
    body: OperatorExpr


def product(*factors: OperatorExpr) -> OperatorExpr:
    """Build a product, collapsing the single-factor case."""
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def summation(*terms: OperatorExpr) -> OperatorExpr:
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def scaled(scalar: complex, expr: OperatorExpr) -> OperatorExpr:
    return ScalarMul(complex(scalar), expr)


def _as_operator(value: Union[complex, OperatorExpr]) -> OperatorExpr:
    if isinstance(value, OperatorExpr):
        return value
    if value == 1:
        return Identity()
    if isinstance(value, (int, float, complex)):
        return ScalarMul(complex(value), Identity())
    raise TypeError(f"cannot use {value!r} as an operator")


# ---------------------------------------------------------------------------
# Evaluation


#: An (amplitude, basis state) pair, the evaluator's unit of work.
Term = tuple[complex, BasisState]


class EvalStats:
    """Counters filled in during evaluation, for run reporting."""

    __slots__ = ("primitive_ops", "reentries")

    def __init__(self) -> None:
        self.primitive_ops = 0
        self.reentries = 0


def _pc_guard(factor: OperatorExpr) -> int | None:
    """``c`` when ``factor`` is exactly ``GuardedPower(_, ThetaTheta(Num(PC) - c))``.

    Worked out once per guard node and kept on it outside its fields, so a
    guard that many compiles share is recognised once.
    """
    if type(factor) is not GuardedPower or type(factor.exponent) is not ThetaTheta:
        return None
    guard = factor.exponent
    try:
        return guard._pc_guard
    except AttributeError:
        pass
    c, arg = None, guard.arg
    if type(arg) is ExpSub and type(arg.right) is Const:
        if type(arg.left) is Num and (arg.left.loc is PC or arg.left.loc == PC):
            c = arg.right.value
    object.__setattr__(guard, "_pc_guard", c)
    return c


def _plan(expr: Product) -> tuple[list[OperatorExpr], list[int | None], bool]:
    """The factors of ``expr`` in application order, nested products expanded
    in place, the pc guard of each (or None), and whether all are deterministic.

    Built on first use and kept on ``expr`` outside its fields. Nested
    products are expanded with an explicit stack, and the inner products
    keep nothing, so a deep chain costs memory linear in its depth. The
    factors are kept in a list, not a tuple, so a walk over node attributes
    that follows tuples, as tree fields are, does not count them twice.
    """
    try:
        return expr._plan
    except AttributeError:
        pass
    factors = list(reversed(expr.factors))
    if Product in map(type, factors):
        factors, stack = [], list(expr.factors)
        while stack:
            factor = stack.pop()
            if type(factor) is Product:
                stack.extend(factor.factors)
            else:
                factors.append(factor)
    plan = factors, list(map(_pc_guard, factors)), all(isinstance(f, Deterministic) for f in factors)
    object.__setattr__(expr, "_plan", plan)
    return plan


def apply_primitive(op: Primitive, state: BasisState) -> list[tuple[complex, BasisState]]:
    """Action of a single primitive (``SetValue`` and ``InstructionOp`` too) on one basis state.

    Returns a list of (amplitude, state) results; an empty list means the
    state was annihilated.
    """
    if not isinstance(op, Primitive):
        raise TypeError(f"not a primitive operator: {op!r}")
    return op.act(state)


def _dispatch(
    expr: OperatorExpr,
    terms: list[Term],
    env: Mapping[str, list[Term]],
    budget: int,
    tol: float,
    stats: EvalStats,
    halted: list[Term],
) -> list[Term]:
    """Apply ``expr`` to the live ``terms`` and return the live results.

    A term that reaches a ``Bra`` is appended to ``halted``, and one that
    reaches a ``RecursiveRef`` to its label's re-entry list in ``env``; either
    way it leaves the working set, so no further operator of this pass sees
    it. ``budget`` is the number of re-entry passes still allowed.
    """
    # Branch on the exact node type, the most frequent first. Every leaf
    # is a Primitive subclass, the bit-level ones included.
    kind = type(expr)
    if kind is Product:
        factors, guards, chain = _plan(expr)
        if chain and len(terms) == 1:
            # Deterministic leaves keep the amplitude, so the merge after
            # the first factor is the only one that can change the term.
            stats.primitive_ops += 1
            terms = combine([(terms[0][0], factors[0].image(terms[0][1]))], tol)
            for factor in factors[1:] if terms else ():
                stats.primitive_ops += 1
                terms = [(terms[0][0], factor.image(terms[0][1]))]
            return terms
        # combine is idempotent on its own output, so once the terms have
        # been combined a guarded factor no live term meets can be skipped,
        # and so can the merge after a product base, which returns merged terms.
        combined, pcs = False, None
        for factor, c in zip(factors, guards):
            if c is None:
                terms = _dispatch(factor, terms, env, budget, tol, stats, halted)
            elif combined and len(terms) == 1:
                if terms[0][1].pc != c:
                    continue
                terms = _dispatch(factor.base, terms, env, budget, tol, stats, halted)
                if type(factor.base) is Product:
                    continue
            else:
                if combined:
                    if pcs is None:
                        pcs = {state.pc for _, state in terms}
                    if c not in pcs:
                        continue
                # The guard's 0/1 exponent, read off the program counter.
                out = []
                for term in terms:
                    if term[1].pc == c:
                        out.extend(_dispatch(factor.base, [term], env, budget, tol, stats, halted))
                    else:
                        out.append(term)
                terms = out
            terms = combine(terms, tol)
            combined, pcs = True, None
        return terms

    if kind is GuardedPower:
        out = []
        for term in terms:
            k = eval_exponent(expr.exponent, term[1])
            if k < 0:
                raise NegativeExponent(f"guarded power exponent evaluated to {k}")
            branch = [term]
            for _ in range(k):
                branch = _dispatch(expr.base, branch, env, budget, tol, stats, halted)
            out.extend(branch)
        return out

    if isinstance(expr, Primitive):
        stats.primitive_ops += len(terms)
        return [
            (amp * factor, image)
            for amp, state in terms
            for factor, image in expr.act(state)
        ]

    if kind is Sum:
        out = []
        for branch in expr.terms:
            out.extend(_dispatch(branch, terms, env, budget, tol, stats, halted))
        return combine(out, tol)

    if kind is ScalarMul:
        # Terms that halt or re-enter inside are scaled where they were put.
        marks = [(pending, len(pending)) for pending in (halted, *env.values())]
        live = _dispatch(expr.expr, terms, env, budget, tol, stats, halted)
        for pending, mark in marks:
            pending[mark:] = [(expr.scalar * amp, state) for amp, state in pending[mark:]]
        return [(expr.scalar * amp, state) for amp, state in live]

    if kind is RecursiveRef:
        if terms:
            if budget <= 0:
                raise FuelExhausted(f"recursive re-entry of {expr.label!r} with no budget left")
            if expr.label not in env:
                raise UndefinedReference(f"no definition for label {expr.label!r}")
            stats.reentries += len(terms)
            env[expr.label].extend(terms)
        return []

    if kind is Bra:
        halted.extend(terms)
        return []

    if kind is Define:
        out = []
        while terms:
            reentered: list[Term] = []
            inner = {**env, expr.label: reentered}
            out.extend(_dispatch(expr.body, terms, inner, budget, tol, stats, halted))
            terms, budget = reentered, budget - 1
        return out

    if kind is Identity:
        return terms

    raise TypeError(f"not an operator expression: {expr!r}")


def apply_with_status(
    expr: OperatorExpr,
    s: Superposition,
    fuel_budget: int = DEFAULT_FUEL_BUDGET,
    *,
    stats: EvalStats | None = None,
) -> tuple[Superposition, Superposition]:
    """Like :func:`apply_expr`, but returns the ``(live, halted)`` terms
    as two superpositions.

    A term that reaches a ``Bra`` leaves the working set at once, so it is
    inert under every further operator, ``Sum`` included; only an enclosing
    ``ScalarMul`` still scales it.
    """
    if fuel_budget < 0:
        raise ValueError(f"fuel budget must be nonnegative, got {fuel_budget}")
    if stats is None:
        stats = EvalStats()
    halted: list[Term] = []
    live = _dispatch(expr, list(s.terms), {}, fuel_budget, DROP_TOLERANCE, stats, halted)
    return merge(live), merge(halted)


def apply_expr(
    expr: OperatorExpr,
    s: Superposition,
    fuel_budget: int = DEFAULT_FUEL_BUDGET,
    *,
    stats: EvalStats | None = None,
) -> Superposition:
    """Apply an operator expression to a superposition.

    ``fuel_budget`` bounds the re-entry passes of every ``Define``; a
    re-entry attempted with no budget left raises :class:`FuelExhausted`.
    """
    live, halted = apply_with_status(expr, s, fuel_budget, stats=stats)
    # Merging is idempotent, so live terms alone need no second merge.
    return merge(live.terms + halted.terms) if halted.terms else live


END = object()  # yielded by walk after the fields of each node


def walk(root: object) -> Iterator[object]:
    """Pre-order walk over dataclass fields, from an explicit stack: each node,
    then its field values (tuples flattened), then ``END``. ``Const``,
    ``Location`` and instructions are leaves; values cached on nodes are unseen."""
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(reversed(item))
        else:
            yield item
            if is_dataclass(item) and not isinstance(item, (Const, Location, isa.Instruction)):
                stack.append(END)
                stack.extend(getattr(item, field.name) for field in reversed(fields(item)))


def locations(node: object) -> set[Location]:
    """Every location referenced anywhere in an operator or exponent tree."""
    return {item for item in walk(node) if isinstance(item, Location)}


# ---------------------------------------------------------------------------
# Deterministic textual dump


def _format_scalar(value: complex) -> str:
    spec = f".{SIGNIFICANT_DIGITS}g"
    re = format(value.real, spec)
    if value.imag == 0:
        return re
    return f"({re},{format(value.imag, spec)})"


#: Printed names of the node classes whose name differs from the class name.
_SEXPR_NAMES = {
    InstructionOp: "Instruction",
    Num: "NumberOp",
    ExpAdd: "Add",
    ExpSub: "Sub",
    ExpMul: "Mul",
}


def sexpr(node: object) -> str:
    """Deterministic S-expression dump of operator and exponent trees.

    A node prints as ``(Name field ...)`` over its fields in declaration
    order; a constant exponent prints as its bare value.
    """
    words = []
    for item in walk(node):
        if item is END:
            words.append(")")
        elif isinstance(item, Const):
            words.append(f" {item.value}")
        elif isinstance(item, (OperatorExpr, ExponentExpr)):
            words.append(" (" + (_SEXPR_NAMES.get(type(item)) or type(item).__name__))
        elif isinstance(item, (Location, str)):
            words.append(f" {item}")
        elif isinstance(item, (complex, float, int)):
            words.append(" " + _format_scalar(item))
        elif isinstance(item, isa.Instruction):
            words.append(f" {item.opcode.value}" + (f" {item.operand}" if item.operand else ""))
        else:
            raise TypeError(f"cannot print {item!r}")
    return "".join(words)[1:]

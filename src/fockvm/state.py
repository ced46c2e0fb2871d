"""Machine states, superpositions, and measurement statistics.

A basis state is one classical machine configuration: the register, the
program counter, a recursion counter ("fuel"), a sparse memory held only as
its nonzero (address, value) cells sorted by address, and the two I/O
streams. Stored values are exact nonnegative integers of any size;
amplitudes are complex doubles. Basis vectors are unit norm by construction.

A basis state is a slotted record, validated once, when it is constructed.
An update (``with_register``, ``with_mem``, ``pop_input`` and the rest)
builds a new state from a valid one and checks only the value it writes;
the fields it copies were checked when their source state was built. A
``PendingState`` offers the same updates, written in place, to a run of
updates that needs only the state it ends in.

Superpositions are finite lists of (amplitude, basis state) terms kept in a
canonical form: identical states merged, near-zero amplitudes dropped, terms
sorted on the fields in declaration order (register, pc, fuel, mem, input,
output), the order ``order=True`` defines.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter, itemgetter
from typing import TypeVar

from .errors import EmptyState, InputExhausted, NonFiniteAmplitude, ParseError

#: Amplitudes with modulus below this after a merge are treated as
#: cancellation noise and removed. Callers may override per merge.
DROP_TOLERANCE = 1e-12

#: Significant digits used by the canonical text format and the CLI.
SIGNIFICANT_DIGITS = 12

Amplitude = complex

_S = TypeVar("_S")


def _check_counter(name: str, value: object, addr: int | None = None) -> int:
    """Reject a value that is not a nonnegative integer. ``addr`` names the
    memory cell a value is stored at; the message is built only on failure."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        error, problem = TypeError, f"must be an integer, got {type(value).__name__}"
    elif value < 0:
        error, problem = ValueError, f"must be nonnegative, got {value}"
    else:
        return value
    where = name if addr is None else f"{name} at {addr}"
    raise error(f"{where} {problem}")


@dataclass(frozen=True, order=True, slots=True)
class BasisState:
    """One classical machine configuration.

    ``mem`` may be given as a mapping or as (address, value) pairs; it is
    normalized to a tuple sorted by address with all zero entries removed,
    so two states with the same contents always compare and hash equal; it
    is the only copy of the memory, read by bisection. ``input`` holds
    the not-yet-consumed input values, ``output`` the values emitted so far.

    The constructor validates every field and is the one entry for outside
    input. The ``with_*`` updates, ``pop_input`` and ``append_output`` build
    their result through the unchecked ``_record`` and check only the value
    they write, so the invariant holds for every state by induction.
    """

    register: int = 0
    pc: int = 0
    fuel: int = 0
    mem: tuple[tuple[int, int], ...] = ()
    input: tuple[int, ...] = ()
    output: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_counter("register", self.register)
        _check_counter("pc", self.pc)
        _check_counter("fuel", self.fuel)
        items = self.mem.items() if isinstance(self.mem, Mapping) else tuple(self.mem)
        cleaned: dict[int, int] = {}
        for addr, value in items:
            _check_counter("memory address", addr)
            _check_counter("memory value", value, addr)
            if addr in cleaned:
                raise ValueError(f"duplicate memory address {addr}")
            if value > 0:
                cleaned[addr] = value
        object.__setattr__(self, "mem", tuple(sorted(cleaned.items())))
        for field in ("input", "output"):
            stream = tuple(getattr(self, field))
            for v in stream:
                _check_counter(f"{field} value", v)
            object.__setattr__(self, field, stream)

    def mem_value(self, addr: int) -> int:
        """Value stored at ``addr``; absent addresses read as zero."""
        # (addr,) sorts just before (addr, value), so bisection finds the cell.
        mem = self.mem
        i = bisect_left(mem, (addr,))
        return mem[i][1] if i < len(mem) and mem[i][0] == addr else 0

    def with_register(self, value: int) -> "BasisState":
        return _record(_check_counter("register", value), self.pc, self.fuel, self.mem, self.input, self.output)

    def with_pc(self, value: int) -> "BasisState":
        return _record(self.register, _check_counter("pc", value), self.fuel, self.mem, self.input, self.output)

    def with_fuel(self, value: int) -> "BasisState":
        return _record(self.register, self.pc, _check_counter("fuel", value), self.mem, self.input, self.output)

    def with_mem(self, addr: int, value: int) -> "BasisState":
        return _record(self.register, self.pc, self.fuel, _with_cell(self.mem, addr, value), self.input, self.output)

    def pop_input(self) -> tuple[int, "BasisState"]:
        """Consume the head of the input stream."""
        if not self.input:
            raise InputExhausted("input stream is empty")
        return self.input[0], _record(self.register, self.pc, self.fuel, self.mem, self.input[1:], self.output)

    def append_output(self, value: int) -> "BasisState":
        output = self.output + (_check_counter("output value", value),)
        return _record(self.register, self.pc, self.fuel, self.mem, self.input, output)


def _with_cell(mem: tuple[tuple[int, int], ...], addr: int, value: int) -> tuple[tuple[int, int], ...]:
    """``mem`` with ``addr`` holding ``value``, checked; a zero removes the cell."""
    _check_counter("memory address", addr)
    _check_counter("memory value", value, addr)
    i = bisect_left(mem, (addr,))
    end = i + 1 if i < len(mem) and mem[i][0] == addr else i
    cell = ((addr, value),) if value > 0 else ()
    return mem[:i] + cell + mem[end:]


# Each slot's member descriptor writes it directly, past the frozen __setattr__.
_set_register, _set_pc, _set_fuel, _set_mem, _set_input, _set_output = (
    BasisState.__dict__[f.name].__set__ for f in fields(BasisState)
)


def _record(register, pc, fuel, mem, input, output) -> BasisState:
    """A basis state from its field values in declaration order, unchecked."""
    state = object.__new__(BasisState)
    _set_register(state, register)
    _set_pc(state, pc)
    _set_fuel(state, fuel)
    _set_mem(state, mem)
    _set_input(state, input)
    _set_output(state, output)
    return state


class PendingState:
    """A basis state under a run of updates: ``BasisState``'s read and update
    interface, written in place. Each update checks the value it writes as
    ``BasisState``'s does and returns the pending state itself; :meth:`record`
    builds the one basis state the updates lead to.
    """

    __slots__ = ("register", "pc", "fuel", "mem", "input", "output")

    def __init__(self, state: BasisState) -> None:
        self.register = state.register
        self.pc = state.pc
        self.fuel = state.fuel
        self.mem = state.mem
        self.input = state.input
        self.output = state.output

    mem_value = BasisState.mem_value

    def with_register(self, value: int) -> "PendingState":
        self.register = _check_counter("register", value)
        return self

    def with_pc(self, value: int) -> "PendingState":
        self.pc = _check_counter("pc", value)
        return self

    def with_fuel(self, value: int) -> "PendingState":
        self.fuel = _check_counter("fuel", value)
        return self

    def with_mem(self, addr: int, value: int) -> "PendingState":
        self.mem = _with_cell(self.mem, addr, value)
        return self

    def pop_input(self) -> tuple[int, "PendingState"]:
        if not self.input:
            raise InputExhausted("input stream is empty")
        value, self.input = self.input[0], self.input[1:]
        return value, self

    def append_output(self, value: int) -> "PendingState":
        self.output += (_check_counter("output value", value),)
        return self

    def record(self) -> BasisState:
        return _record(self.register, self.pc, self.fuel, self.mem, self.input, self.output)


@dataclass(frozen=True)
class Superposition:
    """A canonical finite superposition of basis states.

    Build instances through :func:`merge` (or :func:`unit`); the constructor
    assumes its terms are already canonical.
    """

    terms: tuple[tuple[complex, BasisState], ...] = ()

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def amplitude(self, state: BasisState) -> complex:
        for amp, s in self.terms:
            if s == state:
                return amp
        return 0j

    def norm_squared(self) -> float:
        total = 0.0  # summed in term order as inner_product sums, so it equals <v, v>
        for amp, _ in self.terms:
            total += amp.real * amp.real + amp.imag * amp.imag
        return total

    def states(self) -> tuple[BasisState, ...]:
        return tuple(s for _, s in self.terms)


def unit(state: BasisState) -> Superposition:
    """The unit-amplitude superposition containing just ``state``."""
    return Superposition(((1.0 + 0j, state),))


@cache
def _order_key(cls: type) -> attrgetter:
    """Read an ``order=True`` dataclass's compared fields in declaration
    order, in C: the tuple equals, hashes and orders as the instance does."""
    return attrgetter(*(f.name for f in fields(cls) if f.compare))


def combine(terms: list[tuple[complex, _S]], drop_tolerance: float) -> list[tuple[complex, _S]]:
    """Sum the amplitudes of identical states, drop sums whose modulus falls
    below ``drop_tolerance``, and sort the survivors by state.

    The one merge kernel behind :func:`merge`, the evaluator's product and
    sum steps, and the bit-level machine. A tolerance of ``math.ulp(0.0)``
    drops exact zeros only. Every sum starts from ``0j``, which also turns
    a signed zero into ``+0``, so the output is its own fixed point. States
    are summed and sorted on their :func:`_order_key`: the field order.
    """
    if len(terms) == 1:
        # One term: nothing to sum or sort. operators._run repeats this rule inline.
        [(amp, state)] = terms
        amp = 0j + amp
        return [(amp, state)] if abs(amp) >= drop_tolerance else []
    key = _order_key(type(terms[0][1])) if terms else None
    acc: dict[object, list] = {}
    for amp, state in terms:
        acc.setdefault(key(state), [0j, state])[0] += amp
    ordered = sorted(acc.items(), key=itemgetter(0))
    return [(amp, state) for _, (amp, state) in ordered if abs(amp) >= drop_tolerance]


def merge(
    terms: Iterable[tuple[complex, BasisState]],
    drop_tolerance: float = DROP_TOLERANCE,
) -> Superposition:
    """Combine raw (amplitude, state) pairs into canonical form.

    Amplitudes of identical basis states are summed, terms whose modulus
    falls below ``drop_tolerance`` are removed, and the survivors are sorted
    into the canonical order. Idempotent by construction.
    """
    checked = []
    for amp, state in terms:
        amp = complex(amp)
        if not cmath.isfinite(amp):
            raise NonFiniteAmplitude(f"non-finite amplitude {amp!r}")
        checked.append((amp, state))
    return Superposition(tuple(combine(checked, drop_tolerance)))


def parse_amplitude(text: str) -> complex:
    """Parse a real ``re`` or a complex ``(re,im)`` amplitude.

    Raises ``ValueError`` on malformed or non-finite text.
    """
    text = text.strip()
    pair = text.startswith("(") and text.endswith(")")
    try:
        re_part, im_part = text[1:-1].split(",") if pair else (text, "0")
        amp = complex(float(re_part), float(im_part))
    except ValueError:
        raise ValueError(f"bad amplitude {text!r}, expected re or (re,im)") from None
    if not cmath.isfinite(amp):
        raise ValueError(f"non-finite amplitude {text!r}")
    return amp


def inner_product(a: Superposition, b: Superposition) -> complex:
    """Hermitian inner product; basis states compare by full field equality."""
    amps = {state: amp for amp, state in a.terms}
    total = 0j
    for amp_b, state in b.terms:
        amp_a = amps.get(state)
        if amp_a is not None:
            total += amp_a.conjugate() * amp_b
    return total


def probabilities(s: Superposition) -> dict[BasisState, float]:
    """Measurement probabilities |amp|^2 normalized to total one."""
    if not s.terms:
        raise EmptyState("cannot take probabilities of an empty superposition")
    try:
        weights = [(state, abs(amp) ** 2) for amp, state in s.terms]
    except OverflowError:
        raise NonFiniteAmplitude("a squared amplitude overflows") from None
    total = sum(w for _, w in weights)
    if math.isinf(total):
        raise NonFiniteAmplitude("the squared amplitudes sum past the float range")
    return {state: w / total for state, w in weights}


def sample(s: Superposition, count: int, seed: int) -> dict[BasisState, int]:
    """Draw ``count`` independent measurements, deterministic per ``seed``.

    Returns counts only for outcomes that actually occurred.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    probs = probabilities(s)
    if count == 0:
        return {}
    states = list(probs)
    weights = [probs[state] for state in states]
    rng = random.Random(seed)
    counts: dict[BasisState, int] = {}
    for state in rng.choices(states, weights=weights, k=count):
        counts[state] = counts.get(state, 0) + 1
    return counts


def distance(a: Superposition, b: Superposition) -> float:
    """L2 distance between two superpositions."""
    amps: dict[BasisState, complex] = {state: amp for amp, state in a.terms}
    for amp, state in b.terms:
        amps[state] = amps.get(state, 0j) - amp
    return math.sqrt(sum(abs(v) ** 2 for v in amps.values()))


def round_significant(x: float) -> float:
    """Round to the canonical 12 significant digits."""
    return float(format(x, f".{SIGNIFICANT_DIGITS}g"))


def state_record(state: BasisState) -> dict:
    """JSON record of a basis state's fields; memory as an address:value object."""
    return {
        "register": state.register,
        "pc": state.pc,
        "fuel": state.fuel,
        "mem": {str(addr): value for addr, value in state.mem},
        "input": list(state.input),
        "output": list(state.output),
    }


def serialize(s: Superposition) -> str:
    """Canonical text form: a JSON list of term records.

    Each record carries the amplitude as a [re, im] pair printed with 12
    significant digits plus the state fields; memory is an address:value
    object. Term order and memory key order are canonical, so identical
    superpositions always serialize to identical text.
    """
    records = [
        {
            "amplitude": [round_significant(amp.real), round_significant(amp.imag)],
            **state_record(state),
        }
        for amp, state in s.terms
    ]
    return json.dumps(records, indent=1)


#: The scalar and stream fields of a term record, each optional.
_STATE_FIELDS = ("register", "pc", "fuel", "input", "output")



def deserialize(text: str) -> Superposition:
    """Parse the canonical text form back into a superposition.

    Raises :class:`ParseError` with line and column information on malformed
    JSON, and without position on schema violations, naming the term record
    by index and a bad value by type so the message stays one short line.
    """
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ParseError("state text nests too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError("state text holds an integer with too many digits") from None
    if not isinstance(records, list):
        raise ParseError("state text must be a JSON list of term records")
    terms = []
    for index, record in enumerate(records):
        where = f"term record {index}"
        if not isinstance(record, dict):
            raise ParseError(f"{where} must be an object, got {type(record).__name__}")
        amp = record.get("amplitude")
        if (
            not isinstance(amp, list)
            or len(amp) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in amp)
        ):
            raise ParseError(f"{where}: amplitude must be a [re, im] pair, got {type(amp).__name__}")
        try:
            amplitude = complex(amp[0], amp[1])
            finite = cmath.isfinite(amplitude)
        except OverflowError:  # an integer part beyond the float range
            finite = False
        if not finite:
            raise ParseError(f"{where}: amplitude must be finite")
        mem = record.get("mem", {})
        if not isinstance(mem, dict):
            raise ParseError(f"{where}: field 'mem' must be an address:value object")
        if not all(isinstance(record.get(key, []), list) for key in ("input", "output")):
            raise ParseError(f"{where}: fields 'input' and 'output' must be lists")
        given = {key: record[key] for key in _STATE_FIELDS if key in record}
        try:
            # Pairs, not a dict, so that "1" and "01" are a duplicate address.
            state = BasisState(mem=[(int(addr), value) for addr, value in mem.items()], **given)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {str(exc)[:100]}") from None  # it may quote the input
        terms.append((amplitude, state))
    return merge(terms)

import copy
import math
import pickle
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockvm.bitlevel import BitBasisState
from fockvm.errors import EmptyState, InputExhausted, NonFiniteAmplitude, ParseError
from fockvm.state import (
    BasisState,
    combine,
    deserialize,
    inner_product,
    merge,
    parse_amplitude,
    probabilities,
    round_significant,
    sample,
    serialize,
    unit,
)

S = BasisState(register=1, mem={3: 4})
S1 = BasisState(register=1)
S2 = BasisState(register=2)


def snapped(x: float) -> float:
    return round_significant(x)


amplitudes = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False).map(snapped),
    st.floats(-2, 2, allow_nan=False).map(snapped),
)

states = st.builds(
    BasisState,
    register=st.integers(0, 5),
    pc=st.integers(0, 5),
    fuel=st.integers(0, 3),
    mem=st.dictionaries(st.integers(0, 6), st.integers(0, 9), max_size=3),
    input=st.lists(st.integers(0, 9), max_size=2).map(tuple),
    output=st.lists(st.integers(0, 9), max_size=2).map(tuple),
)

# Unique states keep merge from summing amplitudes, so the generated
# superpositions stay representable at 12 significant digits.
superpositions = st.dictionaries(states, amplitudes, max_size=5).map(
    lambda d: merge([(amp, s) for s, amp in d.items()])
)


class TestBasisState:
    def test_mem_drops_zeros_and_sorts(self):
        s = BasisState(mem={5: 0, 2: 7, 9: 1})
        assert s.mem == ((2, 7), (9, 1))
        assert s.mem_value(5) == 0
        assert s.mem_value(2) == 7

    def test_equality_ignores_zero_entries(self):
        assert BasisState(mem={1: 0}) == BasisState()

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            BasisState(register=-1)
        with pytest.raises(ValueError):
            BasisState(mem={0: -2})

    def test_canonical_ordering_is_field_lexicographic(self):
        assert BasisState(register=0, pc=9) < BasisState(register=1)
        assert BasisState(mem={0: 1}) < BasisState(mem={0: 2})

    def test_pop_input(self):
        s = BasisState(input=(4, 5))
        value, rest = s.pop_input()
        assert value == 4 and rest.input == (5,)

    @pytest.mark.parametrize(
        "update, error",
        [
            (lambda s: s.with_register(-1), ValueError),
            (lambda s: s.with_pc(-1), ValueError),
            (lambda s: s.with_fuel(-1), ValueError),
            (lambda s: s.with_mem(-1, 1), ValueError),
            (lambda s: s.with_mem(0, -1), ValueError),
            (lambda s: s.append_output(-1), ValueError),
            (lambda s: s.with_register(True), TypeError),
            (lambda s: s.with_register(1.0), TypeError),
            (lambda s: BasisState().pop_input(), InputExhausted),
        ],
        ids=[
            "register-negative",
            "pc-negative",
            "fuel-negative",
            "mem-address-negative",
            "mem-value-negative",
            "output-negative",
            "register-bool",
            "register-float",
            "pop-empty-input",
        ],
    )
    def test_updates_reject_what_the_constructor_rejects(self, update, error):
        with pytest.raises(error):
            update(S)


def fields_of(state: BasisState) -> dict:
    return {
        "register": state.register,
        "pc": state.pc,
        "fuel": state.fuel,
        "mem": dict(state.mem),
        "input": state.input,
        "output": state.output,
    }


values = st.integers(0, 9)
updates = st.one_of(
    st.tuples(st.just("with_register"), values),
    st.tuples(st.just("with_pc"), values),
    st.tuples(st.just("with_fuel"), values),
    st.tuples(st.just("with_mem"), st.integers(0, 6), st.integers(0, 3)),
    st.tuples(st.just("pop_input")),
    st.tuples(st.just("append_output"), values),
)


class TestUpdatesMatchConstructor:
    """Updates skip re-validating untouched fields; the validating
    constructor is the reference they must agree with."""

    @given(states, st.lists(updates, max_size=12), states)
    @settings(max_examples=200)
    def test_updates_agree_with_rebuilt_states(self, state, steps, other):
        touched = {addr for addr, _ in state.mem}
        other = BasisState(**fields_of(other))
        for name, *args in steps:
            if name == "pop_input":
                if not state.input:
                    continue
                _, state = state.pop_input()
            else:
                state = getattr(state, name)(*args)
            if name == "with_mem":
                touched.add(args[0])
            rebuilt = BasisState(**fields_of(state))
            assert type(state) is BasisState and not hasattr(state, "__dict__")
            assert state == rebuilt and hash(state) == hash(rebuilt)
            assert (state < other) == (rebuilt < other)
            assert (state > other) == (rebuilt > other)
            assert list(state.mem) == sorted(state.mem)
            assert all(value > 0 for _, value in state.mem)
            for addr in touched:
                assert state.mem_value(addr) == rebuilt.mem_value(addr)

    @given(states, st.lists(updates, max_size=12))
    @settings(max_examples=200)
    def test_updates_write_only_their_field(self, state, steps):
        """Against a dict model: each update changes its own field, and every
        other field keeps its value in its own slot."""
        model = fields_of(state)
        for name, *args in steps:
            if name == "pop_input":
                if not state.input:
                    continue
                value, state = state.pop_input()
                assert value == model["input"][0]
                model["input"] = model["input"][1:]
            else:
                state = getattr(state, name)(*args)
                if name == "with_mem":
                    model["mem"] = {a: v for a, v in {**model["mem"], args[0]: args[1]}.items() if v}
                elif name == "append_output":
                    model["output"] += (args[0],)
                else:
                    model[name.removeprefix("with_")] = args[0]
            assert fields_of(state) == model

    @given(states, st.lists(updates, min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_derived_states_copy_and_pickle(self, state, steps):
        for name, *args in steps:
            if name != "pop_input":
                state = getattr(state, name)(*args)
        for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(twin) is BasisState and not hasattr(twin, "__dict__")
            assert fields_of(twin) == fields_of(state)
            assert twin == state and hash(twin) == hash(state)


def reference_combine(terms, drop_tolerance):
    """The plain merge: a dict of amplitudes summed per state, then a sort
    on the states themselves, which ``order=True`` compares field by field."""
    acc = {}
    for amp, state in terms:
        acc[state] = acc.get(state, 0j) + amp
    kept = [(amp, state) for state, amp in acc.items() if abs(amp) >= drop_tolerance]
    kept.sort(key=itemgetter(1))
    return kept


def bits(amp_values):
    return [(type(amp), amp.real.hex(), amp.imag.hex()) for amp in amp_values]


# States that tie on register, pc and fuel, so the order is decided by the
# memory tuple and the streams alone.
tied_states = st.builds(
    BasisState,
    register=st.just(1),
    pc=st.just(2),
    fuel=st.just(0),
    mem=st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=3),
    input=st.lists(st.integers(0, 2), max_size=2).map(tuple),
    output=st.lists(st.integers(0, 2), max_size=2).map(tuple),
)
bit_states = st.integers(1, 4).flatmap(
    lambda n: st.builds(BitBasisState, st.integers(0, 1), st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple))
)
signed_amplitudes = st.sampled_from([1.0, -1.0, 0.5j, -0.5j, 0.25 - 0.75j, -0.0, complex(-0.0, -0.0), 1e-13])


class TestCombineOrder:
    """``combine`` sums and sorts on the tuple of compared fields; the
    reference sums in a dict of states and sorts on the states."""

    @pytest.mark.parametrize("state_strategy", [tied_states, bit_states], ids=["basis", "bit"])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_the_state_sorted_merge(self, state_strategy, data):
        terms = data.draw(st.lists(st.tuples(signed_amplitudes, state_strategy), max_size=12))
        tolerance = data.draw(st.sampled_from([1e-12, math.ulp(0.0), 0.0]))
        got = combine(list(terms), tolerance)
        want = reference_combine(list(terms), tolerance)
        assert [state for _, state in got] == [state for _, state in want]
        assert bits(amp for amp, _ in got) == bits(amp for amp, _ in want)
        # The first state object seen for each value is the one kept.
        assert all(g is w for (_, g), (_, w) in zip(got, want))


# Addresses over the pointer workload's window of 256 and a little past it.
window_addresses = st.integers(0, 300)
cells = st.dictionaries(window_addresses, st.integers(1, 9), max_size=40)


class TestMemoryCells:
    """``mem_value`` and ``with_mem`` against a dict model of the memory."""

    @given(cells, st.lists(st.tuples(window_addresses, st.integers(0, 9)), max_size=30))
    @settings(max_examples=150)
    def test_reads_and_writes_match_a_dict(self, start, writes):
        state, model = BasisState(mem=start), dict(start)
        for addr, value in writes:
            state = state.with_mem(addr, value)
            if value:
                model[addr] = value
            else:
                model.pop(addr, None)
            assert state.mem == tuple(sorted(model.items()))
        for addr in {0, 150, 300, *model, *(a + 1 for a in model)}:
            assert state.mem_value(addr) == model.get(addr, 0)

    @pytest.mark.parametrize(
        "addr", [0, 5, 10, 299, 300, 7], ids=["before-first", "first", "middle", "last", "after-last", "absent"]
    )
    @pytest.mark.parametrize("value", [0, 4])
    def test_first_last_middle_and_absent_cells(self, addr, value):
        state = BasisState(mem={5: 1, 10: 2, 299: 3})
        model = {5: 1, 10: 2, 299: 3}
        updated = state.with_mem(addr, value)
        if value:
            model[addr] = value
        else:
            model.pop(addr, None)
        assert updated.mem == tuple(sorted(model.items()))
        assert updated == BasisState(mem=model)
        assert [updated.mem_value(a) for a in (0, 5, 10, 299, 300, addr)] == [
            model.get(a, 0) for a in (0, 5, 10, 299, 300, addr)
        ]
        assert state.mem == ((5, 1), (10, 2), (299, 3))

    def test_clearing_every_cell_leaves_an_empty_memory(self):
        state = BasisState(mem={0: 1, 150: 2, 300: 3})
        for addr in (150, 0, 300):
            state = state.with_mem(addr, 0)
        assert state.mem == () and state == BasisState()


class TestMerge:
    def test_exact_cancellation(self):
        assert merge([(1, S), (-1, S)]).terms == ()

    def test_distinct_states_unchanged(self):
        out = merge([(0.6, S1), (0.8, S2)])
        assert len(out) == 2
        assert out.amplitude(S1) == 0.6 and out.amplitude(S2) == 0.8

    def test_amplitude_addition(self):
        out = merge([(0.5, S), (0.5, S)])
        assert out.terms == ((1.0 + 0j, S),)

    def test_drop_tolerance_configurable(self):
        tiny = merge([(1e-13, S)])
        assert not tiny
        kept = merge([(1e-13, S)], drop_tolerance=1e-15)
        assert len(kept) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            merge([(complex("inf"), S)])
        with pytest.raises(NonFiniteAmplitude):
            merge([(complex("nan"), S)])

    @given(st.lists(st.tuples(amplitudes, states), max_size=6))
    def test_idempotent(self, terms):
        once = merge(terms)
        assert merge(once.terms) == once

    def test_combine_sorts_and_drops_exact_zeros_only(self):
        tiny = math.ulp(0.0)
        out = combine([(1e-300, S2), (1, S1), (-1, S1), (0.5, S)], tiny)
        assert out == [(0.5, S), (1e-300, S2)]

    @pytest.mark.parametrize(
        "amp", [complex(-0.0, -0.0), complex(-0.0, 0.5), complex(-1.5, -0.0), -0.0, 2]
    )
    def test_combine_one_term_has_the_many_term_bits(self, amp):
        # A tolerance of zero keeps zero sums, so their sign bits show.
        [(one, state)] = combine([(amp, S1)], 0.0)
        many = dict((s, a) for a, s in combine([(amp, S1), (1.0, S2)], 0.0))
        assert state == S1 and type(one) is complex
        assert (repr(one.real), repr(one.imag)) == (repr(many[S1].real), repr(many[S1].imag))

    def test_combine_one_term_below_tolerance_is_dropped(self):
        assert combine([(1e-13, S1)], 1e-12) == []
        assert combine([(1e-12 + 0j, S1)], 1e-12) == [(1e-12, S1)]

    def test_combine_one_term_drops_exact_zeros_only(self):
        tiny = math.ulp(0.0)
        assert combine([(0.0, S1)], tiny) == []
        assert combine([(complex(-0.0, -0.0), S1)], tiny) == []
        assert combine([(tiny, S1)], tiny) == [(tiny, S1)]
        assert combine([(-1e-300j, S1)], tiny) == [(-1e-300j, S1)]


class TestParseAmplitude:
    @pytest.mark.parametrize(
        "text, amp", [("0.5", 0.5), (" -2 ", -2), ("(0,1)", 1j), ("(0.6, -0.8)", 0.6 - 0.8j)]
    )
    def test_accepts_real_and_pairs(self, text, amp):
        assert parse_amplitude(text) == amp

    @pytest.mark.parametrize("text", ["", "zap", "(1)", "(1,2,3)", "nan", "inf", "(0,-inf)"])
    def test_rejects_malformed_and_non_finite(self, text):
        with pytest.raises(ValueError):
            parse_amplitude(text)


#: Amplitudes on which a norm summed as ``abs(amp) ** 2`` missed <v, v> by
#: 1.07e-14: ``abs`` rounds through ``hypot``, not through the inner product's sum.
NORM_AMPS = [
    -1.65082746029 + 1.57483457583j,
    1.9472581007 + 1.67065165964j,
    -1.34624341086 + 1.88817884069j,
    -1.65969711034 + 1.75351284722j,
    1.55276011317 + 1.78261987983j,
]


class TestInnerProduct:
    def test_orthonormality(self):
        assert inner_product(unit(S), unit(S)) == 1
        assert inner_product(unit(S1), unit(S2)) == 0

    def test_pythagorean(self):
        v = merge([(0.6, S1), (0.8, S2)])
        assert inner_product(v, v) == pytest.approx(1.0, abs=1e-14)

    @given(superpositions)
    @example(merge([(amp, BasisState(register=i)) for i, amp in enumerate(NORM_AMPS)]))
    def test_self_product_is_norm_squared(self, v):
        ip = inner_product(v, v)
        assert ip.imag == 0
        assert ip.real >= 0
        assert abs(ip.real - v.norm_squared()) <= 1e-14

    @given(superpositions, superpositions)
    def test_conjugate_symmetry(self, a, b):
        assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate(), abs=1e-12)


class TestProbabilities:
    def test_modulus_squared(self):
        v = merge([(1 / math.sqrt(3), S1), (math.sqrt(2 / 3), S2)])
        probs = probabilities(v)
        assert probs[S1] == pytest.approx(1 / 3, abs=1e-12)
        assert probs[S2] == pytest.approx(2 / 3, abs=1e-12)

    def test_single_term_normalizes(self):
        assert probabilities(merge([(0.3 - 0.4j, S)])) == {S: 1.0}

    def test_series_amplitudes(self):
        t = 0.1
        terms = [
            ((-1j * t) ** n / math.factorial(n), BasisState(mem={n: 1}))
            for n in range(9)
        ]
        probs = probabilities(merge(terms, drop_tolerance=0))
        total = sum((t**n / math.factorial(n)) ** 2 for n in range(9))
        for n in range(9):
            expected = (t**n / math.factorial(n)) ** 2 / total
            assert probs[BasisState(mem={n: 1})] == pytest.approx(expected, rel=1e-12)

    def test_empty_state_error(self):
        with pytest.raises(EmptyState):
            probabilities(merge([]))

    @pytest.mark.parametrize("amps", [[1e200], [1e154, 1e154j], [complex(1e308, 1e308)]])
    def test_overflow_is_a_machine_error(self, amps):
        v = merge([(amp, BasisState(mem={i: 1})) for i, amp in enumerate(amps)])
        with pytest.raises(NonFiniteAmplitude):
            probabilities(v)

    @given(superpositions.filter(bool))
    def test_sums_to_one(self, v):
        assert sum(probabilities(v).values()) == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_single_state_gets_everything(self):
        assert sample(unit(S), 100, seed=0) == {S: 100}

    def test_zero_count(self):
        assert sample(unit(S), 0, seed=0) == {}

    def test_counts_sum(self):
        v = merge([(0.5, S1), (math.sqrt(0.75), S2)])
        counts = sample(v, 1000, seed=3)
        assert sum(counts.values()) == 1000

    def test_binomial_four_sigma(self):
        v = merge([(0.5, S1), (math.sqrt(0.75), S2)])
        counts = sample(v, 10_000, seed=11)
        sigma = math.sqrt(10_000 * 0.25 * 0.75)
        assert abs(counts.get(S1, 0) - 2500) <= 4 * sigma

    def test_deterministic_per_seed(self):
        v = merge([(0.5, S1), (math.sqrt(0.75), S2)])
        assert sample(v, 500, seed=9) == sample(v, 500, seed=9)
        with pytest.raises(EmptyState):
            sample(merge([]), 10, seed=0)


class TestSerialization:
    def test_empty_round_trip(self):
        assert serialize(merge([])) == "[]"
        assert deserialize("[]") == merge([])

    def test_single_term_bit_exact(self):
        term = merge([(0.75 - 0.25j, BasisState(register=2, mem={1: 3}, input=(7,), output=(9,)))])
        assert deserialize(serialize(term)) == term

    def test_deterministic_text(self):
        v = merge([(0.6, S1), (0.8, S2)])
        assert serialize(v) == serialize(merge(list(reversed(v.terms))))

    @given(superpositions)
    @settings(max_examples=150)
    def test_round_trip_identity(self, v):
        assert deserialize(serialize(v)) == v

    @given(superpositions)
    def test_serialize_of_parse_is_identity(self, v):
        text = serialize(v)
        assert serialize(deserialize(text)) == text

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as err:
            deserialize("[{bad json\n}]")
        assert err.value.line is not None and err.value.column is not None

    @pytest.mark.parametrize(
        "text", ["[" * 3000 + "]" * 3000, '{"a": ' * 3000 + "0" + "}" * 3000], ids=["list", "object"]
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests too deeply"):
            deserialize(text)

    def test_schema_errors(self):
        with pytest.raises(ParseError):
            deserialize('[{"amplitude": [1.0], "register": 0}]')
        with pytest.raises(ParseError):
            deserialize('[{"amplitude": [1.0, 0.0], "register": -3}]')
        with pytest.raises(ParseError):
            deserialize('[{"amplitude": [1.0, 0.0], "mem": {"x": 1}}]')

    @pytest.mark.parametrize(
        "fields",
        [
            '"amplitude": [1.0, 0.0], "pc": true',
            '"amplitude": [1.0, 0.0], "fuel": 1.5',
            '"amplitude": [1.0, 0.0], "mem": {"-1": 1}',
            '"amplitude": [1.0, 0.0], "mem": {"0": -1}',
            '"amplitude": [1.0, 0.0], "mem": [[0, 1]]',
            '"amplitude": [1.0, 0.0], "input": 5',
            '"amplitude": [1.0, 0.0], "input": {}',
            '"amplitude": [1.0, 0.0], "output": "12"',
            '"amplitude": [1.0, 0.0], "output": [-1]',
        ],
    )
    def test_field_schema_errors(self, fields):
        with pytest.raises(ParseError):
            deserialize(f"[{{{fields}}}]")

    @pytest.mark.parametrize(
        "text",
        [
            "[" + "[" * 959 + "]" * 959 + "]",
            '[{"amplitude": ' + "[" * 958 + "]" * 958 + "}]",
            '[{"amplitude": [1, 0], "register": ' + "[" * 958 + "]" * 958 + "}]",
            '[{"amplitude": [1, 0], "mem": {"0": ' + "[" * 957 + "]" * 957 + "}}]",
            '[{"amplitude": [1, 0], "input": [' + "[" * 957 + "]" * 957 + "]}]",
            '["' + "x" * 2**20 + '"]',
            '[{"amplitude": "' + "x" * 2**20 + '"}]',
            '[{"amplitude": [1, 0], "pc": "' + "x" * 2**20 + '"}]',
            '[{"amplitude": [1, 0], "mem": {"' + "x" * 2**20 + '": 1}}]',
            '[{"amplitude": [1, 0], "mem": {"' + "1" * 4000 + '": -1}}]',
            '[{"amplitude": [1, 0], "register": -' + "9" * 4000 + "}]",
            '[{"amplitude": [1, 0], "register": ' + "9" * 5000 + "}]",
            '[{"amplitude": [' + "9" * 4000 + ", 0]}]",
        ],
        ids=[
            "deep-record", "deep-amplitude", "deep-register", "deep-mem-value", "deep-input",
            "long-record", "long-amplitude", "long-pc", "long-mem-address",
            "long-address-number", "long-negative-register", "over-digit-limit", "huge-amplitude",
        ],
    )
    def test_schema_errors_are_one_short_line(self, text):
        with pytest.raises(ParseError) as err:
            deserialize(text)
        message = str(err.value)
        assert len(message) < 200 and "\n" not in message

    def test_schema_errors_name_the_record_and_the_type(self):
        with pytest.raises(ParseError, match=r"^term record 1 must be an object, got list$"):
            deserialize('[{"amplitude": [1, 0]}, [[[0]]]]')
        with pytest.raises(ParseError, match=r"^term record 0: register must be an integer, got str$"):
            deserialize('[{"amplitude": [1, 0], "register": "7"}]')

    def test_addresses_that_name_one_cell_are_a_duplicate(self):
        with pytest.raises(ParseError, match="duplicate memory address 1"):
            deserialize('[{"amplitude": [1, 0], "mem": {"1": 5, "01": 2}}]')

    @pytest.mark.parametrize("amp", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]", "[1e400, 0]", f"[{10**400}, 0]"])
    def test_non_finite_amplitude_is_a_parse_error(self, amp):
        with pytest.raises(ParseError, match="finite"):
            deserialize(f'[{{"amplitude": {amp}, "mem": {{"0": 1}}}}]')

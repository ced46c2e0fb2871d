import gc
import json
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockvm import grammar as grammar_module
from fockvm.errors import NoRuleForSymbol, ParseError
from fockvm.grammar import (
    Grammar,
    Rule,
    Successor,
    derivation_paths,
    outcome_distribution,
    parse_grammar,
    pass_distribution,
    pass_outcomes,
    step_successors,
    transition_probability,
)
from fockvm.state import round_significant

XY_TEXT = """
start: S
rule: S -> xy
rule: x -> xx @ 0.75
rule: x -> xy @ 0.25
rule: y -> yy
"""

COIN_TEXT = """
start: S
rule: S -> hh
rule: S -> tt
rule: S -> ht
rule: S -> th
rule: h -> t @ 0.5
rule: h -> h @ 0.5
rule: t -> h @ 0.5
rule: t -> t @ 0.5
"""


# ---------------------------------------------------------------------------
# Independent brute-force oracle: naive substring rewriting and explicit
# enumeration of every derivation sequence, written against the rule data
# only (no calls into the module under test).


def oracle_normalized(grammar: Grammar) -> list[complex]:
    groups: dict[str, list[int]] = {}
    for i, rule in enumerate(grammar.rules):
        groups.setdefault(rule.lhs, []).append(i)
    out = [0j] * len(grammar.rules)
    for indices in groups.values():
        if grammar.mode == "classical":
            total = sum(grammar.rules[i].weight.real for i in indices)
        else:
            total = math.sqrt(sum(abs(grammar.rules[i].weight) ** 2 for i in indices))
        for i in indices:
            out[i] = grammar.rules[i].weight / total if total else 0j
    return out


def oracle_rewrites(grammar: Grammar, s: str, position):
    weights = oracle_normalized(grammar)
    found = []
    for i, rule in enumerate(grammar.rules):
        for pos in range(len(s) - len(rule.lhs) + 1):
            if s[pos : pos + len(rule.lhs)] == rule.lhs and (position is None or pos == position):
                found.append((s[:pos] + rule.rhs + s[pos + len(rule.lhs) :], weights[i]))
    return found


def oracle_amplitudes(grammar: Grammar, source: str, max_steps: int, position=None):
    acc: dict[str, complex] = {}

    def walk(s: str, depth: int, amp: complex):
        if depth == max_steps:
            return
        for out, w in oracle_rewrites(grammar, s, position):
            acc[out] = acc.get(out, 0j) + amp * w
            walk(out, depth + 1, amp * w)

    walk(source, 0, 1.0 + 0j)
    return acc


def oracle_probability(grammar: Grammar, source, target, max_steps, position=None):
    acc = oracle_amplitudes(grammar, source, max_steps, position)

    def rel(a):
        return a.real if grammar.mode == "classical" else abs(a) ** 2

    relative = rel(acc.get(target, 0j))
    total = sum(rel(a) for a in acc.values())
    return relative, (relative / total if total else 0.0)


class TestParse:
    def test_xy_grammar(self):
        g = parse_grammar(XY_TEXT)
        assert g.start == "S"
        assert [r.weight.real for r in g.rules] == [1, 0.75, 0.25, 1]

    def test_coin_grammar(self):
        g = parse_grammar(COIN_TEXT)
        assert len(g.rules) == 8
        assert [r.weight.real for r in g.rules[4:]] == [0.5] * 4

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_grammar("")

    def test_missing_start(self):
        with pytest.raises(ParseError):
            parse_grammar("rule: a -> b\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError) as err:
            parse_grammar("start: a\nrule: a -> b @ zap\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "(0,-inf)"])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ParseError) as err:
            parse_grammar(f"start: a\nrule: a -> b @ {weight}\n")
        assert err.value.line == 2

    def test_complex_weights_require_quantum(self):
        with pytest.raises(ParseError):
            parse_grammar("start: a\nrule: a -> b @ (0,1)\n")
        g = parse_grammar("mode: quantum\nstart: a\nrule: a -> b @ (0,1)\n")
        assert g.rules[0].weight == 1j

    def test_comments(self):
        g = parse_grammar("# heading\nstart: a\nrule: a -> b # trailing\n")
        assert g.rules[0].rhs == "b"


def unshared_step_successors(grammar: Grammar, s: str, position=None) -> list[Successor]:
    """``step_successors`` as written before its scan was shared with the
    amplitude sums: (position, rule index) keys sorted next to each record."""
    weights = grammar.normalized_weights
    out = []
    for idx, rule in enumerate(grammar.rules):
        span = len(rule.lhs)
        pos = s.find(rule.lhs)
        while pos != -1:
            if position is None or pos == position:
                result = s[:pos] + rule.rhs + s[pos + span :]
                out.append(((pos, idx), Successor(result, pos, idx, weights[idx])))
            pos = s.find(rule.lhs, pos + 1)
    out.sort(key=lambda item: item[0])
    return [succ for _, succ in out]


class TestStepSuccessors:
    def test_matches_the_unshared_scan_on_every_string_within_six_steps(self, data_dir):
        g = parse_grammar((data_dir / "particles.g").read_text(encoding="utf-8"))
        level, reached = {"ee"}, {"ee"}
        for _ in range(6):
            level = {out for s in level for out, _ in oracle_rewrites(g, s, None)}
            reached |= level
        assert len(reached) == 147
        for s in sorted(reached):
            for position in (None, *range(len(s) + 1)):
                got = step_successors(g, s, position=position)
                assert got == unshared_step_successors(g, s, position)
                assert all(type(succ) is Successor for succ in got)

    def test_position_zero(self):
        g = parse_grammar(XY_TEXT)
        succ = step_successors(g, "xy", position=0)
        assert [(s.string, s.weight.real) for s in succ] == [("xxy", 0.75), ("xyy", 0.25)]

    def test_no_applicable_rule(self):
        g = parse_grammar(XY_TEXT)
        assert step_successors(g, "zz") == []

    def test_xx_has_four_successors(self):
        g = parse_grammar(XY_TEXT)
        succ = step_successors(g, "xx")
        oracle = oracle_rewrites(g, "xx", None)
        assert len(succ) == 4
        assert sorted((s.string, s.weight) for s in succ) == sorted(oracle)

    def test_order_is_position_then_rule(self):
        g = parse_grammar(XY_TEXT)
        succ = step_successors(g, "xy")
        assert [(s.position, s.string) for s in succ] == [(0, "xxy"), (0, "xyy"), (1, "xyy")]


class TestPassDistribution:
    def test_two_coins(self):
        g = parse_grammar(COIN_TEXT)
        assert pass_distribution(g, "hh") == pytest.approx(
            {"hh": 0.25, "ht": 0.25, "th": 0.25, "tt": 0.25}
        )

    def test_mixed_order_aggregate(self):
        d = pass_distribution(parse_grammar(COIN_TEXT), "hh")
        assert d["ht"] + d["th"] == pytest.approx(0.5)

    def test_single_symbol(self):
        d = pass_distribution(parse_grammar(COIN_TEXT), "h")
        assert d == pytest.approx({"h": 0.5, "t": 0.5})

    def test_missing_rule(self):
        with pytest.raises(NoRuleForSymbol):
            pass_distribution(parse_grammar(COIN_TEXT), "hx")

    def test_weights_normalized_per_symbol(self):
        g = Grammar("a", (Rule("a", "b", 3.0), Rule("a", "c", 1.0)))
        assert pass_distribution(g, "a") == pytest.approx({"b": 0.75, "c": 0.25})

    def test_marginal_over_second_symbol(self):
        g = Grammar("s", (Rule("h", "t", 0.2), Rule("h", "h", 0.8)))
        single = pass_distribution(g, "h")
        double = pass_distribution(g, "hh")
        marginal: dict[str, float] = {}
        for outcome, p in double.items():
            marginal[outcome[0]] = marginal.get(outcome[0], 0.0) + p
        assert marginal == pytest.approx(single)


class TestPassOutcomes:
    def test_matches_cli_golden(self, data_dir):
        golden = data_dir.parent / "tests" / "golden" / "derive-pass-json.txt"
        expected = json.loads(golden.read_text().split("\n", 1)[1])["outcomes"]
        outcomes = pass_outcomes(parse_grammar((data_dir / "coin.g").read_text()), "hh", 2)
        assert [
            {"string": s, "probability": round_significant(p)} for s, p in sorted(outcomes.items())
        ] == expected

    def test_zero_passes_is_the_source(self):
        assert pass_outcomes(parse_grammar(COIN_TEXT), "ht", 0) == {"ht": 1.0}

    def test_one_pass_is_the_distribution(self):
        g = parse_grammar(COIN_TEXT)
        assert pass_outcomes(g, "hh", 1) == pass_distribution(g, "hh")


class TestTransitionProbability:
    def test_xy_one_step(self):
        g = parse_grammar(XY_TEXT)
        assert transition_probability(g, "xy", "xxy", 1, position=0) == (0.75, 0.75)
        assert transition_probability(g, "xy", "xyy", 1, position=0) == (0.25, 0.25)

    def test_destructive_interference(self):
        w = 1 / math.sqrt(2)
        g = Grammar(
            "a",
            (Rule("a", "b", w), Rule("a", "b", complex(-w)), Rule("a", "c", 1.0)),
            mode="quantum",
        )
        relative, absolute = transition_probability(g, "a", "b", 1)
        assert relative == 0.0 and absolute == 0.0

    def test_imaginary_weight_splits_evenly(self):
        g = Grammar("a", (Rule("a", "b", 1j), Rule("a", "c", 1.0)), mode="quantum")
        oracle_b = oracle_probability(g, "a", "b", 1)
        oracle_c = oracle_probability(g, "a", "c", 1)
        assert transition_probability(g, "a", "b", 1)[1] == pytest.approx(oracle_b[1])
        assert transition_probability(g, "a", "c", 1)[1] == pytest.approx(oracle_c[1])
        assert oracle_b[1] == pytest.approx(0.5)

    def test_unreachable_target(self):
        g = parse_grammar(XY_TEXT)
        assert transition_probability(g, "xy", "qq", 3) == (0.0, 0.0)

    def test_rule_four_sums_to_one(self):
        g = parse_grammar(XY_TEXT)
        for steps in (1, 2, 3):
            dist = outcome_distribution(g, "xy", steps)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_classical_equals_quantum_with_sqrt_weights_single_path(self):
        classical = Grammar("a", (Rule("a", "b", 0.75), Rule("a", "c", 0.25)))
        quantum = Grammar(
            "a",
            (Rule("a", "b", math.sqrt(0.75)), Rule("a", "c", math.sqrt(0.25))),
            mode="quantum",
        )
        for target in ("b", "c"):
            c = transition_probability(classical, "a", target, 1)[1]
            q = transition_probability(quantum, "a", target, 1)[1]
            assert c == pytest.approx(q, abs=1e-12)

    def test_multiple_paths_break_the_correspondence(self):
        # Two routes to the same output: classical adds probabilities,
        # quantum adds amplitudes first, so the results differ.
        classical = Grammar(
            "a", (Rule("a", "b", 0.5), Rule("a", "b", 0.5), Rule("a", "c", 1.0))
        )
        quantum = Grammar(
            "a",
            (
                Rule("a", "b", math.sqrt(0.5)),
                Rule("a", "b", math.sqrt(0.5)),
                Rule("a", "c", 1.0),
            ),
            mode="quantum",
        )
        c = transition_probability(classical, "a", "b", 1)[1]
        q = transition_probability(quantum, "a", "b", 1)[1]
        assert abs(c - q) > 0.05

    def test_agrees_with_enumeration_oracle_on_corpus(self):
        corpus = [
            (parse_grammar(XY_TEXT), "xy", 3),
            (parse_grammar(XY_TEXT), "xxy", 2),
            (
                Grammar(
                    "a",
                    (
                        Rule("a", "ab", 0.5 + 0.5j),
                        Rule("b", "a", 1j),
                        Rule("ab", "b", 0.25),
                    ),
                    mode="quantum",
                ),
                "ab",
                4,
            ),
        ]
        for grammar, source, steps in corpus:
            enumerated = oracle_amplitudes(grammar, source, steps)
            for target in enumerated:
                got = transition_probability(grammar, source, target, steps)
                want = oracle_probability(grammar, source, target, steps)
                assert got[0] == pytest.approx(want[0], abs=1e-12)
                assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_derivation_paths_carry_exact_amplitudes(self):
        g = parse_grammar(XY_TEXT)
        [path] = derivation_paths(g, "xy", "xxy", 1, position=0)
        assert path.steps == ((0, 1),)
        assert path.amplitude == 0.75
        two = derivation_paths(g, "xy", "xyy", 1)
        assert len(two) == 2  # one per rewrite site
        # Path amplitudes sum to the transition amplitude.
        total = sum(p.amplitude for p in derivation_paths(g, "xy", "xxxy", 2, position=0))
        relative, _ = transition_probability(g, "xy", "xxxy", 2, position=0)
        assert total.real == pytest.approx(relative, abs=1e-12)

    def test_derivation_paths_tell_identical_rules_apart(self):
        g = Grammar("a", (Rule("a", "b", 1.0), Rule("a", "b", 3.0)))
        paths = derivation_paths(g, "a", "b", 1)
        assert [p.steps for p in paths] == [((0, 0),), ((0, 1),)]
        assert [p.amplitude for p in paths] == [0.25, 0.75]

    def test_derivation_paths_go_deeper_than_the_recursion_limit(self):
        g = parse_grammar("start: S\nrule: S -> S\n")
        paths = derivation_paths(g, "S", "S", 1200)
        assert [len(p.steps) for p in paths] == list(range(1, 1201))

    def test_derivation_paths_keep_depth_first_order(self):
        # A successor's whole subtree comes before the next successor, so
        # the longer path through "b" precedes the direct one.
        g = Grammar("a", (Rule("a", "b", 1.0), Rule("a", "c", 1.0), Rule("b", "c", 1.0)))
        paths = derivation_paths(g, "a", "c", 2)
        assert [p.steps for p in paths] == [((0, 0), (0, 2)), ((0, 1),)]
        g = Grammar("a", (Rule("a", "ab", 1.0), Rule("a", "b", 1.0), Rule("b", "a", 1.0)))
        paths = derivation_paths(g, "a", "ab", 3)
        assert [p.steps for p in paths] == [
            ((0, 0),),
            ((0, 0), (0, 1), (0, 2)),
            ((0, 0), (1, 2), (1, 1)),
            ((0, 1), (0, 2), (0, 0)),
        ]

    @given(
        weights=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
        steps=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_dp_equals_enumeration_random_classical(self, weights, steps):
        rules = tuple(
            Rule("x", rhs, w)
            for rhs, w in zip(["xx", "xy", "yx", "yy"], weights)
        )
        g = Grammar("x", rules + (Rule("y", "y", 1.0),))
        enumerated = oracle_amplitudes(g, "xy", steps)
        for target, amp in enumerated.items():
            got = transition_probability(g, "xy", target, steps)
            want = oracle_probability(g, "xy", target, steps)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


# ---------------------------------------------------------------------------
# The memoized amplitude sums against the algorithm they replace, which
# expanded every frontier string again at every level. Same frontier order,
# same summation order, so results must agree bit for bit.


def reference_amplitude_sums(grammar: Grammar, source: str, max_steps: int, position=None):
    acc: dict[str, complex] = {}
    frontier: dict[str, complex] = {source: 1.0 + 0j}
    for _ in range(max_steps):
        nxt: dict[str, complex] = {}
        for s, amp in frontier.items():
            for succ in step_successors(grammar, s, position=position):
                nxt[succ.string] = nxt.get(succ.string, 0j) + amp * succ.weight
        frontier = nxt
        for s, amp in nxt.items():
            acc[s] = acc.get(s, 0j) + amp
        if not frontier:
            break
    return acc


def reference_relative(grammar: Grammar, amp: complex) -> float:
    return amp.real if grammar.mode == "classical" else abs(amp) ** 2


def reference_probability(grammar: Grammar, source, target, max_steps, position=None):
    sums = reference_amplitude_sums(grammar, source, max_steps, position)
    relative = reference_relative(grammar, sums.get(target, 0j))
    total = sum(reference_relative(grammar, amp) for amp in sums.values())
    return relative, (relative / total if total else 0.0)


def reference_distribution(grammar: Grammar, source, max_steps, position=None):
    sums = reference_amplitude_sums(grammar, source, max_steps, position)
    rel = {s: reference_relative(grammar, amp) for s, amp in sums.items()}
    total = sum(rel.values())
    return {s: r / total for s, r in rel.items()} if total else {}


@st.composite
def small_grammars(draw):
    """Classical or quantum grammars over ``ab`` with one- and two-symbol
    left-hand sides; the start string holds the first rule's left side."""
    mode = draw(st.sampled_from(["classical", "quantum"]))
    unit = st.floats(-1.0, 1.0)
    rules = []
    for k in range(draw(st.integers(1, 4))):
        lhs = draw(st.text("ab", min_size=1, max_size=1 if k == 0 else 2))
        rhs = draw(st.text("ab", max_size=3))
        if mode == "classical":
            weight = complex(draw(st.floats(0.0, 1.0) if k else st.floats(0.01, 1.0)))
        else:
            weight = complex(draw(unit), draw(unit))
        rules.append(Rule(lhs, rhs, weight))
    start = draw(st.text("ab", max_size=2)) + rules[0].lhs
    return Grammar(start, tuple(rules), mode)


class TestMemoizedSums:
    @given(
        grammar=small_grammars(),
        steps=st.integers(0, 6),
        position=st.none() | st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_reexpanding_sums(self, grammar, steps, position):
        source = grammar.start
        want = reference_distribution(grammar, source, steps, position)
        got = outcome_distribution(grammar, source, steps, position)
        assert list(got.items()) == list(want.items())
        for target in [source, "zz", *list(want)[:3], *list(want)[-2:]]:
            assert transition_probability(grammar, source, target, steps, position) == (
                reference_probability(grammar, source, target, steps, position)
            )

    @pytest.mark.parametrize(("steps", "distinct"), [(7, 147), (8, 277)])
    def test_each_distinct_string_is_expanded_once(self, data_dir, monkeypatch, steps, distinct):
        g = parse_grammar((data_dir / "particles.g").read_text(encoding="utf-8"))
        calls = []
        real = grammar_module._rewrites

        def counted(grammar, s, position):
            calls.append(s)
            return real(grammar, s, position)

        monkeypatch.setattr(grammar_module, "_rewrites", counted)
        transition_probability(g, "ee", "ege", steps)
        # Every string reachable in fewer than ``steps`` rewrites, once each.
        level, expanded = {"ee"}, set()
        for _ in range(steps):
            expanded |= level
            level = {out for s in level for out, _ in oracle_rewrites(g, s, None)}
        assert len(calls) == len(set(calls)) == len(expanded) == distinct
        assert set(calls) == expanded

    def test_weights_are_the_group_normalized_weights(self):
        for text in (XY_TEXT, COIN_TEXT):
            g = parse_grammar(text)
            assert g.normalized_weights == tuple(oracle_normalized(g))
        g = Grammar("a", (Rule("a", "b", 1 + 2j), Rule("a", "c", -0.5j), Rule("b", "", 0.0)), mode="quantum")
        assert g.normalized_weights == tuple(oracle_normalized(g))
        assert g.normalized_weights is g.normalized_weights

    def test_no_grammar_outlives_its_callers(self):
        g = parse_grammar(XY_TEXT)
        transition_probability(g, "xy", "xxy", 3)
        pass_distribution(parse_grammar(COIN_TEXT), "ht")
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

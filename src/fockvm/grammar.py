"""Probabilistic rewrite grammars, classical and quantum.

A grammar is a list of rewrite rules over strings of single-character
symbols, each rule carrying a weight: a nonnegative real probability in
classical mode, a complex amplitude in quantum mode. Two derivation
conventions are supported because both occur in practice:

* step derivations rewrite one occurrence per step (each choice of position
  and rule is a separate branch), and
* parallel passes rewrite every symbol occurrence exactly once,
  independently, using the single-symbol rules.

Transition probabilities follow four rules: sum the amplitudes of all
derivation sequences from input to output (lengths one up to the bound);
each sequence's amplitude is the product of its step weights; in quantum
mode the relative probability is the squared modulus of that sum (classical
mode uses the sum itself, since classical weights are probabilities, not
amplitudes); and absolute probabilities divide by the total over every
output reachable within the same bound, so they sum to one.

Rule weights are relative: they are normalized within the set of rules
sharing a left-hand side before use (by the sum classically, by the root
sum of squared moduli in quantum mode).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import NoRuleForSymbol, ParseError
from .state import parse_amplitude

CLASSICAL = "classical"
QUANTUM = "quantum"


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: str
    weight: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("rule left-hand side must be nonempty")
        if not cmath.isfinite(self.weight):
            raise ValueError(f"rule weight must be finite, got {self.weight!r}")
        object.__setattr__(self, "weight", complex(self.weight))


@dataclass(frozen=True)
class Grammar:
    start: str
    rules: tuple[Rule, ...]
    mode: str = CLASSICAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ValueError("a grammar needs at least one rule")
        if self.mode not in {CLASSICAL, QUANTUM}:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == CLASSICAL:
            for rule in self.rules:
                if rule.weight.imag != 0 or rule.weight.real < 0:
                    raise ValueError(
                        f"classical weights must be nonnegative reals, got {rule.weight!r}"
                    )

    @cached_property
    def normalized_weights(self) -> tuple[complex, ...]:
        """Per-rule weights normalized within each left-hand-side group,
        worked out once per grammar object and kept in its ``__dict__``."""
        groups: dict[str, list[int]] = {}
        for idx, rule in enumerate(self.rules):
            groups.setdefault(rule.lhs, []).append(idx)
        out = [0j] * len(self.rules)
        for indices in groups.values():
            if self.mode == CLASSICAL:
                total = sum(self.rules[i].weight.real for i in indices)
            else:
                total = math.sqrt(sum(abs(self.rules[i].weight) ** 2 for i in indices))
            for i in indices:
                out[i] = self.rules[i].weight / total if total else 0j
        return tuple(out)


class Successor(NamedTuple):
    """One rewrite: the result, where it happened, the rule's index in
    ``grammar.rules`` and the rule's normalized weight."""

    string: str
    position: int
    index: int
    weight: complex


@dataclass(frozen=True)
class DerivationPath:
    """A sequence of (position, rule index) steps and its exact amplitude."""

    steps: tuple[tuple[int, int], ...]
    amplitude: complex


def parse_grammar(text: str) -> Grammar:
    """Parse the line format: optional ``mode:`` line, a ``start:`` line,
    then ``rule: lhs -> rhs [@ weight]`` lines. ``#`` starts a comment.

    Weights are reals or ``(re,im)`` pairs and default to one.
    """
    mode = CLASSICAL
    start: str | None = None
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "mode":
            if rest not in {CLASSICAL, QUANTUM}:
                raise ParseError(f"mode must be classical or quantum, got {rest!r}", line=lineno)
            mode = rest
        elif key == "start":
            if not rest:
                raise ParseError("start line needs a symbol string", line=lineno)
            start = rest
        elif key == "rule":
            body, _, weight_text = rest.partition("@")
            lhs, arrow, rhs = body.partition("->")
            if not arrow:
                raise ParseError("rule needs the form 'lhs -> rhs'", line=lineno)
            lhs = lhs.strip()
            rhs = rhs.strip()
            if not lhs:
                raise ParseError("rule left-hand side is empty", line=lineno)
            try:
                weight = parse_amplitude(weight_text) if weight_text.strip() else 1.0 + 0j
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            rules.append(Rule(lhs, rhs, weight))
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
    if start is None:
        raise ParseError("missing start line", line=1)
    if not rules:
        raise ParseError("grammar has no rules", line=1)
    try:
        return Grammar(start, tuple(rules), mode)
    except ValueError as exc:
        raise ParseError(str(exc), line=1) from None


def step_successors(grammar: Grammar, s: str, position: int | None = None) -> list[Successor]:
    """All single-rewrite successors of ``s``.

    Each (occurrence position, applicable rule) pair yields one successor,
    ordered by position then rule index. ``position`` restricts rewriting
    to occurrences starting there. Weights are the per-group normalized
    rule weights.
    """
    return [Successor(t, pos, idx, weight) for pos, idx, t, weight in _rewrites(grammar, s, position)]


def _rewrites(grammar: Grammar, s: str, position: int | None) -> list[tuple[int, int, str, complex]]:
    """The rewrites of :func:`step_successors` as sorted (position, rule
    index, result, weight) tuples, the one scan behind it and the sums."""
    weights = grammar.normalized_weights
    out: list[tuple[int, int, str, complex]] = []
    for idx, rule in enumerate(grammar.rules):
        span = len(rule.lhs)
        pos = s.find(rule.lhs)
        while pos != -1:
            if position is None or pos == position:
                out.append((pos, idx, s[:pos] + rule.rhs + s[pos + span :], weights[idx]))
            pos = s.find(rule.lhs, pos + 1)
    # (position, rule index) is unique, so the sort never compares weights.
    out.sort()
    return out


def pass_distribution(grammar: Grammar, s: str) -> dict[str, float]:
    """Rewrite every symbol of ``s`` exactly once, independently.

    Classical mode only. Uses the single-symbol rules; each symbol's
    applicable rule weights are normalized among themselves, and identical
    outcome strings aggregate their probabilities.
    """
    if grammar.mode != CLASSICAL:
        raise ValueError("parallel passes are defined for classical grammars")
    weights = grammar.normalized_weights
    per_symbol: list[list[tuple[str, float]]] = []
    for symbol in s:
        options = [
            (rule.rhs, weights[idx].real)
            for idx, rule in enumerate(grammar.rules)
            if rule.lhs == symbol
        ]
        if not options:
            raise NoRuleForSymbol(f"no single-symbol rule rewrites {symbol!r}")
        per_symbol.append(options)
    outcomes: dict[str, float] = {"": 1.0}
    for options in per_symbol:
        nxt: dict[str, float] = {}
        for prefix, p in outcomes.items():
            for rhs, q in options:
                key = prefix + rhs
                nxt[key] = nxt.get(key, 0.0) + p * q
        outcomes = nxt
    return outcomes


def pass_outcomes(grammar: Grammar, source: str, passes: int) -> dict[str, float]:
    """Outcome probabilities after ``passes`` successive parallel passes
    from ``source``; identical outcome strings aggregate."""
    outcomes = {source: 1.0}
    for _ in range(passes):
        nxt: dict[str, float] = {}
        for s, p in outcomes.items():
            for t, q in pass_distribution(grammar, s).items():
                nxt[t] = nxt.get(t, 0.0) + p * q
        outcomes = nxt
    return outcomes


def derivation_paths(
    grammar: Grammar,
    source: str,
    target: str,
    max_steps: int,
    position: int | None = None,
) -> list[DerivationPath]:
    """Every derivation sequence from ``source`` to ``target`` within the
    step bound, with its exact amplitude (the complex product of the step
    weights). Mostly a debugging and cross-checking aid; the probability
    computation sums amplitudes without materializing paths.
    """
    found: list[DerivationPath] = []
    # Depth first, successors pushed in reverse: each successor and its
    # whole subtree come before the next successor.
    stack: list[tuple[str, tuple[tuple[int, int], ...], complex]] = [(source, (), 1.0 + 0j)]
    while stack:
        s, steps, amp = stack.pop()
        if steps and s == target:
            found.append(DerivationPath(steps, amp))
        if len(steps) < max_steps:
            successors = step_successors(grammar, s, position=position)
            stack.extend(
                (succ.string, steps + ((succ.position, succ.index),), amp * succ.weight)
                for succ in reversed(successors)
            )
    return found


def _amplitude_sums(
    grammar: Grammar, source: str, max_steps: int, position: int | None
) -> dict[str, complex]:
    """Sum of derivation amplitudes per reachable string, over path lengths
    one through ``max_steps``. Each distinct string is expanded once; later
    levels reuse its rewrites in successor order."""
    acc: dict[str, complex] = {}
    edges: dict[str, list[tuple[int, int, str, complex]]] = {}
    frontier: dict[str, complex] = {source: 1.0 + 0j}
    for _ in range(max_steps):
        nxt: dict[str, complex] = {}
        for s, amp in frontier.items():
            out = edges.get(s)
            if out is None:
                out = edges[s] = _rewrites(grammar, s, position)
            for _pos, _idx, t, weight in out:
                nxt[t] = nxt.get(t, 0j) + amp * weight
        frontier = nxt
        for s, amp in nxt.items():
            acc[s] = acc.get(s, 0j) + amp
        if not frontier:
            break
    return acc


def _relative(grammar: Grammar, amplitude: complex) -> float:
    if grammar.mode == CLASSICAL:
        return amplitude.real
    return abs(amplitude) ** 2


def transition_probability(
    grammar: Grammar,
    source: str,
    target: str,
    max_steps: int,
    position: int | None = None,
) -> tuple[float, float]:
    """(relative, absolute) probability of rewriting ``source`` to ``target``.

    Derivations of every length from one to ``max_steps`` count, including
    ones that revisit the target and return. An unreachable target has
    relative probability zero. ``position`` restricts every rewrite to one
    occurrence position, which isolates a single branching site.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    sums = _amplitude_sums(grammar, source, max_steps, position)
    relative = _relative(grammar, sums.get(target, 0j))
    total = sum(_relative(grammar, amp) for amp in sums.values())
    absolute = relative / total if total else 0.0
    return relative, absolute


def outcome_distribution(
    grammar: Grammar, source: str, max_steps: int, position: int | None = None
) -> dict[str, float]:
    """Absolute probabilities of every output reachable within the bound."""
    sums = _amplitude_sums(grammar, source, max_steps, position)
    rel = {s: _relative(grammar, amp) for s, amp in sums.items()}
    total = sum(rel.values())
    if not total:
        return {}
    return {s: r / total for s, r in rel.items()}

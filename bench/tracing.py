"""Layer tracing for the fockvm benchmark, applied from outside the library.

``installed(tracer)`` wraps public fockvm functions on the module objects
where their callers look them up (``qasm.apply_with_status`` rather than
``operators.apply_with_status``, because ``qasm`` imported the name) and
restores them on exit. Each wrapped call records a span: name, parent span,
operation index, start and end. Calls too frequent for a span (top-level
``eval_exponent`` calls, ``BasisState`` constructions) are only counted.
The private, recursive ``_dispatch`` and ``_merge_eval_terms`` are never
wrapped. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict

from fockvm import bitlevel, cli, evolution, grammar, isa, operators, qasm, qcc, state

LAYERS = ("bench", "qcc", "qasm", "operators", "state", "isa", "evolution", "grammar", "bitlevel", "cli", "trace")
ORACLE_SPAN = "evolution.dense_oracle_evolve"
APPLY_SPANS = ("operators.apply_with_status", "operators.apply_expr")
BITLEVEL_SPANS = (
    "bitlevel.verify_bit_semantics",
    "bitlevel.anticommutator_is_delta",
    "bitlevel.anticommutator_vanishes",
    "bitlevel.number_is_idempotent",
)


class Tracer:
    """In-memory spans plus counters, for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, op index, start ns, end ns]
        self.stack: list[int] = []
        self.op = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.peak_terms = 0
        self.oracle_dims: list[int] = []
        self._exponent_depth = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter_ns(), 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- aggregation

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalized per traced operation."""
        totals: defaultdict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            totals[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: defaultdict[str, int] = defaultdict(int)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            self_ns[name.split(".", 1)[0]] += end - start - child_ns[i]

        ops = max(ops, 1)
        c = self.counts

        def ms(*names: str) -> float:
            return sum(totals[n] for n in names) / 1e6 / ops

        def per_op(key: str) -> float:
            return c[key] / ops

        def mean(total_key: str, calls_key: str) -> float:
            return c[total_key] / c[calls_key] if c[calls_key] else 0.0

        metrics = {
            "qcc.parse_ms": ms("qcc.parse_c"),
            "qcc.lower_ms": ms("qcc.lower_to_qasm"),
            "qcc.instructions_out": mean("instructions_out", "lower_calls"),
            "qasm.compile_guarded_ms": ms("qasm.compile_guarded"),
            "qasm.compiled_nodes": mean("compiled_nodes", "compile_calls"),
            "qasm.interpret_ms": ms("qasm.interpret"),
            "qasm.instructions_retired": per_op("instructions_retired"),
            "operators.apply_ms": ms(*APPLY_SPANS),
            "operators.primitive_ops": per_op("primitive_ops"),
            "operators.reentries": per_op("reentries"),
            "operators.exponent_evals": per_op("exponent_evals"),
            "operators.useful_ratio": (
                c["primitive_ops"] / c["exponent_evals"] if c["exponent_evals"] else 0.0
            ),
            "state.merge_ms": ms("state.merge"),
            "state.merge_terms_in": per_op("merge_terms_in"),
            "state.merge_terms_out": per_op("merge_terms_out"),
            "state.peak_terms": float(self.peak_terms),
            "state.basis_states_built": per_op("basis_states_built"),
            "isa.apply_to_state_calls": per_op("apply_to_state_calls"),
            "evolution.evolve_ms": ms("evolution.evolve"),
            "evolution.oracle_ms": ms(ORACLE_SPAN),
            "evolution.oracle_dim": (
                sum(self.oracle_dims) / len(self.oracle_dims) if self.oracle_dims else 0.0
            ),
            "grammar.prob_ms": ms("grammar.transition_probability"),
            "grammar.successor_calls": per_op("successor_calls"),
            "bitlevel.verify_ms": ms(*BITLEVEL_SPANS),
            "cli.main_ms": ms("cli.main"),
            "cli.bytes_out": per_op("bytes_out"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
        return metrics

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**meta, "fields": ["name", "parent", "op", "start_ns", "end_ns"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def count_nodes(expr) -> int:
    """Operator and exponent nodes in an expression tree (shared subtrees
    counted at every use)."""
    kinds = (operators.OperatorExpr, operators.ExponentExpr)
    count = 0
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, kinds):
            count += 1
            pending.extend(vars(node).values())
        elif isinstance(node, tuple):
            pending.extend(node)
    return count


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(result)
        return result

    return wrapper


def _apply_wrapper(tracer: Tracer, name: str, fn):
    """Span plus the EvalStats deltas of one evaluation; callers that pass
    no stats object get a fresh one, which only counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = operators.EvalStats()
        before = (stats.primitive_ops, stats.reentries)
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.counts["primitive_ops"] += stats.primitive_ops - before[0]
            tracer.counts["reentries"] += stats.reentries - before[1]

    return wrapper


def _merge_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(terms, *args, **kwargs):
        in_oracle = tracer.parent_name() == ORACLE_SPAN
        index = tracer.open("state.merge")
        try:
            terms = list(terms)
            result = fn(terms, *args, **kwargs)
        finally:
            tracer.close(index)
        tracer.counts["merge_terms_in"] += len(terms)
        tracer.counts["merge_terms_out"] += len(result.terms)
        tracer.peak_terms = max(tracer.peak_terms, len(result.terms))
        if in_oracle:
            tracer.oracle_dims.append(len(terms))
        return result

    return wrapper


def _exponent_wrapper(tracer: Tracer, fn):
    """Counts top-level calls only: the recursion inside eval_exponent looks
    the name up again and lands here with a nonzero depth."""

    @functools.wraps(fn)
    def wrapper(expr, s):
        if tracer._exponent_depth == 0:
            tracer.counts["exponent_evals"] += 1
        tracer._exponent_depth += 1
        try:
            return fn(expr, s)
        finally:
            tracer._exponent_depth -= 1

    return wrapper


def _post_init_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        tracer.counts["basis_states_built"] += 1
        fn(self)

    return wrapper


def _cli_wrapper(tracer: Tracer, fn):
    """Span plus the bytes ``main`` wrote to a captured stdout."""

    @functools.wraps(fn)
    def wrapper(argv=None):
        out = sys.stdout
        start = out.tell() if isinstance(out, io.StringIO) else None
        index = tracer.open("cli.main")
        try:
            return fn(argv)
        finally:
            tracer.close(index)
            if start is not None:
                tracer.counts["bytes_out"] += len(out.getvalue()[start:].encode("utf-8"))

    return wrapper


def _plan(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every wrapped name."""
    counts = tracer.counts

    def bump(key, amount=lambda result: 1):
        def after(result):
            counts[key] += amount(result)

        return after

    def lowered(program):
        counts["lower_calls"] += 1
        counts["instructions_out"] += len(program)

    def compiled(expr):
        with tracer.span("trace.count_nodes"):
            counts["compile_calls"] += 1
            counts["compiled_nodes"] += count_nodes(expr)

    def spanned(owner, attr, after=None):
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        return owner, attr, lambda fn: _spanned(tracer, label, fn, after)

    plan = [
        spanned(qcc, "parse_c"),
        spanned(qcc, "lower_to_qasm", lowered),
        spanned(qcc, "compile_c"),
        spanned(qasm, "parse_program"),
        spanned(qasm, "compile_guarded", compiled),
        spanned(qasm, "interpret", bump("instructions_retired", lambda r: r.steps_executed)),
        spanned(qasm, "run_algebraic"),
        (qasm, "apply_with_status", lambda fn: _apply_wrapper(tracer, "operators.apply_with_status", fn)),
        (evolution, "apply_expr", lambda fn: _apply_wrapper(tracer, "operators.apply_expr", fn)),
        (operators, "eval_exponent", lambda fn: _exponent_wrapper(tracer, fn)),
        (state.BasisState, "__post_init__", lambda fn: _post_init_wrapper(tracer, fn)),
        spanned(isa, "apply_to_state", bump("apply_to_state_calls")),
        spanned(evolution, "evolve"),
        spanned(evolution, "dense_oracle_evolve"),
        spanned(grammar, "parse_grammar"),
        spanned(grammar, "transition_probability"),
        spanned(grammar, "step_successors", bump("successor_calls")),
        spanned(grammar, "pass_distribution"),
        *(spanned(bitlevel, name.split(".", 1)[1]) for name in BITLEVEL_SPANS),
        (cli, "main", lambda fn: _cli_wrapper(tracer, fn)),
    ]
    plan.extend((module, "merge", lambda fn: _merge_wrapper(tracer, fn)) for module in (state, operators, qasm, evolution))
    return plan


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block."""
    originals = []
    try:
        for owner, attr, factory in _plan(tracer):
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

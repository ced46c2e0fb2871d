"""A small C-like language lowered to the assembly layer.

The subset: unsigned integer variables (implicitly declared on first
write), assignments over + - * / & | ~ and literal shifts, labels with
goto, if-zero goto, input/output, halt, and the two pointer operators
(address-of and dereference). Statements end with ``;`` and ``//`` starts
a line comment.

Lowering notes:

* Jump targets live in memory: each label used by a jump gets an internal
  variable initialized at program start with the label's instruction index,
  because the jump instructions read their target from a memory location.
* The instruction set has no indirect addressing, so dereference compiles
  to a bounded dispatch over a per-program address window (default 64): a
  table holds one fixed-size case per window address, the case index is
  computed from the pointer value, and the jump goes through a computed
  target word. A bounds check makes pointers outside the window stop the
  run with an arithmetic underflow. All dispatch jumps are forward, so
  pointer code consumes no recursion fuel. The window is a documented
  limit of this encoding, not of the language.
* Internal compiler variables (jump targets, scratch temporaries) occupy
  the low addresses; user variables follow in first-use order.

Assignments whose right side is a sum of variables can also be lowered
directly to a single normalized set-value operator, bypassing the
instruction layer; both lowerings agree on number eigenstates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import ParseError, UndefinedLabel, UnknownVariable, UnsupportedConstruct
from .isa import Instruction, Opcode, Operand, address, count, immediate
from .operators import (
    ExponentExpr,
    Lower,
    Mem,
    Num,
    NumberOp,
    OperatorExpr,
    Raise,
    SetValue,
    as_exponent,
    scaled,
    summation,
    walk,
)
from .qasm import Program, build_pool

DEFAULT_WINDOW = 64


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class AddressOf:
    name: str


@dataclass(frozen=True)
class Deref:
    expr: "Expr"


@dataclass(frozen=True)
class BitNot:
    expr: "Expr"


@dataclass(frozen=True)
class Shift:
    expr: "Expr"
    by: int


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / & |
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, AddressOf, Deref, BitNot, Shift, Binary]


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class DerefAssign:
    pointer: Expr
    expr: Expr


@dataclass(frozen=True)
class Goto:
    label: str


@dataclass(frozen=True)
class IfZeroGoto:
    expr: Expr
    label: str


@dataclass(frozen=True)
class LabelStmt:
    name: str


@dataclass(frozen=True)
class InputStmt:
    var: str


@dataclass(frozen=True)
class OutputStmt:
    expr: Expr


@dataclass(frozen=True)
class HaltStmt:
    pass


Statement = Union[
    Assign, DerefAssign, Goto, IfZeroGoto, LabelStmt, InputStmt, OutputStmt, HaltStmt
]


@dataclass(frozen=True)
class CAst:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<punct><<|>>|==|[=;:()&*+\-/|~])"
)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line, column=col)
        kind = match.lastgroup
        literal = match.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind in {"ident", "int", "punct"}:
                tokens.append(Token(kind, literal, line, col))
            col += len(literal)
        pos = match.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"input", "output", "halt", "goto", "if"}


#: Precedence level of each binary operator, loosest first; a shift takes a
#: literal count instead of a right operand.
_BINARY_LEVEL = {"|": 0, "&": 1, "<<": 2, ">>": 2, "+": 3, "-": 3, "*": 4, "/": 4}

#: The deepest expression the parser builds: each parenthesis, unary operator
#: and operator of a chain adds a level. Parsing and lowering recurse a few
#: frames per level, so this keeps both well inside the default recursion limit.
MAX_EXPR_DEPTH = 64


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # parentheses and unary operators around the parse point
        self.depth = 0  # depth of the expression parsed last

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise ParseError(f"expected a name, got {tok.text!r}", tok.line, tok.column)
        return tok

    def parse_program(self) -> CAst:
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return CAst(tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "input":
            self.next()
            self.expect("(")
            name = self.expect_ident().text
            self.expect(")")
            self.expect(";")
            return InputStmt(name)
        if tok.kind == "ident" and tok.text == "output":
            self.next()
            self.expect("(")
            expr = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return OutputStmt(expr)
        if tok.kind == "ident" and tok.text == "halt":
            self.next()
            self.expect(";")
            return HaltStmt()
        if tok.kind == "ident" and tok.text == "goto":
            self.next()
            label = self.expect_ident().text
            self.expect(";")
            return Goto(label)
        if tok.kind == "ident" and tok.text == "if":
            self.next()
            self.expect("(")
            expr = self.parse_expr()
            self.expect("==")
            zero = self.next()
            if zero.text != "0":
                raise ParseError("conditions compare against 0", zero.line, zero.column)
            self.expect(")")
            self.expect("goto")
            label = self.expect_ident().text
            self.expect(";")
            return IfZeroGoto(expr, label)
        if tok.kind == "ident" and self.peek(1).text == ":":
            self.next()
            self.next()
            return LabelStmt(tok.text)
        if tok.kind == "ident" and self.peek(1).text == "=":
            self.next()
            self.next()
            expr = self.parse_expr()
            self.expect(";")
            return Assign(tok.text, expr)
        if tok.text == "*":
            self.next()
            pointer = self.parse_unary()
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return DerefAssign(pointer, expr)
        raise ParseError(f"cannot start a statement with {tok.text!r}", tok.line, tok.column)

    def parse_expr(self, min_level: int = 0) -> Expr:
        """Precedence climbing over ``_BINARY_LEVEL`` from ``min_level`` up. After an
        operator of level k only levels up to k may follow, as in a grammar with
        one rule per level: ``a << 1 + b`` is an error, ``a << 1 << 2`` is not."""
        expr = self.parse_unary()
        ceiling = max(_BINARY_LEVEL.values())
        while min_level <= _BINARY_LEVEL.get(self.peek().text, -1) <= ceiling:
            op, left = self.next(), self.depth
            ceiling = _BINARY_LEVEL[op.text]
            if op.text in {"<<", ">>"}:
                amount = self.next()
                if amount.kind != "int":
                    raise ParseError("shift counts must be integer literals", amount.line, amount.column)
                k = int(amount.text)
                expr = Shift(expr, k if op.text == "<<" else -k)
            else:
                expr = Binary(op.text, expr, self.parse_expr(ceiling + 1))
            self.depth = self.bounded(max(left, self.depth) + 1, op)
        return expr

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text not in {"~", "*", "&"}:
            return self.parse_primary()
        self.next()
        if tok.text == "&":
            self.depth = 1
            return AddressOf(self.expect_ident().text)
        operand = self.parse_nested(tok, self.parse_unary)
        return BitNot(operand) if tok.text == "~" else Deref(operand)

    def parse_primary(self) -> Expr:
        tok = self.next()
        if tok.text == "(":
            expr = self.parse_nested(tok, self.parse_expr)
            self.expect(")")
            return expr
        self.depth = 1
        if tok.kind == "int":
            return Lit(int(tok.text))
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return Var(tok.text)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def parse_nested(self, tok: Token, parse) -> Expr:
        """Parse one level below ``tok``, a parenthesis or unary operator."""
        self.open = self.bounded(self.open + 1, tok)
        expr = parse()
        self.open -= 1
        self.depth = self.bounded(self.depth + 1, tok)
        return expr

    def bounded(self, depth: int, tok: Token) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels", tok.line, tok.column)
        return depth


def parse_c(text: str) -> CAst:
    """Parse and link-check a source file.

    Raises :class:`ParseError` with position on syntax errors, and
    :class:`UndefinedLabel` when a goto names a label that never appears.
    """
    ast = _Parser(_tokenize(text)).parse_program()
    labels = set()
    for stmt in ast.statements:
        if isinstance(stmt, LabelStmt):
            if stmt.name in labels:
                raise ParseError(f"duplicate label {stmt.name!r}")
            labels.add(stmt.name)
    for stmt in ast.statements:
        if isinstance(stmt, (Goto, IfZeroGoto)) and stmt.label not in labels:
            raise UndefinedLabel(f"goto target {stmt.label!r} is not defined")
    return ast


# ---------------------------------------------------------------------------
# Lowering


class _Emitter:
    """Accumulates abstract instructions, then resolves the address layout.

    Operands stay symbolic during emission: named variables, immediates,
    address-of names, label indices, and raw window addresses. Internal
    names (jump-target words, temporaries, the trap word) get the low
    addresses, user variables follow, both in first-use order.
    """

    def __init__(self, window: int):
        self.window = window
        self.body: list[tuple[Opcode, tuple | None]] = []
        self.labels: dict[str, int] = {}
        self.goto_vars: dict[str, str] = {}
        self.internal_order: list[str] = []
        self.user_order: list[str] = []
        self.free_temps: list[str] = []
        self.temp_count = 0
        self.site_count = 0
        self.uses_dispatch = False

    # -- name bookkeeping

    def touch_internal(self, name: str) -> None:
        if name not in self.internal_order:
            self.internal_order.append(name)

    def touch_user(self, name: str) -> None:
        if name not in self.user_order:
            self.user_order.append(name)

    def alloc_temp(self) -> str:
        if self.free_temps:
            return self.free_temps.pop()
        name = f"__t{self.temp_count}"
        self.temp_count += 1
        self.touch_internal(name)
        return name

    def free_temp(self, name: str) -> None:
        self.free_temps.append(name)

    def goto_var(self, label: str) -> str:
        var = self.goto_vars.get(label)
        if var is None:
            var = f"__go_{label}"
            self.goto_vars[label] = var
            self.touch_internal(var)
        return var

    # -- emission

    def emit(self, opcode: Opcode, operand: tuple | None = None) -> None:
        self.body.append((opcode, operand))

    def mark_label(self, name: str) -> None:
        self.labels[name] = len(self.body) + 1

    def emit_jump(self, opcode: Opcode, label: str) -> None:
        self.emit(opcode, ("sym", self.goto_var(label)))

    # -- expression evaluation into the register

    def eval_expr(self, expr: Expr) -> None:
        if isinstance(expr, Lit):
            self.emit(Opcode.LOAD, ("imm", expr.value))
        elif isinstance(expr, Var):
            self.touch_user(expr.name)
            self.emit(Opcode.LOAD, ("sym", expr.name))
        elif isinstance(expr, AddressOf):
            self.touch_user(expr.name)
            self.emit(Opcode.LOAD, ("addrof", expr.name))
        elif isinstance(expr, BitNot):
            self.eval_expr(expr.expr)
            self.emit(Opcode.NOT)
        elif isinstance(expr, Shift):
            self.eval_expr(expr.expr)
            self.emit(Opcode.SHIFT, ("count", expr.by))
        elif isinstance(expr, Deref):
            self.eval_expr(expr.expr)
            self.emit_dispatch(writer=None)
        elif isinstance(expr, Binary):
            self.eval_binary(expr)
        else:
            raise UnsupportedConstruct(f"cannot lower expression {expr!r}")

    def eval_binary(self, expr: Binary) -> None:
        opcode = {
            "+": Opcode.ADD,
            "-": Opcode.SUBTRACT,
            "*": Opcode.MULTIPLY,
            "/": Opcode.DIVIDE,
            "&": Opcode.AND,
            "|": Opcode.OR,
        }[expr.op]
        if isinstance(expr.right, Lit) and expr.op in {"+", "-"}:
            self.eval_expr(expr.left)
            self.emit(opcode, ("imm", expr.right.value))
            return
        if isinstance(expr.right, Var):
            self.touch_user(expr.right.name)
            self.eval_expr(expr.left)
            self.emit(opcode, ("sym", expr.right.name))
            return
        temp = self.alloc_temp()
        self.eval_expr(expr.right)
        self.emit(Opcode.STORE, ("sym", temp))
        self.eval_expr(expr.left)
        self.emit(opcode, ("sym", temp))
        self.free_temp(temp)

    # -- pointer dispatch

    def emit_dispatch(self, writer: str | None) -> None:
        """Dispatch on the pointer value currently in the register.

        The case blocks all have the same size, so the case address is
        computed (table start plus pointer times case size) and the jump
        goes through one computed-target word. A bounds check first
        subtracts the pointer from the window's top address, so pointers
        outside the window stop the run with an arithmetic underflow in
        either execution mode. With ``writer`` None each case loads the
        addressed word into the register (a read); otherwise each case
        stores the value saved in the ``writer`` temporary.
        """
        self.uses_dispatch = True
        site = self.site_count
        self.site_count += 1
        self.touch_internal("__ptr")
        self.touch_internal("__jt")
        table = f"__table{site}"
        after = f"__after{site}"
        case_size = 2 if writer is None else 3
        self.emit(Opcode.STORE, ("sym", "__ptr"))
        self.emit(Opcode.LOAD, ("imm", self.window - 1))
        self.emit(Opcode.SUBTRACT, ("sym", "__ptr"))
        self.emit(Opcode.LOAD, ("sym", "__ptr"))
        self.emit(Opcode.SHIFT, ("count", 1))
        if case_size == 3:
            self.emit(Opcode.ADD, ("sym", "__ptr"))
        self.emit(Opcode.ADD, ("labelimm", table))
        self.emit(Opcode.STORE, ("sym", "__jt"))
        self.emit(Opcode.TRA, ("sym", "__jt"))
        self.mark_label(table)
        for w in range(self.window):
            if writer is None:
                self.emit(Opcode.LOAD, ("raw", w))
            else:
                self.emit(Opcode.LOAD, ("sym", writer))
                self.emit(Opcode.STORE, ("raw", w))
            self.emit_jump(Opcode.TRA, after)
        self.mark_label(after)

    # -- statements

    def lower_statement(self, stmt: Statement) -> None:
        if isinstance(stmt, Assign):
            self.touch_user(stmt.target)
            self.eval_expr(stmt.expr)
            self.emit(Opcode.STORE, ("sym", stmt.target))
        elif isinstance(stmt, DerefAssign):
            temp = self.alloc_temp()
            self.eval_expr(stmt.expr)
            self.emit(Opcode.STORE, ("sym", temp))
            self.eval_expr(stmt.pointer)
            self.emit_dispatch(writer=temp)
            self.free_temp(temp)
        elif isinstance(stmt, Goto):
            self.emit_jump(Opcode.TRA, stmt.label)
        elif isinstance(stmt, IfZeroGoto):
            self.eval_expr(stmt.expr)
            self.emit_jump(Opcode.TZR, stmt.label)
        elif isinstance(stmt, LabelStmt):
            self.mark_label(stmt.name)
        elif isinstance(stmt, InputStmt):
            self.touch_user(stmt.var)
            self.emit(Opcode.INPUT, ("sym", stmt.var))
        elif isinstance(stmt, OutputStmt):
            if isinstance(stmt.expr, Var):
                self.touch_user(stmt.expr.name)
                self.emit(Opcode.OUTPUT, ("sym", stmt.expr.name))
            else:
                temp = self.alloc_temp()
                self.eval_expr(stmt.expr)
                self.emit(Opcode.STORE, ("sym", temp))
                self.emit(Opcode.OUTPUT, ("sym", temp))
                self.free_temp(temp)
        elif isinstance(stmt, HaltStmt):
            self.emit(Opcode.HALT)
        else:
            raise UnsupportedConstruct(f"cannot lower statement {stmt!r}")

    # -- final resolution

    def finish(self) -> Program:
        needs_halt = (
            not self.body
            or self.body[-1][0] is not Opcode.HALT
            or any(pos == len(self.body) + 1 for pos in self.labels.values())
        )
        if needs_halt:
            self.emit(Opcode.HALT)
        offset = 2 * len(self.goto_vars)
        init: list[tuple[Opcode, tuple | None]] = []
        for label, var in self.goto_vars.items():
            if label not in self.labels:
                raise UndefinedLabel(f"jump target {label!r} was never placed")
            init.append((Opcode.LOAD, ("labelimm", label)))
            init.append((Opcode.STORE, ("sym", var)))
        stream = init + self.body

        addresses: dict[str, int] = {}
        for name in self.internal_order + self.user_order:
            addresses[name] = len(addresses)
        if self.uses_dispatch and len(addresses) > self.window:
            raise UnsupportedConstruct(
                f"{len(addresses)} variables exceed the {self.window}-word "
                "dispatch window needed by pointer code"
            )

        # Each distinct abstract instruction is resolved once and the frozen
        # result reused: pointer dispatch tables repeat a few jumps hundreds
        # of times.
        resolved: dict[tuple, Instruction] = {}
        instructions = []
        for abstract in stream:
            ins = resolved.get(abstract)
            if ins is None:
                opcode, operand = abstract
                ins = Instruction(opcode, self._resolve(operand, offset, addresses))
                resolved[abstract] = ins
            instructions.append(ins)
        pool = build_pool(tuple(resolved.values()), len(addresses))
        return Program(tuple(instructions), addresses, pool)

    def _resolve(self, operand: tuple | None, offset: int, addresses: dict[str, int]) -> Operand | None:
        if operand is None:
            return None
        kind, value = operand
        if kind == "sym":
            return address(addresses[value])
        if kind == "imm":
            return immediate(value)
        if kind == "count":
            return count(value)
        if kind == "raw":
            return address(value)
        if kind == "addrof":
            return immediate(addresses[value])
        if kind == "labelimm":
            return immediate(self.labels[value] + offset)
        raise AssertionError(f"unknown abstract operand {operand!r}")


def lower_to_qasm(ast: CAst, window: int = DEFAULT_WINDOW) -> Program:
    """Lower a checked syntax tree to an assembled program."""
    emitter = _Emitter(window)
    for stmt in ast.statements:
        emitter.lower_statement(stmt)
    return emitter.finish()


def compile_c(text: str, window: int = DEFAULT_WINDOW) -> Program:
    return lower_to_qasm(parse_c(text), window)


def uses_pointers(ast: CAst) -> bool:
    """Whether any statement takes an address or dereferences a pointer.

    Lowered pointer code bakes address values into immediates, so its
    listing must print raw addresses to reassemble faithfully.
    """
    return any(isinstance(node, (AddressOf, Deref, DerefAssign)) for node in walk(ast))


# ---------------------------------------------------------------------------
# Direct algebraic lowering and the pointer operators


def _sum_of_vars(expr: Expr) -> list[str] | None:
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, Binary) and expr.op == "+":
        left = _sum_of_vars(expr.left)
        right = _sum_of_vars(expr.right)
        if left is not None and right is not None:
            return left + right
    return None


def lower_direct(assignment: Assign, table: dict[str, int] | None = None) -> OperatorExpr:
    """One-operator lowering for assignments whose right side is a sum of
    variables: clear the destination and set it to the summed number
    operators, amplitude one on number eigenstates.

    Without an explicit symbol table, variables are numbered in source
    order of the statement (target first).
    """
    if not isinstance(assignment, Assign):
        raise UnsupportedConstruct("direct lowering covers plain assignments")
    names = _sum_of_vars(assignment.expr)
    if names is None:
        raise UnsupportedConstruct(
            "direct lowering covers right sides that are sums of variables"
        )
    if table is None:
        table = {}
        for name in [assignment.target] + names:
            table.setdefault(name, len(table))
    for name in [assignment.target] + names:
        if name not in table:
            raise UnknownVariable(f"no address for variable {name!r}")
    value: ExponentExpr = Num(Mem(table[names[0]]))
    for name in names[1:]:
        value = value + Num(Mem(table[name]))
    return SetValue(Mem(table[assignment.target]), value)


def star_set(m: int, value: ExponentExpr | int) -> OperatorExpr:
    """Set location ``m`` to the value of an exponent expression,
    amplitude one; with value zero this is exactly a clear."""
    return SetValue(Mem(m), as_exponent(value))


def star_get(m: int) -> OperatorExpr:
    """Read location ``m``: the number operator."""
    return NumberOp(Mem(m))


def address_of(name: str, table: dict[str, int]) -> int:
    """The address a symbol table assigns to a variable."""
    try:
        return table[name]
    except KeyError:
        raise UnknownVariable(f"unknown variable {name!r}") from None


def build_address_operator(window: int) -> OperatorExpr:
    """The truncated address operator: sum of m (a_m - a_m+) over the window.

    Its commutator with a ladder operator at mode m yields m times the
    identity on states supported inside the window; the exact check lives
    in :mod:`fockvm.oracles`.
    """
    if window < 2:
        raise ValueError("the address operator needs a window of at least 2")
    terms = [
        scaled(m, summation(Lower(Mem(m)), scaled(-1, Raise(Mem(m)))))
        for m in range(window)
    ]
    return summation(*terms)

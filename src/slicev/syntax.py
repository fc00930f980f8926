"""Concrete syntax for Slice protocols.

A source file starts with `agents N;` followed by one expression.  Read-only
variable occurrences are written `@x`; agent-indexed queries are
`mark[a](e, e)` and `eval[a](e)`; rationals are `p/q` or decimal literals.
`parse(pretty(e)) == e` holds for every expression the parser accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    CAKE, AssertE, BoolVal, Divide, EvalQ, Expr, If, IntervalVal, Lit, Mark,
    Op, PieceE, PieceVal, PointVal, ReadOnlyVal, ReadVar, SliceError, Split,
    TupleE, Var, children, rebuild,
)


class SliceSyntaxError(SliceError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Program:
    """A parsed source file: declared agent count plus the protocol body."""

    agents: int
    body: Expr


KEYWORDS = {
    "agents", "let", "split", "in", "if", "then", "else", "assert",
    "cake", "divide", "piece", "mark", "eval", "pc",
    "true", "false", "and", "or", "not",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
  | (?P<number>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>>=|[@()\[\],;=*+])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'name' | 'op' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SliceSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> "SliceSyntaxError":
        tok = self.peek()
        return SliceSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise SliceSyntaxError(f"expected {text!r}, found {tok.text!r}",
                                   tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    # program := 'agents' INT ';' expr
    def program(self) -> Program:
        self.expect("agents")
        tok = self.next()
        if tok.kind != "number" or not tok.text.isdigit() or int(tok.text) < 1:
            raise SliceSyntaxError("agent count must be a positive integer",
                                   tok.line, tok.col)
        n = int(tok.text)
        self.expect(";")
        body = self.expr(n)
        if self.peek().kind != "eof":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return Program(n, body)

    def expr(self, n: int) -> Expr:
        if self.at("let"):
            return self.let(n)
        if self.at("if"):
            self.next()
            guard = self.expr(n)
            self.expect("then")
            then = self.expr(n)
            self.expect("else")
            els = self.expr(n)
            return If(guard, then, els)
        if self.at("assert"):
            self.next()
            guard = self.expr(n)
            self.expect("in")
            body = self.expr(n)
            return AssertE(guard, body)
        return self.or_expr(n)

    def let(self, n: int) -> Expr:
        self.expect("let")
        binders = [self.ident()]
        while self.eat(","):
            binders.append(self.ident())
        dups = {b for b in binders if binders.count(b) > 1}
        if dups:
            raise self.fail(f"duplicate binder {sorted(dups)[0]!r} in split")
        self.expect("=")
        self.expect("split")
        scrutinee = self.expr(n)
        self.expect("in")
        body = self.expr(n)
        return Split(tuple(binders), scrutinee, body)

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise SliceSyntaxError(f"expected identifier, found {tok.text!r}",
                                   tok.line, tok.col)
        return tok.text

    def or_expr(self, n: int) -> Expr:
        e = self.and_expr(n)
        while self.at("or"):
            self.next()
            e = Op(OP_OR, (e, self.and_expr(n)))
        return e

    def and_expr(self, n: int) -> Expr:
        e = self.cmp_expr(n)
        while self.at("and"):
            self.next()
            e = Op(OP_AND, (e, self.cmp_expr(n)))
        return e

    def cmp_expr(self, n: int) -> Expr:
        e = self.add_expr(n)
        if self.at(">="):
            self.next()
            return Op(OP_GE, (e, self.add_expr(n)))
        if self.at("="):
            self.next()
            return Op(OP_EQ, (e, self.add_expr(n)))
        return e

    def add_expr(self, n: int) -> Expr:
        e = self.unary(n)
        while self.at("+"):
            self.next()
            e = Op(OP_ADD, (e, self.unary(n)))
        return e

    def unary(self, n: int) -> Expr:
        if self.at("not"):
            self.next()
            return Op(OP_NOT, (self.unary(n),))
        if self.peek().kind == "number":
            # NUMBER '*' e is constant multiplication, a bare NUMBER a point
            num = self.next()
            value = Fraction(num.text)
            if self.eat("*"):
                return Op(OP_SCALE, (self.unary(n),), coeff=value)
            return Lit(PointVal(value))
        return self.atom(n)

    def number(self) -> Fraction:
        tok = self.next()
        if tok.kind != "number":
            raise SliceSyntaxError(f"expected number, found {tok.text!r}",
                                   tok.line, tok.col)
        return Fraction(tok.text)

    def agent_index(self, n: int) -> int:
        self.expect("[")
        tok = self.next()
        if tok.kind != "number" or not tok.text.isdigit():
            raise SliceSyntaxError("expected agent index", tok.line, tok.col)
        a = int(tok.text)
        if not 1 <= a <= n:
            raise SliceSyntaxError(
                f"agent {a} out of range 1..{n}", tok.line, tok.col)
        self.expect("]")
        return a

    def atom(self, n: int) -> Expr:
        tok = self.peek()
        if self.eat("cake"):
            return Lit(CAKE)
        if self.eat("true"):
            return Lit(BoolVal(True))
        if self.eat("false"):
            return Lit(BoolVal(False))
        if self.eat("divide"):
            self.expect("(")
            e1 = self.expr(n)
            self.expect(",")
            e2 = self.expr(n)
            self.expect(")")
            return Divide(e1, e2)
        if self.eat("piece"):
            self.expect("(")
            items = [self.expr(n)]
            while self.eat(","):
                items.append(self.expr(n))
            self.expect(")")
            return PieceE(tuple(items))
        if self.eat("mark"):
            a = self.agent_index(n)
            self.expect("(")
            e1 = self.expr(n)
            self.expect(",")
            e2 = self.expr(n)
            self.expect(")")
            return Mark(a, e1, e2)
        if self.eat("eval"):
            a = self.agent_index(n)
            self.expect("(")
            e = self.expr(n)
            self.expect(")")
            return EvalQ(a, e)
        if self.eat("pc"):
            self.expect("(")
            ivs = [self.interval_literal()]
            while self.eat(","):
                ivs.append(self.interval_literal())
            self.expect(")")
            return Lit(PieceVal(tuple(ivs)))
        if self.at("["):
            return Lit(self.interval_literal())
        if self.eat("@"):
            if self.eat("cake"):
                # read-only view of the whole cake
                return Lit(ReadOnlyVal(CAKE))
            return ReadVar(self.ident())
        if tok.kind == "name":
            return Var(self.ident())
        if self.eat("("):
            items = [self.expr(n)]
            while self.eat(","):
                items.append(self.expr(n))
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return TupleE(tuple(items))
        raise self.fail(f"unexpected token {tok.text!r}")

    def interval_literal(self) -> IntervalVal:
        self.expect("[")
        lo = self.number()
        self.expect(",")
        hi = self.number()
        self.expect("]")
        if lo > hi:
            raise self.fail(f"interval [{lo}, {hi}] has lo > hi")
        return IntervalVal(lo, hi)


def parse(text: str) -> Program:
    """Parse a full source file (with `agents N;` header)."""
    return assign_mark_ids_program(_Parser(text).program())


def parse_expr(text: str, agents: int = 8) -> Expr:
    """Parse a bare expression; agent indices are checked against `agents`."""
    p = _Parser(text)
    e = p.expr(agents)
    if p.peek().kind != "eof":
        raise p.fail(f"trailing input {p.peek().text!r}")
    return assign_mark_ids(e)


# ---------------------------------------------------------------------------
# Identifier assignment
# ---------------------------------------------------------------------------

def assign_mark_ids(e: Expr) -> Expr:
    """Give every mark (and if) node a pre-order index; deterministic and
    idempotent, so identical source yields identical constraint variables."""
    counter = {"mark": 0, "if": 0}

    def go(node: Expr) -> Expr:
        if isinstance(node, Mark):
            mid = counter["mark"]
            counter["mark"] += 1
            return Mark(node.agent, go(node.interval), go(node.target), mid)
        if isinstance(node, If):
            iid = counter["if"]
            counter["if"] += 1
            return If(go(node.guard), go(node.then), go(node.els), iid)
        return rebuild(node, [go(c) for c in children(node)])

    return go(e)


def assign_mark_ids_program(p: Program) -> Program:
    return Program(p.agents, assign_mark_ids(p.body))


def mark_ids(e: Expr) -> list[int]:
    from .core import walk
    return [node.mark_id for node in walk(e) if isinstance(node, Mark)]


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, BoolVal):
        return "true" if v.flag else "false"
    if isinstance(v, PointVal):
        return str(v.point)
    if isinstance(v, IntervalVal):
        return f"[{v.lo}, {v.hi}]"
    if isinstance(v, PieceVal):
        return "pc(" + ", ".join(_fmt_value(i) for i in v.intervals) + ")"
    if v == ReadOnlyVal(CAKE):
        return "@cake"
    raise SliceError(f"value {v!r} has no source form")


_PREC = {OP_OR: 1, OP_AND: 2, OP_GE: 3, OP_EQ: 3, OP_ADD: 4}


def _pretty(e: Expr, indent: int) -> str:
    pad = "  " * indent

    if isinstance(e, Split):
        scrut = _inline(e.scrutinee)
        body = _pretty(e.body, indent)
        return (f"{pad}let {', '.join(e.binders)} = split {scrut} in\n{body}")
    if isinstance(e, If):
        guard = _inline(e.guard)
        then = _pretty(e.then, indent + 1)
        if isinstance(e.els, If):
            els = _pretty(e.els, indent)
            return f"{pad}if {guard} then\n{then}\n{pad}else {els.lstrip()}"
        els = _pretty(e.els, indent + 1)
        return f"{pad}if {guard} then\n{then}\n{pad}else\n{els}"
    if isinstance(e, AssertE):
        guard = _inline(e.guard)
        body = _pretty(e.body, indent)
        return f"{pad}assert {guard} in\n{body}"
    return pad + _inline(e)


def _inline(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Lit):
        return "cake" if e.value == CAKE else _fmt_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ReadVar):
        return f"@{e.name}"
    if isinstance(e, Divide):
        return f"divide({_inline(e.interval)}, {_inline(e.point)})"
    if isinstance(e, PieceE):
        return "piece(" + ", ".join(_inline(c) for c in e.items) + ")"
    if isinstance(e, Mark):
        return f"mark[{e.agent}]({_inline(e.interval)}, {_inline(e.target)})"
    if isinstance(e, EvalQ):
        return f"eval[{e.agent}]({_inline(e.arg)})"
    if isinstance(e, TupleE):
        return "(" + ", ".join(_inline(c) for c in e.items) + ")"
    if isinstance(e, (Split, If, AssertE)):
        return "(" + re.sub(r"\s+", " ", _pretty(e, 0)).strip() + ")"
    if isinstance(e, Op):
        if e.op == OP_NOT:
            return f"not {_inline(e.args[0], 5)}"
        if e.op == OP_SCALE:
            return f"{e.coeff} * {_inline(e.args[0], 5)}"
        mine = _PREC[e.op]
        # comparisons do not chain: parenthesize a nested comparison even on
        # the left
        left = _inline(e.args[0], mine + 1 if e.op in (OP_GE, OP_EQ) else mine)
        right = _inline(e.args[1], mine + 1)
        text = f"{left} {e.op} {right}"
        return f"({text})" if mine < prec else text
    raise SliceError(f"cannot print {e!r}")


def pretty(e: Expr) -> str:
    """Canonical multi-line rendering of an expression."""
    return _pretty(e, 0)


def pretty_program(p: Program) -> str:
    return f"agents {p.agents};\n{pretty(p.body)}\n"

"""Ring-expression language: parser, printer and builder.

Grammar (tokens are case-sensitive; whitespace separates freely):

    expr    := term { "x" term }                    products, left-assoc
    term    := atom { suffix }
    suffix  := "[" IDENT "]" "/" "(" poly {"," poly} ")"   polynomial quotient
             | "/" "(" elem {"," elem} ")"                 quotient by ideal
    atom    := "Z" "/" INT
             | "GF" "(" INT ["^" INT] ")"
             | "idealize" "(" expr "," modspec ")"
             | "(" expr ")"
    modspec := cyc { "+" cyc }                      direct sum of cyclics R/I
    cyc     := "(" [elem {"," elem}] ")"            ideal generators
    groups  := cyc { SEP cyc }                      --module (SEP "+"), --ideals (SEP ";")
    poly    := ["-"] mono { ("+"|"-") mono }
    mono    := factor { "*" factor }
    factor  := INT | IDENT ["^" INT]
    elem    := poly                                 no free variable allowed

In a polynomial quotient the first listed poly is the monic modulus; the
rest are extra relations.  Names bound by enclosing quotients stay usable
in element position; products clear the name environment, since a name has
no canonical image in a product."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .config import arith_limit
from .errors import ParseError, PreconditionError, SizeLimitError
from .ideals import ideal_generated
from .modules import FiniteModule, idealize, module_from_cyclics
from .rings import FiniteRing, RingHom, make_gf, make_zmod, poly_quotient, product, quotient

MAX_INPUT = 64 * 1024


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class IntF:
    value: int


@dataclass(frozen=True)
class NameF:
    name: str
    exp: int = 1


Factor = Union[IntF, NameF]


@dataclass(frozen=True)
class Term:
    sign: int  # +1 or -1
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class Poly:
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class ZModE:
    n: int


@dataclass(frozen=True)
class GFE:
    p: int
    k: int


@dataclass(frozen=True)
class ProductE:
    factors: tuple["RingExpr", ...]


@dataclass(frozen=True)
class PolyQuotE:
    base: "RingExpr"
    var: str
    polys: tuple[Poly, ...]  # first is the monic modulus


@dataclass(frozen=True)
class QuotE:
    base: "RingExpr"
    gens: tuple[Poly, ...]


@dataclass(frozen=True)
class IdealizeE:
    base: "RingExpr"
    cyclics: tuple[tuple[Poly, ...], ...]


RingExpr = Union[ZModE, GFE, ProductE, PolyQuotE, QuotE, IdealizeE]


# ---------------------------------------------------------------------------
# tokenizer

@dataclass(frozen=True)
class Token:
    kind: str  # INT, IDENT, or a literal symbol
    text: str
    line: int
    column: int


_SYMBOLS = ("[", "]", "(", ")", "/", ",", "+", "-", "*", "^", ";")


def tokenize(text: str) -> list[Token]:
    if len(text.encode("utf-8", errors="replace")) > MAX_INPUT:
        raise SizeLimitError(f"expression longer than {MAX_INPUT} bytes")
    out: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if "0" <= c <= "9":  # str.isdigit also takes digits int() refuses, such as "²"
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _SYMBOLS:
            out.append(Token(c, c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def integer(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise SizeLimitError(f"integer literal of {len(tok.text)} digits") from None

    def separated(self, item: Callable[[], object], sep: str) -> tuple:
        """item {sep item}: one or more items, sep between each two."""
        items = [item()]
        while self.peek().kind == sep:
            self.next()
            items.append(item())
        return tuple(items)

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    # expr := term { "x" term }
    def expr(self) -> RingExpr:
        parts = [self.term()]
        while self.peek().kind == "IDENT" and self.peek().text == "x":
            self.next()
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        return ProductE(tuple(parts))

    # term := atom { suffix }
    def term(self) -> RingExpr:
        node = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "[":
                self.next()
                var = self.expect("IDENT").text
                self.expect("]")
                self.expect("/")
                self.expect("(")
                polys = self.separated(self.poly, ",")
                self.expect(")")
                node = PolyQuotE(node, var, polys)
            elif tok.kind == "/":
                self.next()
                self.expect("(")
                gens = self.separated(self.poly, ",")
                self.expect(")")
                node = QuotE(node, gens)
            else:
                return node

    def atom(self) -> RingExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "IDENT" and tok.text == "Z":
            self.next()
            self.expect("/")
            n = self.integer()
            return ZModE(n)
        if tok.kind == "IDENT" and tok.text == "GF":
            self.next()
            self.expect("(")
            p = self.integer()
            k = 1
            if self.peek().kind == "^":
                self.next()
                k = self.integer()
            self.expect(")")
            return GFE(p, k)
        if tok.kind == "IDENT" and tok.text == "idealize":
            self.next()
            self.expect("(")
            base = self.expr()
            self.expect(",")
            cyclics = self.separated(self.cyclic, "+")
            self.expect(")")
            return IdealizeE(base, cyclics)
        self.fail(f"expected a ring expression, found {tok.text or 'end of input'!r}")

    def cyclic(self) -> tuple[Poly, ...]:
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return ()
        gens = self.separated(self.poly, ",")
        self.expect(")")
        return gens

    # poly := ["-"] mono { ("+"|"-") mono }
    def poly(self) -> Poly:
        terms = []
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        terms.append(self.mono(sign))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            terms.append(self.mono(sign))
        return Poly(tuple(terms))

    def mono(self, sign: int) -> Term:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.factor())
        return Term(sign, tuple(factors))

    def factor(self) -> Factor:
        tok = self.peek()
        if tok.kind == "INT":
            return IntF(self.integer())
        if tok.kind == "IDENT":
            self.next()
            exp = 1
            if self.peek().kind == "^":
                self.next()
                exp = self.integer()
            return NameF(tok.text, exp)
        self.fail(f"expected a coefficient or variable, found {tok.text or 'end of input'!r}")


def parse(text: str) -> RingExpr:
    parser = _Parser(tokenize(text))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# printer (parse . print_expr = identity on the tree)

def _print_factor(f: Factor) -> str:
    if isinstance(f, IntF):
        return str(f.value)
    return f.name if f.exp == 1 else f"{f.name}^{f.exp}"


def print_poly(p: Poly) -> str:
    parts = []
    for i, t in enumerate(p.terms):
        body = "*".join(_print_factor(f) for f in t.factors)
        if i == 0:
            parts.append(body if t.sign > 0 else "-" + body)
        else:
            parts.append(("+" if t.sign > 0 else "-") + body)
    return "".join(parts)


def _print_term_level(e: RingExpr) -> str:
    text = print_expr(e)
    if isinstance(e, ProductE):
        return f"({text})"
    return text


def print_expr(e: RingExpr) -> str:
    if isinstance(e, ZModE):
        return f"Z/{e.n}"
    if isinstance(e, GFE):
        return f"GF({e.p})" if e.k == 1 else f"GF({e.p}^{e.k})"
    if isinstance(e, ProductE):
        return " x ".join(_print_term_level(f) for f in e.factors)
    if isinstance(e, PolyQuotE):
        base = _print_term_level(e.base)
        if isinstance(e.base, (PolyQuotE, QuotE)):
            base = f"({base})"
        return f"{base}[{e.var}]/({', '.join(print_poly(q) for q in e.polys)})"
    if isinstance(e, QuotE):
        base = _print_term_level(e.base)
        if isinstance(e.base, (PolyQuotE, QuotE)):
            base = f"({base})"
        return f"{base}/({', '.join(print_poly(g) for g in e.gens)})"
    if isinstance(e, IdealizeE):
        cycs = " + ".join("(" + ", ".join(print_poly(g) for g in c) + ")" for c in e.cyclics)
        return f"idealize({print_expr(e.base)}, {cycs})"
    raise PreconditionError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# builder

@dataclass
class BuildResult:
    ring: FiniteRing
    names: dict[str, int] = field(default_factory=dict)
    factors: tuple[FiniteRing, ...] = ()  # the factor rings of a product expression


def _eval_factor(base: BuildResult, f: Factor, where: str) -> int:
    ring = base.ring
    if isinstance(f, IntF):
        # a literal k is k * 1, so it reduces mod the additive order of one
        mults = ring.multiples_of_one
        return int(mults[f.value % len(mults)])
    if f.name not in base.names:
        raise PreconditionError(f"unknown name {f.name!r} in {where}")
    return ring.power(base.names[f.name], f.exp)


def eval_element(base: BuildResult, p: Poly, where: str = "element expression") -> int:
    """A poly with no free variable, evaluated to a ring element index."""
    return _poly_coefficients(base, p, where)[0]


def _poly_coefficients(base: BuildResult, p: Poly, where: str, var: Optional[str] = None) -> list[int]:
    """Little-endian coefficient indices of a poly in the named variable;
    with no variable, the one entry is the poly's value.

    The list has degree + 1 entries, so an exponent of the variable above
    the arithmetic bound is refused before the list is built."""
    ring = base.ring
    limit = arith_limit()
    coeffs: dict[int, int] = {}
    for t in p.terms:
        exp = 0
        val = ring.one
        for f in t.factors:
            if isinstance(f, NameF) and f.name == var:
                exp += f.exp
                if exp > limit:
                    raise SizeLimitError(f"exponent {exp} of {var} exceeds the arithmetic bound")
            else:
                val = int(ring.mul[val, _eval_factor(base, f, where)])
        if t.sign < 0:
            val = int(ring.neg[val])
        coeffs[exp] = int(ring.add[coeffs.get(exp, ring.zero), val])
    deg = max(coeffs) if coeffs else 0
    return [coeffs.get(i, ring.zero) for i in range(deg + 1)]


def build_step(base: BuildResult, expr: RingExpr) -> tuple[BuildResult, RingHom]:
    """One suffix construction (poly quotient, quotient, idealization) over an
    already built base, together with the map from the base into the result."""
    adjoined: dict[str, int] = {}
    if isinstance(expr, PolyQuotE):
        monic, *relations = (_poly_coefficients(base, q, f"coefficient of {expr.var}", expr.var)
                             for q in expr.polys)
        pq = poly_quotient(base.ring, monic, relations=relations, var=expr.var)
        ring, hom, adjoined = pq.ring, pq.to_quotient, {expr.var: pq.var_index}
    elif isinstance(expr, QuotE):
        gens = [eval_element(base, g, "ideal generator") for g in expr.gens]
        qr = quotient(base.ring, ideal_generated(base.ring, gens))
        ring, hom = qr.ring, qr.projection
    elif isinstance(expr, IdealizeE):
        idl = idealize(build_module(base, expr.cyclics))
        ring, hom = idl.ring, idl.embed
    else:
        raise PreconditionError(f"expression node {expr!r} is not a suffix construction")
    names = {k: int(hom.map[v]) for k, v in base.names.items()}
    names.update(adjoined)
    return BuildResult(ring, names), hom


def build(expr: RingExpr) -> BuildResult:
    """Construct the ring, threading bound names through each step."""
    if isinstance(expr, ZModE):
        return BuildResult(make_zmod(expr.n))
    if isinstance(expr, GFE):
        return BuildResult(make_gf(expr.p, expr.k))
    if isinstance(expr, ProductE):
        factors = tuple(build(f).ring for f in expr.factors)
        # names have no canonical product image
        return BuildResult(product(factors).ring, factors=factors)
    if isinstance(expr, (PolyQuotE, QuotE, IdealizeE)):
        base = build(expr.base)
        return build_step(base, expr)[0]
    raise PreconditionError(f"unknown expression node {expr!r}")


def suffix_chain(top: RingExpr, base: RingExpr) -> Optional[list[RingExpr]]:
    """Suffix steps leading from base up to top, innermost first, or None when
    top is not syntactically built over base."""
    chain: list[RingExpr] = []
    cur = top
    while cur != base:
        if isinstance(cur, (PolyQuotE, QuotE, IdealizeE)):
            chain.append(cur)
            cur = cur.base
        else:
            return None
    chain.reverse()
    return chain


def build_module(base: BuildResult, cyclics: tuple[tuple[Poly, ...], ...]) -> FiniteModule:
    """Direct sum of cyclics R/(gens) from a parsed module spec."""
    ideal_gens = []
    for c in cyclics:
        ideal_gens.append([eval_element(base, g, "module spec") for g in c])
    return module_from_cyclics(base.ring, ideal_gens)


def build_text(text: str) -> BuildResult:
    return build(parse(text))


def parse_groups(text: str, sep: str, what: str) -> tuple[tuple[Poly, ...], ...]:
    """Generator groups '(g,...) sep (g,...) sep ...'; an empty group '()'
    generates the zero ideal."""
    p = _Parser(tokenize(text))
    groups = p.separated(p.cyclic, sep)
    if p.peek().kind != "EOF":
        p.fail(f"expected {sep!r} or end of {what}")
    return groups

"""Limit behavior of statistic sequences: exact normal-limit verdicts
and diagnostics.

A SequenceSpec describes a family n -> W^(n) in a small grammar:

    seq      := term ( "x" term )*
    term     := factor | "prod(" factor "," "i" "=" expr ".." expr ")"
    factor   := FAMILY arg [ "^" arg ]       (the power; 1 when omitted)
    arg      := digits | "(" expr ")"        (I2 always parenthesized)
    expr     := integer arithmetic over n, i with + - * ^ and parentheses

Examples: "A(n)", "B(n)", "prod(I2(i), i=1..n)", "A1^(n-2) x I2(n)",
"prod(I2(2^i), i=1..n)".  The text is lower-cased, stripped of
whitespace and split into plain string tokens; a factor without a
power gets the expression ("num", 1).  Inside a prod the variable i
runs over the range; n is the outer index everywhere.  Labels are
normalized at evaluation: I2(1) means A1 and I2(2) means A1 x A1, so
specs may sweep a dihedral parameter from 1 without special-casing the
degenerate start.

Sweep rows never build the descriptor: each (term, i) contributes its
rank, degree sums and variances from the per-factor closed forms, in a
few integer operations (the rational sums are kept as numerators over
one common denominator, and a row builds its Fractions once), and a
prod term whose pieces do not depend on n keeps one running prefix sum
across the sorted rows, so such a sweep is linear in the range rather
than quadratic.  SequenceSpec.descriptor and dihedral_parameters stay
the reference route for tests and verify; both read one walk over the
spec's factors, _factor_labels.

The verdicts read neither the rows nor the requested range.  Each
term gets its growth orders as n -> infinity from the per-factor
closed forms and the polynomial degrees of its parameter, power and
range (_growth); the verdict combines them.  A plain term F(p(n))^c(n),
a product over i = const..hi(n) with parameter and power polynomial in
i (or parameter c0^(alpha i + beta)), and an empty or eventually fixed
product are decided; any other term, such as one with n inside a
product's factor, is undecided, and a verdict that needs it is
inconclusive with clt_holds None.  The rows are numeric diagnostics:
per_n holds one row per n (MahonianRow or EulerianRow); its fields are
the JSON row keys.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from .groups import (
    CoxeterDescriptor,
    IrreducibleLabel,
    as_descriptor,
    degrees,
    factor_m_max,
    irreducible_degrees,
)
from .moments import moments_from_polynomial
from .polynomials import bernoulli_parameters, descent_root_bag

__all__ = [
    "SequenceSpec",
    "parse_sequence_spec",
    "TrendReport",
    "MahonianRow",
    "EulerianRow",
    "MahonianCltReport",
    "EulerianCltReport",
    "clt_check_inv",
    "clt_check_des",
    "LindebergReport",
    "triangular_array_diagnostics",
    "LltReport",
    "llt_sup_distance",
]

# ---------------------------------------------------------------------------
# expression grammar

# alpha tokens are restricted to grammar words so that squeezing out
# whitespace cannot merge a family letter into the "x" joiner
_TOKEN_RE = re.compile(r"\d+|prod|[abdefhinx]|\.\.|[=^*+\-(),]")


def _tokenize(text):
    """The tokens of text with whitespace squeezed out and case folded,
    and each token's spelling as typed, for error messages."""
    # where each character of compact stands in text
    where = [i for i, c in enumerate(text) if not c.isspace() for _ in c.lower()]
    compact = "".join(text.split()).lower()
    pos = 0
    tokens, typed = [], []
    while pos < len(compact):
        m = _TOKEN_RE.match(compact, pos)
        if m is None:
            at = where[pos]
            raise ValueError(f"parse error at position {at}: {text[at:]!r}")
        tokens.append(m.group())
        typed.append(text[where[pos]:where[m.end() - 1] + 1])
        pos = m.end()
    return tokens, typed


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens, self.typed = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError(f"unexpected end of sequence spec {self.text!r}")
        self.k += 1
        return tok

    def expect(self, want):
        got = self.next()
        if got != want:
            raise ValueError(
                f"expected {want!r}, got {self.typed[self.k - 1]!r} in {self.text!r}")

    # expr := sum; sum := prod (("+"|"-") prod)*; prod := pow ("*" pow)*;
    # pow := atom ("^" pow)?; atom := int | n | i | "(" expr ")" | "-" atom
    def parse_expr(self):
        node = self.parse_prod()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_prod()
            node = (op, node, rhs)
        return node

    def parse_prod(self):
        node = self.parse_pow()
        while self.peek() == "*":
            self.next()
            node = ("*", node, self.parse_pow())
        return node

    def parse_pow(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            return ("^", base, self.parse_pow())
        return base

    def parse_atom(self):
        tok = self.next()
        if tok == "-":
            return ("neg", self.parse_atom())
        if tok == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.isdigit():
            return ("num", int(tok))
        if tok in ("n", "i"):
            return ("var", tok)
        raise ValueError(
            f"unexpected token {self.typed[self.k - 1]!r} in expression in {self.text!r}")

    def parse_arg(self, error):
        """digits | "(" expr ")", else ValueError(error)."""
        tok = self.peek()
        if tok != "(" and not (tok or "").isdigit():
            raise ValueError(error)
        return self.parse_atom()


def _eval_expr(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        if node[1] not in env:
            raise ValueError(f"variable {node[1]!r} not available here")
        return env[node[1]]
    if op == "neg":
        return -_eval_expr(node[1], env)
    a = _eval_expr(node[1], env)
    b = _eval_expr(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b < 0:
        raise ValueError("negative exponents are not integers")
    return a ** b


def _expr_vars(node):
    if node[0] == "num":
        return set()
    if node[0] == "var":
        return {node[1]}
    if node[0] == "neg":
        return _expr_vars(node[1])
    return _expr_vars(node[1]) | _expr_vars(node[2])


def _degree_bound(node):
    """An upper bound on the degree of node as a polynomial, or None
    when an exponent mentions a variable or is negative."""
    op = node[0]
    if op in ("num", "var"):
        return int(op == "var")
    if op == "neg":
        return _degree_bound(node[1])
    a = _degree_bound(node[1])
    if op == "^":
        if a is None or _expr_vars(node[2]):
            return None
        e = _eval_expr(node[2], {})
        return a * e if e >= 0 else None
    b = _degree_bound(node[2])
    if a is None or b is None:
        return None
    return a + b if op == "*" else max(a, b)


def _poly(node, var):
    """(degree, sign of the leading coefficient) of node as an integer
    polynomial in var, with (0, 0) for the zero polynomial; None when
    node mentions another variable, has a variable exponent, or may
    exceed degree 64.  Exact: node is sampled at one point more than
    its degree bound and differenced down to its top nonzero level."""
    try:
        bound = _degree_bound(node)
        if bound is None or bound > 64 or _expr_vars(node) - {var}:
            return None
        vals = [_eval_expr(node, {var: t}) for t in range(bound + 1)]
    except ValueError:
        return None
    degree, lead = 0, 0
    for k in range(bound + 1):
        if any(vals):
            degree, lead = k, vals[0]
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return degree, (lead > 0) - (lead < 0)


# ---------------------------------------------------------------------------
# sequence specs

class _Term(namedtuple("_Term", [
    "family",       # "A".."I2"
    "param",        # expression AST for rank / edge label
    "power",        # expression AST, _ONE when the spec gives none
    "prod_range",   # (lo AST, hi AST) when a prod(...) term, else None
])):
    __slots__ = ()


_ONE = ("num", 1)


def _term_labels(term, env, n):
    """(raw parameter, normalized labels, power) of one term at env."""
    value = _eval_expr(term.param, env)
    count = _eval_expr(term.power, env)
    if count < 0:
        raise ValueError(f"negative power {count} at n = {n}")
    try:
        if term.family == "I2":
            if value == 1:
                labels = [IrreducibleLabel("A", 1)]
            elif value == 2:
                labels = [IrreducibleLabel("A", 1)] * 2
            else:
                labels = [IrreducibleLabel("I2", 2, value)]
        else:
            labels = [IrreducibleLabel(term.family, value)]
    except ValueError as exc:
        raise ValueError(f"invalid label at n = {n}: {exc}") from exc
    return value, labels, count


def _factor_labels(terms, n):
    """_term_labels of each factor of terms at index n, term by term and
    i by i over a prod's range."""
    for term in terms:
        envs = [{"n": n}]
        if term.prod_range is not None:
            lo, hi = (_eval_expr(e, {"n": n}) for e in term.prod_range)
            envs = ({"n": n, "i": i} for i in range(lo, hi + 1))
        for env in envs:
            yield _term_labels(term, env, n)


class SequenceSpec(namedtuple("SequenceSpec", "source_text terms")):
    __slots__ = ()

    def __repr__(self):
        return f"SequenceSpec(source_text={self.source_text!r})"

    def descriptor(self, n):
        """The group at index n, with I2(1) and I2(2) normalized away."""
        return CoxeterDescriptor(tuple(
            f for _, labels, count in _factor_labels(self.terms, n) for f in labels * count))

    def dihedral_parameters(self, n):
        """Raw I2 edge labels at index n, before normalization, with
        multiplicity; this is what divergence sums run over."""
        dihedral = (t for t in self.terms if t.family == "I2")
        return [value for value, _, count in _factor_labels(dihedral, n)
                for _ in range(count)]


def parse_sequence_spec(text):
    p = _Parser(text)
    terms = [_parse_term(p)]
    while p.peek() == "x":
        p.next()
        terms.append(_parse_term(p))
    if p.peek() is not None:
        raise ValueError(f"trailing input {p.typed[p.k]!r} in sequence spec {text!r}")
    return SequenceSpec(source_text=text, terms=tuple(terms))


def _parse_term(p):
    if p.peek() == "prod":
        p.next()
        p.expect("(")
        inner = _parse_factor(p)
        p.expect(",")
        p.expect("i")
        p.expect("=")
        lo = p.parse_expr()
        p.expect("..")
        hi = p.parse_expr()
        p.expect(")")
        return _Term(inner.family, inner.param, inner.power, (lo, hi))
    return _parse_factor(p)


def _parse_factor(p):
    tok = p.next()
    if tok == "i" and p.peek() == "2":
        p.next()
        family = "I2"
    elif tok in ("a", "b", "d", "e", "f", "h"):
        family = tok.upper()
    else:
        raise ValueError(f"unknown family {p.typed[p.k - 1]!r} in sequence spec {p.text!r}")
    param = p.parse_arg(f"family {family} needs a rank or parameter in {p.text!r}")
    power = _ONE
    if p.peek() == "^":
        p.next()
        power = p.parse_arg(f"bad power in sequence spec {p.text!r}")
    return _Term(family, param, power, None)


# ---------------------------------------------------------------------------
# CLT condition checks

class TrendReport(namedtuple("TrendReport", "verdict rationale")):
    """The verdict from the exact growth orders, and the sentence behind it."""

    __slots__ = ()


class MahonianRow(namedtuple("MahonianRow", "n rank d_n variance ratio")):
    """One row of clt_check_inv: d_n the largest degree, variance the
    Fraction s_n^2, ratio the float d_n / s_n.  The fields, in order, are
    the keys of a `coxstat clt` JSON row."""

    __slots__ = ()


class EulerianRow(namedtuple("EulerianRow", "n rank variance s_n dihedral_inverse_sum")):
    """One row of clt_check_des: variance the Fraction s_n^2, s_n a float,
    and the float sum of 1/m over the raw I2 labels.  The fields, in
    order, are the keys of a `coxstat clt` JSON row."""

    __slots__ = ()


class MahonianCltReport(namedtuple("MahonianCltReport", [
    "spec_text",
    "ratio",            # TrendReport of d_n / s_n
    "clt_holds",        # True, False or None
    "symbolic",         # str or None
    "rank_increasing",
    "per_n",            # (MahonianRow, ...)
])):
    __slots__ = ()


class EulerianCltReport(namedtuple("EulerianCltReport", [
    "spec_text",
    "trend",            # TrendReport of s_n itself
    "clt_holds",        # True, False or None
    "symbolic",         # str or None
    "cond_rank_to_infinity",     # True, False or None, like clt_holds
    "cond_dihedral_divergence",  # likewise
    "rank_increasing",
    "per_n",            # (EulerianRow, ...)
])):
    __slots__ = ()


def _spec_of(spec):
    if isinstance(spec, str):
        return parse_sequence_spec(spec)
    return spec


def _range_list(n_range):
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty index range")
    return ns


def _degree_sums(f):
    """(sum of d^2 - 1 over the degrees, largest degree) of one factor,
    in closed form for the families whose rank or label grows."""
    n = f.rank
    if f.family == "A":
        return (n + 1) * (n + 2) * (2 * n + 3) // 6 - n - 1, n + 1
    if f.family == "B":
        return 2 * n * (n + 1) * (2 * n + 1) // 3 - n, 2 * n
    if f.family == "D":
        k = n - 1
        return 2 * k * (k + 1) * (2 * k + 1) // 3 - k + n * n - 1, 2 * k
    if f.family == "I2":
        return f.m * f.m + 2, f.m
    degs = irreducible_degrees(f)
    return sum(v * v - 1 for v in degs), max(degs)


class _Aggregate:
    """Closed-form sums and maxima over a multiset of factors.

    The two rational sums are kept as a numerator over the lcm of the
    denominators seen, so adding a piece costs a gcd and a few products;
    a row builds its Fractions once, from the totals.
    """

    __slots__ = ("rank", "degree_squares", "twelfths", "edge_num", "edge_den",
                 "inverse_num", "inverse_den", "max_degree")

    def __init__(self):
        self.rank = self.degree_squares = 0
        self.twelfths = 0           # des variance = twelfths / 12 + edge sum
        self.edge_num, self.edge_den = 0, 1         # copies / m_max, rank >= 2
        self.inverse_num, self.inverse_den = 0, 1   # over raw I2 parameters
        self.max_degree = 0

    def add(self, other):
        self.rank += other.rank
        self.degree_squares += other.degree_squares
        self.twelfths += other.twelfths
        self.edge_num, self.edge_den = _add_ratio(
            self.edge_num, self.edge_den, other.edge_num, other.edge_den)
        self.inverse_num, self.inverse_den = _add_ratio(
            self.inverse_num, self.inverse_den, other.inverse_num, other.inverse_den)
        self.max_degree = max(self.max_degree, other.max_degree)

    def des_variance(self):
        """sum over factors of (rank - 2) / 12 + 1 / m_max, or 1/4 at rank 1."""
        return Fraction(self.twelfths * self.edge_den + 12 * self.edge_num,
                        12 * self.edge_den)

    def inverse_m_sum(self):
        return self.inverse_num / self.inverse_den


def _add_ratio(num, den, c, d):
    """num / den + c / d over the lcm of den and d."""
    g = math.gcd(den, d)
    if g == d:
        return num + c * (den // d), den
    return num * (d // g) + c * (den // g), den * (d // g)


def _piece(term, env, n):
    """Aggregate of one (term, i): its labels, taken power times."""
    value, labels, count = _term_labels(term, env, n)
    copies = len(labels) * count  # the labels are copies of one label
    out = _Aggregate()
    if copies == 0:
        return out
    f = labels[0]
    squares, out.max_degree = _degree_sums(f)
    out.rank = copies * f.rank
    out.degree_squares = copies * squares
    if f.rank == 1:
        out.twelfths = 3 * copies
    else:
        out.twelfths = copies * (f.rank - 2)
        out.edge_num, out.edge_den = copies, factor_m_max(f)
    if term.family == "I2":
        out.inverse_num, out.inverse_den = count, value
    return out


class _PrefixSum:
    """Running aggregate of one prod term over i = lo, lo + 1, ...

    upto(hi) extends the sum in place, so a term whose pieces do not
    depend on n serves every row from one pass over i; a smaller hi
    than last time starts again from lo.  Only the running sum is kept:
    a table of exact prefix sums would hold lcm(1..i) denominators for
    every i.
    """

    def __init__(self, term, lo):
        self.term = term
        self.lo = lo
        self.count = 0
        self.total = _Aggregate()

    def upto(self, hi, n):
        want = max(hi - self.lo + 1, 0)
        if want < self.count:
            self.count, self.total = 0, _Aggregate()
        while self.count < want:
            env = {"n": n, "i": self.lo + self.count}
            self.total.add(_piece(self.term, env, n))
            self.count += 1
        return self.total


def _sweep(spec, ns):
    """(n, aggregate of spec.descriptor(n)) for each n of the sorted ns.

    A prod term whose parameter, power and lower bound do not mention n
    keeps one prefix sum across rows; any other term rebuilds its own
    for each row.  Labels are checked in the order spec.descriptor
    checks them, so an invalid one fails at the same n.
    """
    shared = [t.prod_range is not None
              and not any("n" in _expr_vars(e)
                          for e in (t.param, t.power, t.prod_range[0]))
              for t in spec.terms]
    prefix = {}
    for n in ns:
        total = _Aggregate()
        for k, term in enumerate(spec.terms):
            if term.prod_range is None:
                total.add(_piece(term, {"n": n}, n))
                continue
            lo = _eval_expr(term.prod_range[0], {"n": n})
            hi = _eval_expr(term.prod_range[1], {"n": n})
            if not shared[k] or k not in prefix:
                prefix[k] = _PrefixSum(term, lo)
            total.add(prefix[k].upto(hi, n))
        if total.rank < 1:
            raise ValueError(f"trivial group at n = {n}")
        yield n, total


# ---------------------------------------------------------------------------
# exact growth orders
#
# Per factor of rank r, Var(des) = (r - 2)/12 + 1/m_max lies in
# [r/12, r/4], or in [1/(4m), 1/m] for I2(m) taken on the raw m; the
# largest degree lies in [r, 2r], or equals m; the inversion variance
# is within constant factors of r^3, or of m^2.  Every share is
# nonnegative, so a sum diverges iff one of its terms does, and the
# polynomial degrees of a term's parameter, power and range fix the
# power of n that each of its sums grows like.

# One term's _Growth: is it an I2 term; does its descent variance
# diverge (None: no rule decides the term); the powers of n its largest
# degree and inversion variance grow like; for an exponential parameter,
# whether d^2 / variance vanishes (else None); and why it diverges, or
# why no rule decides it.
_Growth = namedtuple("_Growth", "dihedral des degree variance exponential why")


def _label_ok(term, var, p):
    """Is term's label valid for every large var?  p = _poly(term.param, var)."""
    if p[0] >= 1:
        return p[1] > 0 and term.family in ("A", "B", "D", "I2")
    try:
        _term_labels(term._replace(power=_ONE), {var: 0}, 0)
    except ValueError:
        return False
    return True


def _growth(term):
    """The _Growth of one term, from its polynomial degrees:

    F(p(n))^c(n), deg p = a, deg c = b: des diverges iff a + b >= 1
    (b > a for I2), degree n^a, variance n^(b + 3a) (n^(b + 2a) for I2).
    prod(F(p(i))^c(i), i=lo..hi(n)), lo constant, deg hi = h >= 1, and
    k = 3 (k = 2 for I2): des diverges (for I2 iff b - a >= -1), degree
    n^(h a), variance n^(h (b + k a + 1)); with p(i) = c0^(alpha i +
    beta), c0 >= 2, des diverges iff F != I2 and d^2 / variance
    vanishes iff F != I2 or b >= 1.  An empty or eventually fixed term
    is bounded; any other shape is undecided.
    """
    dihedral = term.family == "I2"
    bounded = _Growth(dihedral, False, 0, 0, None, "")

    def undecided(why):
        return _Growth(dihedral, None, 0, 0, None, why)

    var = "n" if term.prod_range is None else "i"
    c, h = _poly(term.power, var), (1, 1)   # h: degree of hi; a stand-in for plain terms
    if c == (0, 0):
        return bounded      # empty
    if term.prod_range is not None:
        lo, hi = term.prod_range
        h = _poly(hi, "n")
        if h is not None and h[0] >= 1 and h[1] < 0 and not _expr_vars(lo):
            return bounded  # eventually empty
        if _expr_vars(lo) or "n" in _expr_vars(term.param) | _expr_vars(term.power):
            return undecided("n inside its factor, power or lower bound")
        if h is not None and h[0] == 0:
            return bounded  # the same factors for every n
    p = term.param
    exponential = (var == "i" and p[0] == "^" and _poly(p[1], "i") == (0, 1)
                   and _eval_expr(p[1], {"i": 0}) >= 2 and _poly(p[2], "i") == (1, 1))
    p = (1, 1) if exponential else _poly(p, var)
    if None in (c, p, h):
        return undecided("a variable exponent or a degree above 64")
    if c[1] < 0 or not _label_ok(term, var, p):
        return undecided("a label or power that is eventually invalid")
    a, b, h = p[0], c[0], h[0]
    if term.prod_range is None and dihedral:
        return _Growth(True, b > a, a, b + 2 * a, None,
                       "its power outgrows its parameter")
    if term.prod_range is None:
        return _Growth(False, a + b >= 1, a, b + 3 * a, None,
                       "its rank or its power grows")
    grows = "ever more factors, each adding at least 1/12"
    if exponential:
        return _Growth(dihedral, not dihedral, 0, 0, not dihedral or b >= 1, grows)
    if dihedral:
        return _Growth(True, b - a >= -1, h * a, h * (b + 2 * a + 1), None,
                       "its power over its parameter decays no faster than 1/i")
    return _Growth(False, True, h * a, h * (b + 3 * a + 1), None, grows)


def _any(flags):
    """True if any flag is True, else None if any is None, else False."""
    flags = list(flags)
    return True if True in flags else (None if None in flags else False)


def _named(spec):
    """(name, _Growth) of each term, named by position and family."""
    return [(f"term {k} ({t.family}{' product' if t.prod_range else ''})", _growth(t))
            for k, t in enumerate(spec.terms, 1)]


def _inv_verdict(terms):
    """(clt_holds, verdict, sentence) for d_n / s_n -> 0."""
    for name, g in terms:
        if g.des is None:
            return (None, "inconclusive",
                    f"{name}: {g.why}; no exact rule decides d_n / s_n")
    exp = [g for _, g in terms if g.exponential is not None]
    if len(exp) > 1:
        return (None, "inconclusive", "two products with exponential parameter; "
                "no exact rule decides d_n / s_n")
    if exp:
        sentence = ("a product with exponential parameter dominates every other "
                    "term, so d_n / s_n ")
        if exp[0].exponential:
            return True, "tends_to_zero", sentence + "vanishes as its rank or power grows"
        return False, "bounded", sentence + "stays bounded away from 0"
    d = max(g.degree for _, g in terms)
    v = max(g.variance for _, g in terms)
    sentence = (f"by the per-factor closed forms, d_n grows like n^{d} and "
                f"s_n^2 like n^{v}, so d_n / s_n ")
    if 2 * d < v:
        return True, "tends_to_zero", sentence + "vanishes"
    return False, "bounded", sentence + "stays bounded away from 0"


def _des_verdict(terms):
    """(clt_holds, verdict, sentence) for s_n -> infinity."""
    holds = _any(g.des for _, g in terms)
    if holds is False:
        return (False, "bounded", "every term's share of the descent variance "
                "stays bounded, so s_n does too")
    name, g = next((name, g) for name, g in terms if g.des is holds)
    if holds:
        return (True, "tends_to_infinity",
                f"{name}: {g.why}, so its share of the descent variance diverges")
    return (None, "inconclusive",
            f"{name}: {g.why}; no exact rule decides it, and no term is known to diverge")


def clt_check_inv(spec, n_range):
    """Normal limit of inversions: does d_n / s_n vanish?

    d_n is the largest degree and s_n the standard deviation.  The
    verdict comes from each term's exact growth orders (_growth), never
    from the rows: clt_holds is True or False when every term is
    decided, else None with verdict inconclusive.  per_n holds one
    MahonianRow per n, in increasing n whatever the order of n_range;
    the rows are diagnostics.

    >>> rep = clt_check_inv("A(n)", range(3, 5))
    >>> rep.clt_holds, rep.ratio.verdict
    (True, 'tends_to_zero')
    >>> rep.per_n[0]  # doctest: +NORMALIZE_WHITESPACE
    MahonianRow(n=3, rank=3, d_n=4, variance=Fraction(13, 6),
                ratio=2.7174648819470297)
    """
    spec = _spec_of(spec)
    rows = []
    for n, agg in _sweep(spec, _range_list(n_range)):
        var = Fraction(agg.degree_squares, 12)
        rows.append(MahonianRow(n, agg.rank, agg.max_degree, var,
                                agg.max_degree / math.sqrt(float(var))))
    holds, verdict, why = _inv_verdict(_named(spec))
    return MahonianCltReport(
        spec_text=spec.source_text,
        ratio=TrendReport(verdict, why),
        clt_holds=holds,
        symbolic=None if holds is None else why,
        rank_increasing=all(a.rank < b.rank for a, b in zip(rows, rows[1:])),
        per_n=tuple(rows),
    )


def clt_check_des(spec, n_range):
    """Normal limit of descents: does the variance diverge?

    Decided like clt_check_inv, from each term's exact growth orders:
    the variance diverges iff some term's share does.  The same rule
    over the non-I2 terms gives cond_rank_to_infinity, and over the I2
    terms (the sum of 1/m over raw edge labels) cond_dihedral_divergence.
    per_n holds one EulerianRow per n, with that sum of 1/m; the rows
    are diagnostics.

    >>> rep = clt_check_des("prod(I2(i), i=1..n)", range(3, 5))
    >>> rep.clt_holds, rep.cond_dihedral_divergence
    (True, True)
    >>> rep.per_n[0]  # doctest: +NORMALIZE_WHITESPACE
    EulerianRow(n=3, rank=5, variance=Fraction(13, 12), s_n=1.0408329997330663,
                dihedral_inverse_sum=1.8333333333333333)
    """
    spec = _spec_of(spec)
    rows = []
    for n, agg in _sweep(spec, _range_list(n_range)):
        var = agg.des_variance()
        rows.append(EulerianRow(n, agg.rank, var, math.sqrt(float(var)),
                                agg.inverse_m_sum()))
    terms = _named(spec)
    holds, verdict, why = _des_verdict(terms)
    return EulerianCltReport(
        spec_text=spec.source_text,
        trend=TrendReport(verdict, why),
        clt_holds=holds,
        symbolic=None if holds is None else why,
        cond_rank_to_infinity=_any(g.des for _, g in terms if not g.dihedral),
        cond_dihedral_divergence=_any(g.des for _, g in terms if g.dihedral),
        rank_increasing=all(a.rank < b.rank for a, b in zip(rows, rows[1:])),
        per_n=tuple(rows),
    )


# ---------------------------------------------------------------------------
# triangular-array diagnostics

class LindebergReport(namedtuple("LindebergReport", [
    "statistic",
    "epsilon",              # float
    "summand_variances",    # tuple
    "total_variance",       # Fraction for inv, float for des
    "max_ratio",            # likewise
    "lindeberg_sum",        # likewise
])):
    __slots__ = ()


def triangular_array_diagnostics(d, statistic, epsilon):
    """Lindeberg sum and worst summand share for the independent-summand
    decomposition of inv (uniforms over the degrees, exact rationals:
    the cut is an integer test per value, and each degree adds one
    Fraction) or des (Bernoulli success rates from the descent roots,
    floats)."""
    if statistic not in ("inv", "des"):
        raise ValueError("statistic must be inv or des")
    d = as_descriptor(d)
    if statistic == "inv":
        degs = degrees(d)
        variances = tuple(Fraction(v * v - 1, 12) for v in degs)
        total = Fraction(sum(v * v - 1 for v in degs), 12)
    else:
        ps = bernoulli_parameters(descent_root_bag(d))
        variances = tuple(p * (1 - p) for p in ps)
        total = sum(variances)
    if not variances:
        raise ValueError("trivial group has no summands")
    if total <= 0:
        raise ValueError("zero variance; no normalization possible")
    if statistic == "inv":
        # (k - mu)^2 >= (eps s)^2 = num / den in integers: with
        # x = 2k - (v - 1) = 2 (k - mu), x^2 den >= 4 num
        num, den = (Fraction(epsilon) ** 2 * total).as_integer_ratio()
        cut = 4 * num
        lind = Fraction(0)
        for v in degs:
            squares = sum(x * x for x in range(1 - v, v, 2) if x * x * den >= cut)
            if squares:
                lind += Fraction(squares, 4 * v)
    else:
        eps_s = float(epsilon) * math.sqrt(total)
        lind = 0.0
        for p in ps:
            if 1 - p >= eps_s:
                lind += p * (1 - p) ** 2
            if p >= eps_s:
                lind += (1 - p) * p ** 2
    return LindebergReport(
        statistic=statistic, epsilon=float(epsilon),
        summand_variances=variances, total_variance=total,
        max_ratio=max(variances) / total, lindeberg_sum=lind / total,
    )


# ---------------------------------------------------------------------------
# local limit distance

class LltReport(namedtuple("LltReport", "distance degenerate")):
    __slots__ = ()


def llt_sup_distance(f):
    """sup over the lattice of |s * P(X = k) - phi((k - mu) / s)|.

    The scaled-point-probability comparison behind local limit theorems.
    Off-support k are included with p = 0, so the tail contribution is
    the normal density nearest the support edge.  A one-point
    distribution is flagged degenerate and scores phi(0).
    """
    summary = moments_from_polynomial(f, k_max=2)
    coeffs = f.coefficients
    total = sum(coeffs)
    if summary.variance == 0:
        return LltReport(distance=1.0 / math.sqrt(2 * math.pi), degenerate=True)
    mu = float(summary.mean)
    s = math.sqrt(float(summary.variance))

    def phi(x):
        return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

    kmin = next(k for k, c in enumerate(coeffs) if c)
    kmax = len(coeffs) - 1
    worst = 0.0
    for j in range(kmin - 1, kmax + 2):
        c = s * (coeffs[j] / total) if 0 <= j < len(coeffs) else 0.0
        worst = max(worst, abs(c - phi((j - mu) / s)))
    return LltReport(distance=worst, degenerate=False)

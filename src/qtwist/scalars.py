"""Exact coefficient arithmetic: rationals, Laurent-monomial units, sparse Laurent polynomials.

The coefficient ring is Q[q1^{+-1}, ..., qk^{+-1}] in user-named parameters.
A :class:`UnitScalar` is a single invertible term ``c * q1^a1 * ... * qk^ak``
(nonzero rational ``c``, integer exponents); these form the multiplicative
group in which all cocycle values live.  A :class:`LaurentPolynomial` is a
finite sum of such terms and is what algebra elements carry as coefficients.

All arithmetic is exact and all values are canonical: sorted parameter names,
no zero exponents, no zero terms, reduced rationals.  Structural equality
therefore coincides with mathematical equality.  Coefficients are stored as
``fractions.Fraction``; the public constructors take only ``int`` and
``Fraction`` values and integer exponents (no floats, no bools, no strings).
Products of many units (the cocycle kernel in ``cocycles``) and the
coefficient terms of twisted products and monomial-map images (in
``algebras``) accumulate their numerator and denominator as Python ints and
become one reduced ``Fraction`` each.  The ``_trusted`` constructors (here,
in ``monoids`` and in ``algebras``) are internal only: they wrap values that
are already canonical and check nothing.  Equal values hash equally, across
types too: a constant polynomial hashes like its ``Fraction`` and a
one-term polynomial like its unit.
"""

from __future__ import annotations

import re
from fractions import Fraction

#: The exact base field is Q; parameters specialize into it.
Rational = Fraction

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def _exact(value, what):
    """`value` if it is an int or a Fraction (bools are not numbers here); else TypeError."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")


def _canonical_exps(exps):
    """Sorted (name, exponent) tuple of a map or pair list: repeated names add, zero exponents drop."""
    acc = {}
    for name, e in (exps.items() if isinstance(exps, dict) else exps):
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"exponent of {name!r} must be an int, got {e!r}")
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in acc.items() if e))


def _merge_exps(a, b):
    """The sum of two canonical exponent tuples, canonical again, by one sorted merge."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        name, e = a[i]
        other, f = b[j]
        if name < other:
            out.append(a[i])
            i += 1
        elif other < name:
            out.append(b[j])
            j += 1
        else:
            if e + f:
                out.append((name, e + f))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class UnitScalar:
    """An invertible scalar: nonzero rational times a Laurent monomial.

    >>> u = UnitScalar(Fraction(-3, 2), {"q": 2, "r": -1})
    >>> str(u)
    '-3/2*q^2*r^-1'
    >>> str(u * u.inv())
    '1'
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps=()):
        coeff = Fraction(_exact(coeff, "unit coefficient"))
        if coeff == 0:
            raise ValueError("unit scalars must be invertible; got zero coefficient")
        self.coeff = coeff
        self.exps = _canonical_exps(exps)

    @classmethod
    def _trusted(cls, coeff, exps):
        """Internal: the unit of a nonzero Fraction and a canonical exponent tuple, unchecked."""
        u = object.__new__(cls)
        u.coeff = coeff
        u.exps = exps
        return u

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def param(cls, name, exp=1):
        return cls(1, {name: exp})

    def is_one(self):
        return self.coeff == 1 and not self.exps

    def parameters(self):
        return {name for name, _ in self.exps}

    def __mul__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return UnitScalar._trusted(self.coeff * other.coeff, _merge_exps(self.exps, other.exps))

    def __truediv__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return self * other.inv()

    def inv(self):
        return UnitScalar._trusted(1 / self.coeff, tuple((n, -e) for n, e in self.exps))

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        if k == 0:
            return UnitScalar(1)
        return UnitScalar._trusted(self.coeff ** k, tuple((n, e * k) for n, e in self.exps))

    def __neg__(self):
        return UnitScalar._trusted(-self.coeff, self.exps)

    def __eq__(self, other):
        if isinstance(other, UnitScalar):
            return self.coeff == other.coeff and self.exps == other.exps
        if isinstance(other, (int, Fraction)):
            return not self.exps and self.coeff == other
        return NotImplemented

    def __hash__(self):
        # A constant unit equals and hashes like its Fraction, as the equal constant polynomial does.
        return hash((self.coeff, self.exps)) if self.exps else hash(self.coeff)

    def specialize(self, assignment):
        return _specialize_monomial(self.coeff, self.exps, assignment)

    def __str__(self):
        return render_unit(self)

    def __repr__(self):
        return f"UnitScalar({render_unit(self)!r})"


def _specialize_monomial(coeff, exps, assignment):
    value = coeff
    for name, e in exps:
        if name not in assignment:
            raise ValueError(f"no value assigned to parameter {name!r}")
        a = Fraction(_exact(assignment[name], f"value of parameter {name!r}"))
        if a == 0:
            raise ValueError(f"parameter {name!r} must specialize to a nonzero rational")
        value *= a ** e
    return value


class LaurentPolynomial:
    """Finite sum of Laurent monomials with rational coefficients.

    Stored sparsely as a map from canonical exponent tuples to nonzero
    rationals; the zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        canon = {}
        for exps, c in items:
            c = Fraction(_exact(c, "polynomial coefficient"))
            if c == 0:
                continue
            key = _canonical_exps(exps)
            c = canon.get(key, Fraction(0)) + c
            if c == 0:
                canon.pop(key, None)
            else:
                canon[key] = c
        self.terms = canon

    @classmethod
    def _trusted(cls, terms):
        """Internal: the polynomial of a {canonical exps: nonzero Fraction} map, unchecked."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._trusted({})

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def from_unit(cls, u):
        return cls._trusted({u.exps: u.coeff})

    @classmethod
    def from_rational(cls, c):
        return cls({(): c})

    @classmethod
    def from_param(cls, name, exp=1):
        return cls({((name, exp),): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def parameters(self):
        return {name for exps in self.terms for name, _ in exps}

    def units(self):
        """The terms as unit scalars, in canonical order."""
        return [UnitScalar._trusted(self.terms[k], k) for k in sorted(self.terms)]

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return LaurentPolynomial._trusted(out)

    def __neg__(self):
        return LaurentPolynomial._trusted({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UnitScalar):
            return self.scaled(other)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPolynomial.zero()
            return self.scaled(UnitScalar(other))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _merge_exps(ka, kb)
                c = ca * cb
                if key in out:
                    c += out[key]
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return LaurentPolynomial._trusted(out)

    __rmul__ = __mul__

    def scaled(self, u):
        """Multiply by a unit scalar; invertible (scale by ``u.inv()`` undoes it)."""
        exps, coeff = u.exps, u.coeff
        out = {_merge_exps(key, exps): c * coeff for key, c in self.terms.items()}
        return LaurentPolynomial._trusted(out)

    def __eq__(self, other):
        if isinstance(other, UnitScalar):
            other = LaurentPolynomial.from_unit(other)
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.from_rational(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # Equal values hash equally: zero and constants like their Fraction, one term like its unit.
        if len(self.terms) != 1:
            return hash(tuple(sorted(self.terms.items()))) if self.terms else hash(0)
        (key, c), = self.terms.items()
        return hash((c, key)) if key else hash(c)

    def specialize(self, assignment):
        total = Fraction(0)
        for exps, c in self.terms.items():
            total += _specialize_monomial(c, exps, assignment)
        return total

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"LaurentPolynomial({render_poly(self)!r})"


def specialize(p, assignment):
    """Exact evaluation of a polynomial (or unit) at nonzero rational parameter values."""
    return p.specialize(assignment)


# ---------------------------------------------------------------------------
# Literal grammar (every literal the library reads or writes)
#
#   unit       := [sign] product                    nonzero
#   product    := rational ('*' factor)*  |  factor ('*' factor)*
#   rational   := integer ['/' positive-integer]    integer = ['-'] digits
#   factor     := name ['^' integer]                name = [A-Za-z][A-Za-z0-9_]*
#   polynomial := [sign] product (sign product)*    a "0" term adds nothing
#   element    := [sign] term (sign term)*          a "0" term adds nothing
#   term       := ['(' polynomial ')' '*'] product  |  '(' polynomial ')'
#
# A '-' sign takes no '-' after it: "-3*q", not "- -3*q".  In a unit no sign
# at all may follow a sign ("+ -3*q" is malformed); in an element a negative
# rational may follow a '+' or a parenthesized coefficient: "X0 + -3*X1"
# ("-0" is not negative: "X0 +-0" is malformed, like "--0").
# In an element term, factors named after the algebra's generators build the
# basis monomial (exponents >= 1); the other names are coefficient parameters.
# A specialization value is a bare rational.  Examples: "1", "q",
# "-3/2*q^2*r^-1", "q^2 - 1", "(1 + q)*X0^2*X1".  Rendering is canonical and
# expands a polynomial coefficient into one term per unit, so output always
# stays within the unit-coefficient grammar.
# ---------------------------------------------------------------------------


def _rational(text):
    """The rational `text` spells, or None if it is not a rational literal."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        return None
    den = int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(m.group(1)), den)


def _split_sign(text):
    """(+1 or -1, the rest stripped) of a term with at most one leading sign."""
    s = text.strip()
    sign = -1 if s[:1] == "-" else 1
    if s[:1] in ("+", "-"):
        s = s[1:].strip()
        if sign < 0 and s[:1] == "-":
            raise ValueError(f"double sign in {text!r}")
    return sign, s


def _parse_product(body, text):
    """(rational, [(name, exponent), ...]) of a product after its sign, factors in order."""
    parts = [part.strip() for part in body.split("*")]
    coeff = _rational(parts[0])
    if coeff is not None:
        del parts[0]
    factors = []
    for part in parts:
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            what = "numeric factor must come first" if _RATIONAL_RE.fullmatch(part) else "malformed factor"
            raise ValueError(f"{what}: {part!r} in {text!r}")
        factors.append((m.group(1), int(m.group(2) or 1)))
    return (Fraction(1) if coeff is None else coeff), factors


def _exponents(factors):
    exps = {}
    for name, e in factors:
        exps[name] = exps.get(name, 0) + e
    return exps


def parse_unit(text):
    """Parse a unit literal; raises ValueError on malformed or zero literals."""
    sign, body = _split_sign(text)
    if body[:1] == "-":  # only after '+': a unit's rational takes no sign of its own
        raise ValueError(f"double sign in {text!r}")
    coeff, factors = _parse_product(body, text)
    if coeff == 0:
        raise ValueError(f"unit literal must be nonzero: {text!r}")
    return UnitScalar(sign * coeff, _exponents(factors))


def _render_sum(terms):
    """Canonical signed sum of (rational, ((name, exponent), ...)) terms; no terms is "0"."""
    out = []
    for c, pairs in terms:
        mag = str(c)
        if mag[0] == "-":
            mag = mag[1:]
            out.append(" - " if out else "-")
        elif out:
            out.append(" + ")
        factors = [name if e == 1 else f"{name}^{e}" for name, e in pairs]
        out.append("*".join(factors) if factors and mag == "1" else "*".join([mag] + factors))
    return "".join(out) or "0"


def render_unit(u):
    """Canonical unit literal: reduced rational, sorted names, no ^1."""
    return _render_sum([(u.coeff, u.exps)])


def split_terms(text):
    """Split a sum literal at top-level '+'/'-' signs (signs stay with their term).

    A '-' directly after '^', '*', '/', '(' or another sign is part of the
    current token, not a separator.
    """
    tokens = []
    depth = 0
    start = 0
    prev = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch in "+-" and depth == 0 and i > start and prev not in "^*/+-(":
            tokens.append(text[start:i])
            start = i
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    tokens.append(text[start:])
    return [t.strip() for t in tokens]


def _parse_sum(text, parse_term, total):
    """Add the parsed terms of a sum literal to `total`, skipping terms that are "0" after their sign."""
    for token in split_terms(text):
        if _split_sign(token)[1] != "0":
            total = total + parse_term(token)
    return total


def parse_poly(text):
    """Parse a '+'/'-' separated sum of unit literals; "0" is the zero polynomial."""
    return _parse_sum(text, lambda token: LaurentPolynomial.from_unit(parse_unit(token)),
                      LaurentPolynomial.zero())


def render_poly(p):
    """Canonical sum literal, terms ordered by exponent key; zero renders as "0"."""
    return _render_sum((p.terms[key], key) for key in sorted(p.terms))

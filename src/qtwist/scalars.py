"""Exact coefficient arithmetic: rationals, Laurent-monomial units, sparse Laurent polynomials.

The coefficient ring is Q[q1^{+-1}, ..., qk^{+-1}] in user-named parameters.
A :class:`UnitScalar` is a single invertible term ``c * q1^a1 * ... * qk^ak``
(nonzero rational ``c``, integer exponents); these form the multiplicative
group in which all cocycle values live.  A :class:`LaurentPolynomial` is a
finite sum of such terms and is what algebra elements carry as coefficients.

All arithmetic is exact and all values are canonical: sorted parameter names,
no zero exponents, no zero terms, reduced rationals.  Structural equality
therefore coincides with mathematical equality.  A unit is stored as its
integer form, and a polynomial as one reduced (numerator, denominator)
pair per term; the public constructors take only ``int`` and
``Fraction`` values and integer exponents (no floats, no bools, no strings),
in (name, exponent) pairs whose names are names of the literal grammar, so
that every rendered literal reads back as the same value.  Each name is
checked once: ``_canonical_exps`` checks the names of Python objects, and
the grammar (``_FACTOR_RE``) the names of literals, whose matched factors
``parse_unit`` and the element-term parser sum through ``_summed_exps``, the
summing half of ``_canonical_exps``, with no second check.  That a literal
is a string is one rule, ``_literal_arg``, for ``parse_unit``,
``parse_poly`` and ``algebras.parse_element`` alike.
The integer kernel and the one coefficient-product routine live here:
products of many units (``_power``: quadratic forms, cocycle triples and
unit ratios; ``_bilinear_power`` runs the same body over the pairs of a
bilinear form, ``_triple_holds`` decides a cocycle triple by one
``_power``, and ``_product_unit`` makes a coboundary value h(u) h(v) /
h(u+v) from three units with no pair list, exponent map or sort) and every
coefficient product or sum (``_add_product``, a unit times one or two
polynomials added into one accumulator: polynomial sums and products,
twisted products, monomial-map images, element sums, random elements) keep
Python int numerators and denominators, reduced once per result by the one
body of the reduction rule, ``_reduced``: into a unit by ``_unit_of``, into
a polynomial term by ``_polynomial``.
``_add_product`` is the only writer of an accumulator: the
checked polynomial constructor adds its checked terms through it, and a
polynomial times a unit, int or ``Fraction`` multiplies there after
coercion.  A unit's integer form, (numerator, denominator, exps) with
None for the unit 1, has one owner: a unit stores it (``num``, ``den``,
``exps``), reduced with ``den`` > 0, so units compare field by field with no
``Fraction``; ``_integer_unit`` reads it off the fields, and ``_unit_of``
makes its unit through ``_reduced``, which every unit operation and kernel
result goes through.  A polynomial stores each term's (numerator,
denominator) pair, reduced with the denominator > 0, in ``forms``, keyed by
its exponents: polynomials compare as dicts of int pairs, and
``_add_product`` reads their items as they stand, with no ``Fraction``
(``terms`` makes the ``Fraction`` map on each read, for callers).  The
sampler draws straight into a unit's form (``_random_integer_unit``).
The other modules pass forms, units
and (entry, power) pair lists here and test ``is None``; none builds,
unpacks or reduces a unit's form.
``_coefficient`` is the one coercion of a unit, int or ``Fraction`` to a
polynomial.  The ``_trusted`` constructors (here, in ``monoids`` and in
``algebras``) are internal only: they wrap values that are already
canonical and check nothing.  Equal values hash equally, across types too:
a constant polynomial hashes like its ``Fraction`` and a one-term
polynomial like its unit.  A table's JSON values are read through
``_unit_reader`` and its keys through ``monoids._vector_reader``, one memo
each per call, so each distinct unit literal in it is parsed once and each
distinct key checked once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import itemgetter

#: The exact base field is Q; parameters specialize into it.
Rational = Fraction

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def _exact(value, what):
    """`value` if it is an int or a Fraction (bools are not numbers here); else TypeError."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")


def _name_arg(name, what):
    """`name` if it is a name of the literal grammar, so that every literal naming it reads back.

    A name is a `str` (else TypeError) matching the name part of
    `_FACTOR_RE`, a letter and then letters, digits or `_`, with no
    exponent (else ValueError naming it).  `what` is "parameter name" or
    "generator name".
    """
    if not isinstance(name, str):
        raise TypeError(f"{what}s must be strings, got {name!r}")
    if not _FACTOR_RE.fullmatch(name) or "^" in name:  # a grammar factor with no exponent
        raise ValueError(f"{what} {name!r} is not a name of the literal grammar")
    return name


def _canonical_exps(exps):
    """Sorted (name, exponent) tuple of a map or pair list: repeated names add, zero exponents drop.

    The owner of parameter names in Python objects: each pair must be a
    (name, exponent) tuple or list (TypeError naming it), each name a
    grammar name (`_name_arg`) and each exponent an int (TypeError).  The
    checked pairs are summed by `_summed_exps`.
    """
    pairs = tuple(exps.items() if isinstance(exps, dict) else exps)
    for pair in pairs:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise TypeError(f"parameter exponents must be (name, exponent) pairs, got {pair!r}")
        name, e = _name_arg(pair[0], "parameter name"), pair[1]
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"exponent of {name!r} must be an int, got {e!r}")
    return _summed_exps(pairs)


def _summed_exps(pairs):
    """The canonical exponent tuple of (name, exponent) pairs whose names and exponents are already checked.

    The summing half of `_canonical_exps`: repeated names add, zero
    exponents drop, names sort.  The literal parsers (`parse_unit` and the
    element-term parser) pass it the factors that `_FACTOR_RE` has matched,
    whose names the grammar has checked and whose exponents are ints.
    """
    acc = {}
    for name, e in pairs:
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


def _integer_unit(a):
    """(numerator, denominator, exps) of a unit, None for the unit 1: its integer form, read off its fields.

    The one way from a unit to its form; `_unit_of` is the one way back.
    """
    return None if a.is_one() else (a.num, a.den, a.exps)


def _reduced(num, den):
    """(numerator, denominator) of num/den divided by their gcd, taken with den's sign: the reduction rule.

    The one body of the rule, so that every stored denominator is > 0:
    `_unit_of` reduces a unit's form here, and `_polynomial` each term's.
    """
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _unit_of(c):
    """The unit of an integer form (numerator, denominator, exps), reduced here; None is the unit 1.

    The one way from a form to its unit, the inverse of `_integer_unit`.
    Both integers go through `_reduced`.  Every unit but those of the
    checked constructor is made here.
    """
    if c is None:
        return UnitScalar.one()
    num, den, exps = c
    u = object.__new__(UnitScalar)
    u.num, u.den = _reduced(num, den)
    u.exps = exps
    return u


def _product_unit(a, b, c):
    """The unit a*b*c of three units: a coboundary value h(u) h(v) / h(u+v), with c = 1/h(u+v).

    Two int products and two `_merge_exps` sorted merges of the three
    units' fields, reduced once by `_unit_of`: no pair list, no exponent
    map and no sort.
    """
    return _unit_of((a.num * b.num * c.num, a.den * b.den * c.den, _merge_exps(_merge_exps(a.exps, b.exps), c.exps)))


def _power(pairs):
    """(numerator, denominator, exps) of prod a^e over (integer-form entry a, integer e) pairs.

    The numerator and denominator are accumulated as ints and the exponents
    in one map; entries None (the unit 1) are skipped, and a zero power
    multiplies by 1.  The quotient is not reduced: `_unit_of` reduces it.
    The map's `get` is bound once and its zero exponents
    are dropped by `filter`, so the loop enters no Python frame but this one.
    """
    num = den = 1
    exps = {}
    get = exps.get
    for a, e in pairs:
        if a is None:
            continue
        a_num, a_den, a_exps = a
        if e > 0:
            num *= a_num ** e
            den *= a_den ** e
        else:
            num *= a_den ** -e
            den *= a_num ** -e
        for name, k in a_exps:
            exps[name] = get(name, 0) + k * e
    return num, den, tuple(sorted(filter(itemgetter(1), exps.items())))


def _bilinear_power(matrix, left, right):
    """(numerator, denominator, exps) of the bilinear form prod_{i,j} M_ij^(u_i v_j) of an integer-form matrix.

    `left` and `right` are the sparse forms (`monoids._nonzero`) of u and v.
    The one kernel of every bilinear product: `_power`'s body over the pairs
    (M_ij, u_i v_j), with no pair list and no sign branch.  Entries None
    (the unit 1) are skipped, and every power u_i v_j is > 0, since a
    sparse form holds only the nonzero entries of a vector in N^n.  The
    quotient is not reduced, as `_power`'s is not.
    """
    num = den = 1
    exps = {}
    get = exps.get
    for i, ui in left:
        row = matrix[i]
        for j, vj in right:
            a = row[j]
            if a is None:
                continue
            e = ui * vj
            a_num, a_den, a_exps = a
            num *= a_num ** e
            den *= a_den ** e
            for name, k in a_exps:
                exps[name] = get(name, 0) + k * e
    return num, den, tuple(sorted(filter(itemgetter(1), exps.items())))


def _triple_holds(a, b, c, d):
    """Whether a*b = c*d for four integer forms: the cocycle identity at one triple.

    `cocycles` passes mu(x, y+z), mu(y, z), mu(x, y) and mu(x+y, z), in that
    order, for both of its checks.  a*b / (c*d) is one `_power` product,
    and it must come to 1: an equal numerator and denominator and no
    exponent, with no Fraction made.
    """
    num, den, exps = _power(((a, 1), (b, 1), (c, -1), (d, -1)))
    return num == den and not exps


def _random_integer_unit(rng, parameters):
    """A seeded random unit in integer form (numerator, denominator, exps), unreduced.

    A nonzero numerator with |num| <= 7, a denominator in 1..7, and each
    parameter, in the order given, with probability 1/2 an exponent in
    -2..2 (zero dropped); only the exponents are sorted.
    `algebras.random_unit` makes its unit and `random_element` adds it to an
    accumulator as it stands.
    """
    num = 0
    while num == 0:
        num = rng.randint(-7, 7)
    den = rng.randint(1, 7)
    exps = {}
    for name in parameters:
        if rng.random() < 0.5:
            e = rng.randint(-2, 2)
            if e:
                exps[name] = e
    return num, den, tuple(sorted(exps.items()))


#: The stored items of the polynomial 1.
_ONE_TERMS = (((), (1, 1)),)


def _add_product(acc, c, left=_ONE_TERMS, right=_ONE_TERMS):
    """Add c*p*q to an {exps: [numerator, denominator]} accumulator, one product per term pair.

    c is the integer form of a unit d*M (None for 1), possibly unreduced;
    p and q are iterables of (exps, (numerator, denominator)) items, as a
    polynomial stores them (`forms.items()`), each the polynomial 1 by
    default.  The term a*K of p and the term b*L of q add adb to the
    coefficient of K*M*L.  Polynomial sums and products, twisted products,
    map images, element sums and random elements all add their terms here,
    and nothing else writes to an accumulator: each value is a
    [numerator, denominator] pair of ints, left unreduced until
    `_polynomial` reduces it.
    """
    c_num, c_den, c_exps = (1, 1, ()) if c is None else c
    for ka, (a_num, a_den) in left:
        kc = _merge_exps(ka, c_exps)
        ac_num, ac_den = a_num * c_num, a_den * c_den
        for kb, (b_num, b_den) in right:
            key, num, den = _merge_exps(kc, kb), ac_num * b_num, ac_den * b_den
            pair = acc.get(key)
            if pair is None:
                acc[key] = [num, den]
            else:
                pair[0] = pair[0] * den + num * pair[1]
                pair[1] *= den


def _polynomial(acc):
    """The polynomial of an {exps: [numerator, denominator]} accumulator: each nonzero pair `_reduced`.

    The pairs are unreduced, since `_add_product` multiplies in unreduced
    unit forms; `_reduced` is the rule a unit's form goes through too.
    """
    forms = {}
    for k, (num, den) in acc.items():
        if num:
            forms[k] = _reduced(num, den)
    return LaurentPolynomial._trusted(forms)


class UnitScalar:
    """An invertible scalar: nonzero rational times a Laurent monomial.

    Stored as its integer form: `num` and `den`, reduced with `den` > 0,
    and the canonical exponent tuple `exps`.  `coeff` is the rational as a
    Fraction, made on each read.

    >>> u = UnitScalar(Fraction(-3, 2), {"q": 2, "r": -1})
    >>> str(u)
    '-3/2*q^2*r^-1'
    >>> str(u * u.inv())
    '1'
    >>> v = UnitScalar(Fraction(4, -6))
    >>> v.num, v.den, v.coeff
    (-2, 3, Fraction(-2, 3))
    """

    __slots__ = ("num", "den", "exps")

    def __init__(self, coeff, exps=()):
        num, den = _exact(coeff, "unit coefficient").as_integer_ratio()
        if num == 0:
            raise ValueError("unit scalars must be invertible; got zero coefficient")
        self.num, self.den, self.exps = num, den, _canonical_exps(exps)

    @property
    def coeff(self):
        return Fraction(self.num, self.den)

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def param(cls, name, exp=1):
        return cls(1, {name: exp})

    def is_one(self):
        # A reduced form with den > 0 is 1 exactly when its two integers are equal.
        return self.num == self.den and not self.exps

    def parameters(self):
        return {name for name, _ in self.exps}

    def __mul__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return _unit_of((self.num * other.num, self.den * other.den, _merge_exps(self.exps, other.exps)))

    def __truediv__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return self * other.inv()

    def inv(self):
        return _unit_of((self.den, self.num, tuple((n, -e) for n, e in self.exps)))

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        return _unit_of((num ** abs(k), den ** abs(k), tuple((n, e * k) for n, e in self.exps) if k else ()))

    def __neg__(self):
        return _unit_of((-self.num, self.den, self.exps))

    def __eq__(self, other):
        if isinstance(other, UnitScalar):
            return self.num == other.num and self.den == other.den and self.exps == other.exps
        if isinstance(other, (int, Fraction)):
            return not self.exps and self.num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # Equal values hash equally: a constant unit like its Fraction, and so like the equal constant
        # polynomial; a unit with parameters like the equal one-term polynomial, with no Fraction made.
        return hash((self.num, self.den, self.exps)) if self.exps else hash(self.coeff)

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

    Stored sparsely as `forms`, a map from canonical exponent tuples to
    (numerator, denominator) pairs, reduced with the denominator > 0 and
    the numerator nonzero; the zero polynomial is the empty map.  `terms`
    is the map to the coefficients as Fractions, made on each read.

    >>> p = LaurentPolynomial({(("q", 1),): Fraction(4, -6), (): 3})
    >>> p.forms == {(("q", 1),): (-2, 3), (): (3, 1)}, p.terms[(("q", 1),)]
    (True, Fraction(-2, 3))
    """

    __slots__ = ("forms",)

    def __init__(self, terms=()):
        checked = [(_canonical_exps(exps), c.as_integer_ratio())
                   for exps, c in (terms.items() if isinstance(terms, dict) else terms)
                   if _exact(c, "polynomial coefficient")]
        acc = {}
        _add_product(acc, None, checked)
        self.forms = _polynomial(acc).forms

    @classmethod
    def _trusted(cls, forms):
        """Internal: the polynomial of a {canonical exps: reduced (numerator, denominator)} map, unchecked."""
        p = object.__new__(cls)
        p.forms = forms
        return p

    @property
    def terms(self):
        return {k: Fraction(num, den) for k, (num, den) in self.forms.items()}

    @classmethod
    def zero(cls):
        return cls._trusted({})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def from_unit(cls, u):
        return cls._trusted({u.exps: (u.num, u.den)})

    @classmethod
    def from_rational(cls, c):
        return cls({(): c})

    @classmethod
    def from_param(cls, name, exp=1):
        return cls({((name, exp),): 1})

    def is_zero(self):
        return not self.forms

    def parameters(self):
        return {name for exps in self.forms for name, _ in exps}

    def units(self):
        """The terms as unit scalars, in canonical order."""
        return [_unit_of((*self.forms[k], k)) for k in sorted(self.forms)]

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        acc = {}
        for p in (self, other):
            _add_product(acc, None, p.forms.items())
        return _polynomial(acc)

    def __neg__(self):
        return LaurentPolynomial._trusted({k: (-num, den) for k, (num, den) in self.forms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UnitScalar)):
            other = _coefficient(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        acc = {}
        _add_product(acc, None, self.forms.items(), other.forms.items())
        return _polynomial(acc)

    __rmul__ = __mul__

    def scaled(self, u):
        """Multiply by a unit scalar; invertible (scale by ``u.inv()`` undoes it).

        The same polynomial as ``self * u``, by its own loop of `Fraction`
        products and with no accumulator; the library multiplies through
        ``*``.
        """
        exps, coeff = u.exps, u.coeff
        out = {_merge_exps(key, exps): (c * coeff).as_integer_ratio() for key, c in self.terms.items()}
        return LaurentPolynomial._trusted(out)

    def __eq__(self, other):
        # Stored pairs compare as tuples of ints, with no Fraction made.
        if isinstance(other, LaurentPolynomial):  # first: a Fraction test runs ABCMeta.__instancecheck__
            return self.forms == other.forms
        if isinstance(other, UnitScalar):
            return self.forms == {other.exps: (other.num, other.den)}
        if isinstance(other, (int, Fraction)):
            # Compared, not converted: a bool equals the int it is, as for units and Fractions.
            return self.forms == ({(): (other.numerator, other.denominator)} if other else {})
        return NotImplemented

    def __hash__(self):
        # Equal values hash equally: zero and constants like their Fraction, one term like its unit.
        if len(self.forms) != 1:
            return hash(tuple(sorted(self.forms.items()))) if self.forms else hash(0)
        (key, (num, den)), = self.forms.items()
        return hash((num, den, key)) if key else hash(Fraction(num, den))

    def specialize(self, assignment):
        total = Fraction(0)
        for exps, (num, den) in self.forms.items():
            total += _specialize_monomial(Fraction(num, den), exps, assignment)
        return total

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"LaurentPolynomial({render_poly(self)!r})"


def _coefficient(c):
    """The polynomial of a coefficient: a LaurentPolynomial, a unit, an int or a Fraction; else TypeError."""
    if isinstance(c, LaurentPolynomial):
        return c
    if isinstance(c, UnitScalar):
        return LaurentPolynomial.from_unit(c)
    return LaurentPolynomial.from_rational(c)


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
# No sign may directly follow a sign, in any literal: "- -3*q", "+ -3*q" and
# "X0 + -3*X1" are malformed.  A '-' after '*' is a rational's own sign, as
# in the element term "(1 + q)*-3*X0".
# In an element term, factors named after the algebra's generators build the
# basis monomial (exponents >= 1); the other names are coefficient parameters.
# A specialization value is a bare rational.  Examples: "1", "q",
# "-3/2*q^2*r^-1", "q^2 - 1", "(1 + q)*X0^2*X1".  Rendering is canonical and
# expands a polynomial coefficient into one term per unit, so output always
# stays within the unit-coefficient grammar.
# ---------------------------------------------------------------------------


def _rational(text, sign=1):
    """`sign` times the rational `text` spells, or None if it is not a rational literal."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        return None
    den = int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(sign * int(m.group(1)), den)


def _split_sign(text):
    """(+1 or -1, the rest stripped) of a term with at most one leading sign; a second raises ValueError."""
    s = text.strip()
    sign = -1 if s[:1] == "-" else 1
    if s[:1] in ("+", "-"):
        s = s[1:].strip()
        if s[:1] in ("+", "-"):
            raise ValueError(f"double sign in {text!r}")
    return sign, s


def _parse_product(body, text, sign):
    """(`sign` times its rational, [(name, exponent), ...]) of a product after its sign, factors in order."""
    parts = [part.strip() for part in body.split("*")]
    coeff = _rational(parts[0], sign)
    if coeff is not None:
        del parts[0]
    factors = []
    for part in parts:
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            what = "numeric factor must come first" if _RATIONAL_RE.fullmatch(part) else "malformed factor"
            raise ValueError(f"{what}: {part!r} in {text!r}")
        factors.append((m.group(1), int(m.group(2) or 1)))
    return (Fraction(sign) if coeff is None else coeff), factors


def _literal_arg(text, what="unit literal"):
    """`text` if it is a string; else TypeError naming `what`: the one body of the rule that a literal is a string.

    `what` is "unit literal" for `parse_unit`, and "polynomial literal"
    (`parse_poly`) or "element literal" (`algebras.parse_element`) for a
    sum, which asks through `_parse_sum`.
    """
    if not isinstance(text, str):
        raise TypeError(f"{what} must be a string, got {text!r}")
    return text


def parse_unit(text):
    """Parse a unit literal; raises TypeError on a non-string, ValueError on malformed or zero literals."""
    sign, body = _split_sign(_literal_arg(text))
    coeff, factors = _parse_product(body, text, sign)
    if coeff == 0:
        raise ValueError(f"unit literal must be nonzero: {text!r}")
    return _unit_of((*coeff.as_integer_ratio(), _summed_exps(factors)))


def _unit_reader():
    """A parse_unit for reading one input: each distinct literal is parsed once and its unit shared.

    Units are immutable, so one unit may stand for every copy of its
    literal.  The memo lives as long as the returned function.  A non-string
    never reaches the memo: parse_unit refuses it first.
    """
    memo = {}

    def read(text):
        unit = memo.get(text) if isinstance(text, str) else None
        if unit is None:
            unit = memo[text] = parse_unit(text)
        return unit

    return read


def _render_sum(terms):
    """Canonical signed sum of (((name, exponent), ...), (numerator, denominator)) reduced terms; none is "0"."""
    out = []
    for pairs, (num, den) in terms:
        if num < 0:
            num = -num
            out.append(" - " if out else "-")
        elif out:
            out.append(" + ")
        mag = str(num) if den == 1 else f"{num}/{den}"
        factors = [name if e == 1 else f"{name}^{e}" for name, e in pairs]
        out.append("*".join(factors) if factors and mag == "1" else "*".join([mag] + factors))
    return "".join(out) or "0"


def render_unit(u):
    """Canonical unit literal: reduced rational, sorted names, no ^1."""
    return _render_sum([(u.exps, (u.num, u.den))])


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


def _parse_sum(text, what, parse_term, total):
    """Add the parsed terms of a sum literal to `total`, skipping terms that are "0" after their sign.

    A literal that is not a string is refused as `what` (`_literal_arg`).
    """
    for token in split_terms(_literal_arg(text, what)):
        if _split_sign(token)[1] != "0":
            total = total + parse_term(token)
    return total


def parse_poly(text):
    """Parse a '+'/'-' separated sum of unit literals; "0" is the zero polynomial; TypeError on a non-string."""
    return _parse_sum(text, "polynomial literal", lambda token: LaurentPolynomial.from_unit(parse_unit(token)),
                      LaurentPolynomial.zero())


def render_poly(p):
    """Canonical sum literal, terms ordered by exponent key; zero renders as "0"."""
    return _render_sum(sorted(p.forms.items()))  # keys are distinct: sorted by exponent key alone

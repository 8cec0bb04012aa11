"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored sparsely as a map from exponent vectors to nonzero
``Fraction`` coefficients. The exponent vector is a tuple of nonnegative
ints, one slot per variable of the owning ring. Two polynomials combine only
when their variable tuples are identical; constants are promoted
automatically, so ``p + 1`` and ``Polynomial.constant(vars, 1) + p`` agree.

Equality is structural and, because the representation is canonical (no zero
coefficient is ever stored), structural equality coincides with mathematical
equality. Every "vanishes identically" check downstream reduces to
``is_zero`` here, which is what keeps all of them exact decisions rather
than numerical tolerances.

Canonical form: ``variables`` is a tuple of distinct names; ``terms`` maps
each exponent vector, a tuple of non-bool nonnegative ``int`` of length
``len(variables)``, to a nonzero ``Fraction``. ``Polynomial(...)`` is the
validating entry point for outside input and brings any accepted input into
this form. The arithmetic (``+``, ``-``, ``*``, ``**``, ``partial``,
``embed``, ``substitute``) combines canonical operands into terms that are
canonical by construction, so it builds its results with the private
``Polynomial._trusted``, which stores the given dict as is. Nothing mutates
a ``terms`` dict after construction.

Moving a polynomial to another ring by variable name (an embedding, a
projection, a rename, or a diagonal restriction that sends two variables to
one) is ``embed``, a map of exponent vectors. ``substitute`` is for genuine
polynomial images, such as an affine parametrization or evaluation at a
point.

Multiplication runs its inner loop on ``int``: ``_numerators`` scales each
operand's coefficients to integer numerators over that operand's least
common denominator (``coeff == num / den`` for every term), the products of
numerators are summed per exponent vector, and each nonzero total ``v``
becomes one ``Fraction(v, den1 * den2)``, which the constructor reduces to
lowest terms. A product thus builds one ``Fraction`` per output term
instead of one ``Fraction`` multiply and add per pair of input terms.

The text grammar accepted by :func:`parse_polynomial`:

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | identifier | '(' expr ')'
    rational := int ('/' positive-int)?

Parentheses may nest at most ``MAX_NESTING`` deep; deeper input is a
``ParseError``, so a hostile string cannot exhaust the interpreter stack.

The optional leading minus on the first term is an extension of the minimal
grammar so that canonical printing round-trips through the parser.
Identifiers must be declared ring variables; anything else is rejected with
its position.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .errors import InputError, ParseError

Rational = Fraction

MAX_NESTING = 100


def _numerators(terms):
    """Scale coefficients to ints over their least common denominator.

    Returns ``(den, [(exps, num), ...])`` with ``coeff == num / den`` for
    every term, in the order of ``terms``.
    """
    den = 1
    for coeff in terms.values():
        if coeff.denominator != 1:
            den = lcm(den, coeff.denominator)
    if den == 1:
        return 1, [(exps, coeff.numerator) for exps, coeff in terms.items()]
    return den, [
        (exps, coeff.numerator * (den // coeff.denominator))
        for exps, coeff in terms.items()
    ]


def _check_variables(variables):
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable names: {variables}")
    return variables


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"not a rational scalar: {value!r}")


class Polynomial:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = _check_variables(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise InputError(
                    f"exponent vector {exps} does not match {len(variables)} variables"
                )
            if any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps
            ):
                raise InputError(f"exponents must be nonnegative integers: {exps}")
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if exps in clean:
                coeff = clean[exps] + coeff
                if coeff == 0:
                    del clean[exps]
                    continue
            clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables, terms):
        """Wrap terms already in canonical form (see the module doc), unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls._trusted(_check_variables(variables), {})

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_fraction(value)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r} in ring {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(exps) for exps in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Largest term degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, names):
        """Largest combined exponent of the named variables, -1 if zero."""
        idx = [self.variables.index(n) for n in names]
        if not self.terms:
            return -1
        return max(sum(exps[i] for i in idx) for exps in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables == self.variables:
                return other
            if other.is_constant():
                return Polynomial.constant(self.variables, other.constant_value())
            if self.is_constant():
                return other  # caller re-dispatches from the promoted side
            raise InputError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )
        if isinstance(other, (int, Fraction)):
            terms = {(0,) * len(self.variables): Fraction(other)} if other else {}
            return Polynomial._trusted(self.variables, terms)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.variables != self.variables:
            return Polynomial.constant(other.variables, self.constant_value()) + other
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) + coeff
            if total == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = total
        return Polynomial._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(
            self.variables, {exps: -c for exps, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.variables != self.variables:
            return Polynomial.constant(other.variables, self.constant_value()) * other
        if not (self.terms and other.terms):
            return Polynomial._trusted(self.variables, {})
        den1, nums1 = _numerators(self.terms)
        den2, nums2 = _numerators(other.terms)
        acc = {}
        get = acc.get
        for e1, n1 in nums1:
            for e2, n2 in nums2:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + n1 * n2
        den = den1 * den2
        if den == 1:
            terms = {exps: Fraction(v) for exps, v in acc.items() if v}
        else:
            terms = {exps: Fraction(v, den) for exps, v in acc.items() if v}
        return Polynomial._trusted(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"polynomial power must be a nonnegative int, got {n!r}")
        out = Polynomial.constant(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.variables != other.variables:
            if self.is_constant() and other.is_constant():
                return self.constant_value() == other.constant_value()
            return False
        return self.terms == other.terms

    __hash__ = None

    # -- calculus ----------------------------------------------------------

    def partial(self, name):
        """Formal partial derivative with respect to the named variable."""
        if name not in self.variables:
            raise InputError(f"unknown variable {name!r} in ring {self.variables}")
        i = self.variables.index(name)
        # Lowering one exponent is injective, so no two terms collide.
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                if coeff.denominator == 1:
                    terms[lowered] = Fraction(coeff.numerator * e)
                else:
                    terms[lowered] = coeff * e
        return Polynomial._trusted(self.variables, terms)

    def embed(self, variables, renames=None):
        """The same polynomial over another ring, moved by variable name.

        Each variable goes to ``renames[v]``, or else to the target variable
        of the same name; a variable with neither must not occur. This is a
        map of exponent slots with no arithmetic: exponents and coefficients
        add, and may cancel, only where two variables share a target.
        """
        variables = _check_variables(variables)
        index = {v: i for i, v in enumerate(variables)}
        renames = renames or {}
        slots = []
        for pos, v in enumerate(self.variables):
            i = index.get(renames.get(v, v))
            if i is not None:
                slots.append((pos, i))
            elif any(exps[pos] for exps in self.terms):
                raise InputError(f"variable {v!r} has no image in ring {variables}")
        terms = {}
        for exps, coeff in self.terms.items():
            moved = [0] * len(variables)
            for pos, i in slots:
                moved[i] += exps[pos]
            moved = tuple(moved)
            if moved in terms:
                coeff = terms[moved] + coeff
                if coeff == 0:
                    del terms[moved]
                    continue
            terms[moved] = coeff
        return Polynomial._trusted(variables, terms)

    def substitute(self, target_variables, assignments):
        """Evaluate with each variable replaced by a polynomial over a new ring.

        Variables absent from ``assignments`` must either not occur in the
        polynomial or exist in ``target_variables``, in which case they map
        to themselves. Plain renames and ring extensions therefore need only
        name the variables that actually move.
        """
        target_variables = tuple(target_variables)

        def image_of(v):
            if v in assignments:
                img = assignments[v]
                if isinstance(img, (int, Fraction)):
                    img = Polynomial.constant(target_variables, img)
                if img.variables != target_variables:
                    if img.is_constant():
                        img = Polynomial.constant(
                            target_variables, img.constant_value()
                        )
                    else:
                        raise InputError(
                            f"substitution image for {v!r} lives in "
                            f"{img.variables}, expected {target_variables}"
                        )
                return img
            if v in target_variables:
                return Polynomial.variable(target_variables, v)
            raise InputError(
                f"variable {v!r} has no image and is not a target variable"
            )

        cache = {}
        out = Polynomial.zero(target_variables)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target_variables, coeff)
            for v, e in zip(self.variables, exps):
                if e:
                    if v not in cache:
                        cache[v] = image_of(v)
                    term = term * cache[v] ** e
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )
        pieces = []
        for exps, coeff in ordered:
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else "-" + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={','.join(self.variables) or '()'})"


# -- parser ----------------------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos]), start

    def take_ident(self):
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            raise ParseError(f"unexpected character {ch!r}", start)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos], start

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)
        self.pos += 1


def parse_polynomial(text, variables):
    """Parse ``text`` into a canonical Polynomial over ``variables``."""
    variables = tuple(variables)
    toks = _Tokens(text)
    value = _parse_expr(toks, variables)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"trailing input {text[toks.pos:]!r}", toks.pos)
    return value


def _parse_expr(toks, variables):
    negate = False
    if toks.peek() == "-":
        toks.pos += 1
        negate = True
    value = _parse_term(toks, variables)
    if negate:
        value = -value
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        rhs = _parse_term(toks, variables)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(toks, variables):
    value = _parse_factor(toks, variables)
    while toks.peek() == "*":
        toks.pos += 1
        value = value * _parse_factor(toks, variables)
    return value


def _parse_factor(toks, variables):
    base = _parse_base(toks, variables)
    if toks.peek() == "^":
        toks.pos += 1
        exp, _ = toks.take_number()
        base = base**exp
    return base


def _parse_base(toks, variables):
    ch = toks.peek()
    if ch is None:
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        if toks.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested more than {MAX_NESTING} deep", toks.pos
            )
        toks.pos += 1
        toks.depth += 1
        value = _parse_expr(toks, variables)
        toks.expect(")")
        toks.depth -= 1
        return value
    if ch.isdigit():
        num, _ = toks.take_number()
        if toks.peek() == "/":
            toks.pos += 1
            den, dpos = toks.take_number()
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Polynomial.constant(variables, Fraction(num, den))
        return Polynomial.constant(variables, num)
    name, start = toks.take_ident()
    if name not in variables:
        raise ParseError(
            f"unknown identifier {name!r} (declared: {', '.join(variables)})", start
        )
    return Polynomial.variable(variables, name)

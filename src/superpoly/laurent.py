"""Exact sparse Laurent polynomials in the three variables a, q, t.

Every invariant in this library (HOMFLY polynomials, superpolynomials,
Poincare polynomials of graded homologies) is a finite integer combination
of monomials a^i q^j t^k with i, j, k in Z.  Poly3 stores such a polynomial
as a dict mapping exponent triples to nonzero integer coefficients, and all
arithmetic is exact: Python ints never overflow and nothing is ever rounded.

Instances are immutable after construction; every operation returns a new
polynomial, so values can be shared freely across threads.
"""

import re
from itertools import accumulate
from math import comb, gcd
from operator import add, neg, sub


class LaurentError(Exception):
    """Base class for errors raised by this module."""


class NotDivisible(LaurentError):
    """Exact division failed: the dividend is not a multiple of the divisor.

    This usually signals a failed structural check (an identity that was
    expected to hold does not), not a programming error, so callers often
    catch it and report the violated identity.
    """


class NotYExpressible(LaurentError):
    """The polynomial is not in the span of a^i t^j y^g monomials."""


class OddExponent(LaurentError):
    """An odd a- or q-exponent appeared where only even ones are allowed."""


class TooManyDigits(LaurentError, ValueError):
    """A coefficient is past the interpreter's int-to-str digit limit."""


class TooLarge(LaurentError, ValueError):
    """The work an operation would do is past an internal limit."""


class ParseError(LaurentError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _int_arg(name, value):
    """value, when it is an int and not a bool; a TypeError naming it otherwise."""
    if type(value) is not int:
        raise TypeError("%s must be an int, got %r" % (name, value))
    return value


def _capped(count, cap, what, *args):
    """count, checked before the work it measures: past cap, TooLarge names what % args."""
    if count > cap:
        raise TooLarge("%s, past %d" % (what % args, cap))
    return count


class Poly3:
    """A Laurent polynomial in Z[a^{+-1}, q^{+-1}, t^{+-1}].

    The zero polynomial has an empty term dict.  Exponent triples are
    (ea, eq, et) in that order everywhere, and the same lexicographic
    order on triples is the canonical term order used for printing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms is not None:
            if not isinstance(terms, dict):
                raise TypeError("Poly3 terms must be a dict, got %s" % type(terms).__name__)
            for key, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError("Poly3 coefficients must be integers, got %r" % (c,))
                if not (isinstance(key, tuple) and len(key) == 3):
                    raise TypeError("Poly3 keys must be (ea, eq, et) triples, got %r" % (key,))
                ea, eq, et = key
                if not (isinstance(ea, int) and isinstance(eq, int) and isinstance(et, int)):
                    raise TypeError("Poly3 exponents must be integers, got %r" % (key,))
                if c:
                    clean[(int(ea), int(eq), int(et))] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms):
        # Only for a fresh dict, owned by no caller, of int triples -> nonzero ints.
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly3 is immutable")

    @staticmethod
    def zero():
        return Poly3()

    @staticmethod
    def one():
        return Poly3({(0, 0, 0): 1})

    @staticmethod
    def monomial(coeff, ea=0, eq=0, et=0):
        return Poly3({(ea, eq, et): coeff})

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly3.monomial(other)
        elif not isinstance(other, Poly3):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly3._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly3._trusted({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Poly3)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly3.monomial(other)
        elif not isinstance(other, Poly3):
            return NotImplemented
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        out = {}
        for (a1, q1, t1), c1 in small.items():
            for (a2, q2, t2), c2 in big.items():
                key = (a1 + a2, q1 + q2, t1 + t2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly3._trusted(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly3.monomial(other)
        elif not isinstance(other, Poly3):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "Poly3(%s)" % format_poly(self)

    def __str__(self):
        return format_poly(self)

    # -- interrogation ----------------------------------------------------

    def coeff(self, ea, eq, et):
        return self.terms.get((ea, eq, et), 0)

    def sorted_terms(self):
        """Terms in canonical (ea, eq, et) order."""
        return sorted(self.terms.items())

    def dimension(self):
        """Sum of absolute coefficients (total rank when self is a Poincare polynomial)."""
        return sum(abs(c) for c in self.terms.values())

    def exponent_range(self, axis):
        """(min, max) exponent on one of the axes 'a', 'q', 't'; None for 0."""
        if not self.terms:
            return None
        i = {"a": 0, "q": 1, "t": 2}[axis]
        exps = [key[i] for key in self.terms]
        return min(exps), max(exps)

    def is_nonnegative(self):
        return all(c > 0 for c in self.terms.values())

    def scale_monomial(self, coeff, ea=0, eq=0, et=0):
        """Multiply by coeff * a^ea q^eq t^et without building a Poly3 factor."""
        if not all(isinstance(x, int) for x in (coeff, ea, eq, et)):
            raise TypeError("scale_monomial needs int scalars, got %r" % ((coeff, ea, eq, et),))
        return Poly3._trusted(
            {(a + ea, q + eq, t + et): c * coeff for (a, q, t), c in self.terms.items() if coeff}
        )


def _as_signed_monomial(sub):
    """Normalize a substitution target to (sign, ea, eq, et).

    Accepts None / 1 (identity on that variable), an integer +-1, or a
    single-term Poly3 with coefficient +-1.
    """
    if sub is None:
        return None
    if isinstance(sub, int):
        if sub in (1, -1):
            return (sub, 0, 0, 0)
        raise ValueError("substitution constant must be +-1, got %r" % (sub,))
    if isinstance(sub, Poly3):
        if len(sub.terms) != 1:
            raise ValueError("substitution target must be a single signed monomial")
        (key, c), = sub.terms.items()
        if c not in (1, -1):
            raise ValueError("substitution coefficient must be +-1, got %r" % (c,))
        return (c, key[0], key[1], key[2])
    raise TypeError("cannot interpret %r as a signed monomial" % (sub,))


def monomial_substitute(p, sub_a=None, sub_q=None, sub_t=None):
    """Substitute signed monomials for the variables of p, exactly.

    Each of sub_a, sub_q, sub_t is either None (leave the variable alone),
    +-1, or a one-term Poly3 with coefficient +-1.  This covers every
    specialization the library needs: a = q^N, t = -1, a = 1, a = t^{-1},
    q -> q^{-1}, and the full mirror (a,q,t) -> (a^{-1},q^{-1},t^{-1}).
    """
    ma = _as_signed_monomial(sub_a) or (1, 1, 0, 0)
    mq = _as_signed_monomial(sub_q) or (1, 0, 1, 0)
    mt = _as_signed_monomial(sub_t) or (1, 0, 0, 1)
    out = {}
    for (ea, eq, et), c in p.terms.items():
        sign = ma[0] ** (ea % 2) * mq[0] ** (eq % 2) * mt[0] ** (et % 2)
        key = (
            ea * ma[1] + eq * mq[1] + et * mt[1],
            ea * ma[2] + eq * mq[2] + et * mt[2],
            ea * ma[3] + eq * mq[3] + et * mt[3],
        )
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            del out[key]
    return Poly3._trusted(out)


# Frequently used specializations.

def at_t_minus_one(p):
    """t = -1; sends a Poincare polynomial to its Euler characteristic."""
    return monomial_substitute(p, sub_t=-1)


def at_a_qN(p, n):
    """a = q^N (the sl(N) specialization)."""
    return monomial_substitute(p, sub_a=Poly3.monomial(1, 0, n, 0))


def at_a_one(p):
    return monomial_substitute(p, sub_a=1)


def at_a_inv_t(p):
    """a = t^{-1} (the regrading that exposes the Alexander-side gradings)."""
    return monomial_substitute(p, sub_a=Poly3.monomial(1, 0, 0, -1))


def mirror(p):
    """(a, q, t) -> (a^{-1}, q^{-1}, t^{-1}); mirror image of the knot."""
    return Poly3._trusted({(-a, -q, -t): c for (a, q, t), c in p.terms.items()})


def q_inverse(p):
    return monomial_substitute(p, sub_q=Poly3.monomial(1, 0, -1, 0))


def delta_spectrum(p):
    """{2*et - 2*ea - eq: sum of |coefficients|}, the doubled delta-gradings."""
    spectrum = {}
    for (ea, eq, et), c in p.terms.items():
        d2 = 2 * et - 2 * ea - eq
        spectrum[d2] = spectrum.get(d2, 0) + abs(c)
    return spectrum


# -- exact division -------------------------------------------------------

# Dense row entries one exact_divide call or HOMFLY division may build (T(35, 36): 63,700),
# terms one stable.geometric series may hold (stable --n 2 --qmax 10^6: 250,001), and
# term pairs a chain of truncated-series products may form (stable --n 2 --qmax 10^6: 500,004).
WORK_CAP = 10 ** 6


def _divide_rows(rows, e, steps):
    """Rows {base: (lo, row)} along e over prod (x^(g e) - c), (g, c) in steps.

    row[j] is the coefficient at base + (lo + j) e; e need not be primitive.
    Dividing by X^g - c solves q_j = c (q_{j-g} - r_j) up each residue class
    mod g as a running sum: exact iff the top g entries vanish.  Input lists
    are left unchanged, and the quotient goes in lex-greatest first."""
    e0, e1, e2 = e
    quo = []
    for (b0, b1, b2), (lo, row) in rows.items():
        row = list(row)
        for g, c in steps:
            for res in range(min(g, len(row))):
                row[res::g] = (accumulate(map(neg, row[res::g])) if c > 0
                               else accumulate(row[res::g], lambda q, r: r - q))
            if any(row[-g:]):  # also when the row is shorter than g
                raise NotDivisible("not divisible by x^%s %+d" % ((g * e0, g * e1, g * e2), -c))
            del row[-g:]
        quo += [((b0 + k * e0, b1 + k * e1, b2 + k * e2), x) for k, x in enumerate(row, lo) if x]
    quo.sort(reverse=True)
    return Poly3._trusted(dict(quo))


def exact_divide(p, d, *more):
    """Return r with r * d * more[0] * ... == p exactly, else raise NotDivisible.

    Every divisor must be a unit binomial +-x^w (x^(g e) - c), c = +-1, e
    primitive and lex-positive, else ValueError.  Along each e, p's terms go
    into a dense row per coset of Z e: k sits at pos = k_i // e_i, i the
    first axis with e_i != 0, in the row at base = k - pos e.  Past WORK_CAP
    entries in all, rows are only tested at the roots, X^g = c: NotDivisible
    unless each signed sum per residue class mod g vanishes, else TooLarge.
    """
    if not all(isinstance(x, Poly3) for x in (p, d) + more):
        raise TypeError("exact_divide needs Poly3 operands")
    groups, sign, w, built = {}, 1, (0, 0, 0), 0
    for f in (d,) + more:
        if len(f.terms) != 2 or any(c not in (1, -1) for c in f.terms.values()):
            raise ValueError("divisor %s is not a unit binomial" % format_poly(f))
        (fw, c0), (top, c1) = sorted(f.terms.items())
        g = gcd(*map(sub, top, fw))
        groups.setdefault(tuple((x - y) // g for x, y in zip(top, fw)), []).append((g, -c0 * c1))
        sign, w = sign * c1, tuple(map(add, w, fw))
    quo = Poly3._trusted({tuple(map(sub, k, w)): sign * c for k, c in p.terms.items()})
    for e, steps in groups.items():
        i = next(i for i, x in enumerate(e) if x)
        rows = {}
        for k, c in quo.terms.items():
            pos = k[i] // e[i]
            rows.setdefault((k[0] - pos * e[0], k[1] - pos * e[1], k[2] - pos * e[2]), {})[pos] = c
        built += sum(max(f) - min(f) + 1 for f in rows.values())
        if built > WORK_CAP:
            for g, c in steps:
                sums = {}
                for b, f in rows.items():
                    for pos, x in f.items():
                        sums[b, pos % g] = sums.get((b, pos % g), 0) + x * c ** (pos // g % 2)
                if any(sums.values()):
                    raise NotDivisible("not divisible by x^%s %+d" % (tuple(g * x for x in e), -c))
            raise TooLarge("division needs %d dense row entries, past %d" % (built, WORK_CAP))
        quo = _divide_rows({b: (min(f), [f.get(j, 0) for j in range(min(f), max(f) + 1)])
                            for b, f in rows.items()}, e, steps)
    return quo


# -- genus expansion ------------------------------------------------------

def _y_power(g):
    """y^g = q^{-2g} t^{-g} (1 + q^2 t)^{2g} as (dq, dt, coeff) rows, top q first."""
    return [(2 * j - 2 * g, j - g, comb(2 * g, j)) for j in range(2 * g, -1, -1)]


class YExpansion:
    """A polynomial rewritten in the basis a^Q t^i y^g, y = q^2 t + 2 + q^{-2} t^{-1}.

    coeffs maps (ea, et, g) with g >= 0 to a nonzero integer.  Expanding
    every basis monomial back into (a, q, t) reproduces the source
    polynomial exactly; see to_poly().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @property
    def g_max(self):
        """The holomorphic genus: the largest y-power in the expansion."""
        return max((g for (_, _, g) in self.coeffs), default=0)

    def to_poly(self):
        out = Poly3.zero()
        for (ea, et, g), c in sorted(self.coeffs.items()):
            out = out + Poly3({(ea, dq, et + dt): c * yc for dq, dt, yc in _y_power(g)})
        return out


def _y_check(p):
    """(top y-power, None) if p lies in the a, t, y span, else (None, its first bad term).

    The involution (ea, eq, et) -> (ea, -eq, et - eq) fixes every a^Q t^i y^g,
    and the y-powers are triangular by top |q|, so p lies in their span
    exactly when every q-exponent is even and each coefficient equals its
    image's.  The top y-power is then half the top q-exponent.
    """
    terms, top = p.terms, 0
    for (ea, eq, et), c in terms.items():
        if eq % 2:
            return None, "odd q-exponent %d cannot come from a power of y" % eq
        if terms.get((ea, -eq, et - eq)) != c:
            return None, ("coefficient at a^%d q^%d t^%d has no matching mirror partner"
                          % (ea, eq, et))
        top = max(top, eq)
    return top // 2, None


def y_rewrite(p):
    """Rewrite p as sum c * a^Q t^i y^g, or raise NotYExpressible with _y_check's fault.

    Down from the top q-exponent 2g, a term a^Q q^{2g} t^k can only come from
    a^Q t^{k-g} y^g = a^Q q^{-2g} t^{k-2g} (1 + q^2 t)^{2g}, whose top entry is
    the term itself.  p and every y^g are symmetric, so only the rows' q >= 0
    half below the top is subtracted, on one dict {(ea, et): coeff} per level.
    """
    genus, fault = _y_check(p)
    if fault:  # a broken q <-> q^{-1} symmetry, not a bug
        raise NotYExpressible(fault)
    levels = {2 * g: {} for g in range(genus + 1)}
    for (ea, eq, et), c in p.terms.items():
        if eq >= 0:
            levels[eq][ea, et] = c
    coeffs = {}
    for g in range(genus, -1, -1):
        row = [(levels[dq], dt - g, yc) for dq, dt, yc in _y_power(g)[1:g + 1]]
        for (ea, et), c in levels[2 * g].items():
            coeffs[ea, et - g, g] = c
            for level, dt, yc in row:
                s = level[ea, et + dt] = level.get((ea, et + dt), 0) - c * yc
                if not s:
                    del level[ea, et + dt]
    return YExpansion(coeffs)


def y_genus(p):
    """y_rewrite(p).g_max, or None where y_rewrite raises: _y_check's top y-power."""
    return _y_check(p)[0]


# -- HOMFLY sign test -------------------------------------------------------

def homfly_alternates(p):
    """One global sign eps with sign(coeff of a^{2i} q^{2j}) = eps * (-1)^j on every term.

    p is a two-variable HOMFLY polynomial: a t-dependent p raises
    ValueError, and an odd a- or q-exponent raises OddExponent.
    """
    if any(et != 0 for (_, _, et) in p.terms):
        raise ValueError("the HOMFLY sign test needs a t-free polynomial")
    eps = 0
    for (ea, eq, _), c in sorted(p.terms.items()):
        if ea % 2 or eq % 2:
            raise OddExponent("term a^%d q^%d has an odd exponent" % (ea, eq))
        sign = 1 if c > 0 else -1
        expected_wo_eps = (-1) ** (eq // 2)
        if eps == 0:
            eps = sign * expected_wo_eps
        elif sign != eps * expected_wo_eps:
            return False
    return True


# -- text round-trip ------------------------------------------------------

_VARIABLE_AXIS = {"a": 0, "q": 1, "t": 2}
_DIGITS = "[0-9]+"  # ASCII only: the other digits str.isdigit accepts are no integers here
_INT = re.compile("[-+]?" + _DIGITS)
_SPACE = re.compile(r"\s*")
# One term: an optional coefficient, then every factor.  "(?:\*\s*)?" rather than
# "\*?\s*" leaves one way to split a failed factor's whitespace, so it backtracks linearly.
_TERM = re.compile(r"\s*(%s)?((?:\s*(?:\*\s*)?[aqt](?:\^%s)?)*)" % (_DIGITS, _INT.pattern))
_FACTOR = re.compile(r"([aqt])(?:\^(%s))?" % _INT.pattern)


def _ascii_int(text):
    """int(text) for ASCII [-+]?[0-9]+ only, the integers parse_poly reads; else ValueError."""
    if not _INT.fullmatch(text):
        raise ValueError("not an ASCII integer: %r" % text)
    return int(text)


def format_poly(p):
    """Canonical text: terms sorted by (ea, eq, et), everything explicit.

    Example: 1*a^2*q^-2*t^0 + 1*a^2*q^2*t^2 + 1*a^4*q^0*t^3.  The output
    always re-parses to the same polynomial.
    """
    if not p.terms:
        return "0"
    pieces = []
    for (ea, eq, et), c in p.sorted_terms():
        try:
            body = "%d*a^%d*q^%d*t^%d" % (abs(c), ea, eq, et)
        except ValueError:
            msg = "coefficient at a^%d q^%d t^%d has too many digits" % (ea, eq, et)
            raise TooManyDigits(msg) from None
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def parse_poly(text):
    """Parse polynomial text; inverse of format_poly on canonical output.

    Grammar: poly := ['-'] term (('+'|'-') term)*; integer := [0-9]+;
    term := [integer] ('*'? factor)*; factor := ('a'|'q'|'t') ['^' integer].
    Whitespace is ignored, an omitted exponent means 1, an omitted
    coefficient means 1 (with the sign coming from the separator).
    _TERM reads each term whole; an error is read off where its match stopped.
    """
    pos = _SPACE.match(text).end()
    if pos == len(text):
        raise ParseError("empty input", 0)
    sign = 1
    if text[pos] == "-":
        sign, pos = -1, pos + 1
    terms = {}
    while True:
        m = _TERM.match(text, pos)
        digits, factors = m.groups()
        try:
            coeff = int(digits) if digits else 1
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError("integer has too many digits", m.start(1)) from None
        exps = [0, 0, 0]
        for var, e in _FACTOR.findall(factors):
            try:
                exps[_VARIABLE_AXIS[var]] += int(e) if e else 1
            except ValueError:  # as above; the exponents before it, shorter, hold no "^" + e
                raise ParseError("integer has too many digits",
                                 m.start(2) + factors.index("^" + e) + 1) from None
        end = m.end()
        pos = _SPACE.match(text, end).end()
        if factors.endswith(("a", "q", "t")) and text.startswith("^", end):
            raise ParseError("expected an integer", end + 1)
        if text.startswith("*", pos):
            raise ParseError("expected a factor after '*'", _SPACE.match(text, pos + 1).end())
        if digits is None and not factors:
            raise ParseError("expected a term", pos)
        key = (exps[0], exps[1], exps[2])
        s = terms.get(key, 0) + sign * coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        if pos == len(text):
            return Poly3._trusted(terms)
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-' between terms", pos)
        sign = 1 if text[pos] == "+" else -1
        pos += 1

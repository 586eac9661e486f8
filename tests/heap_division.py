"""The heap division by a general divisor, kept as the tests' reference.

The package divides only by unit binomials (laurent.exact_divide).  This
is the general routine it replaced, unchanged: the HOMFLY references of
test_torus.py divide by products of quantum integers with it, and the
binomial division is cross-checked against it on products of binomials.
Its one addition is STEP_CAP, shared with test_laurent's reference_exact_divide.
"""

from heapq import heapify, heappop, heappush
from itertools import product

from superpoly.laurent import NotDivisible, Poly3, TooLarge

# Most quotient terms a test division may produce, past which it raises
# TooLarge; the HOMFLY references of test_torus.py need up to 3,007.
STEP_CAP = 5000


def _check_leading_coefficients(p, d):
    """Raise NotDivisible unless each leading coefficient of p is divisible by d's.

    By Ostrowski's theorem, Newt(r d) = Newt(r) + Newt(d), so p = r d forces
    LT(p) = LT(r) LT(d) under every monomial order.  Checked in O(terms) under
    the lex orders on (sa a, sq q, st t) for all signs, the standard one first.
    """
    for sa, sq, st in product((1, -1), repeat=3):
        def order(k):
            return sa * k[0], sq * k[1], st * k[2]
        c, dc = p.terms[max(p.terms, key=order)], d.terms[max(d.terms, key=order)]
        if c % dc:
            raise NotDivisible("leading coefficient %d not divisible by %d" % (c, dc))


def exact_divide(p, d):
    """Return r with r * d == p exactly, else raise NotDivisible.

    Inputs failing _check_leading_coefficients are rejected in O(terms).
    Then term-driven elimination: the divisor's lexicographically greatest term
    is the leading term, and the top remaining term of the remainder is
    cancelled at each step, found in a max-heap with lazy deletion (Monagan
    and Pearce, "Sparse polynomial division using a heap", J. Symbolic
    Comput. 46, 2011).  For an exact quotient, the extreme monomials of a
    product cannot cancel, so the quotient's support lies in the box
    [min(p)-min(d), max(p)-max(d)]; a candidate term outside it proves
    non-divisibility, which also bounds the loop.  Hence every remainder
    key lies in p's box [min(p), max(p)], where it is packed into one
    mixed-radix int: the int order is the lex order, and a divisor term
    adds a fixed offset.  Popped keys are decoded and boxed on their true
    exponents, since a packed sum could wrap back into the box.  A
    quotient term past STEP_CAP raises TooLarge.
    """
    if not (isinstance(p, Poly3) and isinstance(d, Poly3)):
        raise TypeError("exact_divide needs two Poly3 operands")
    if not d.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return Poly3.zero()
    _check_leading_coefficients(p, d)
    d_lead = max(d.terms)
    d_lead_c = d.terms[d_lead]
    la, lq, lt = d_lead
    lo, hi = ([f(k[i] for k in p.terms) for i in range(3)] for f in (min, max))
    box_lo = [lo[i] - min(k[i] for k in d.terms) for i in range(3)]
    box_hi = [hi[i] - max(k[i] for k in d.terms) for i in range(3)]
    wt = hi[2] - lo[2] + 1
    wqt = (hi[1] - lo[1] + 1) * wt
    d_offsets = [((a - la) * wqt + (q - lq) * wt + t - lt, c) for (a, q, t), c in d.terms.items()]
    rem = {(a - lo[0]) * wqt + (q - lo[1]) * wt + t - lo[2]: c for (a, q, t), c in p.terms.items()}
    heap = [-k for k in rem]
    heapify(heap)
    quo = {}
    while rem:
        k = -heappop(heap)
        c = rem.get(k)
        if c is None:
            continue
        if c % d_lead_c:
            raise NotDivisible("leading coefficient %d not divisible by %d" % (c, d_lead_c))
        ka, kq = divmod(k, wqt)
        kq, kt = divmod(kq, wt)
        key = (lo[0] + ka - la, lo[1] + kq - lq, lo[2] + kt - lt)
        if any(key[i] < box_lo[i] or key[i] > box_hi[i] for i in range(3)):
            raise NotDivisible("no exact quotient (support escaped the feasible box)")
        if len(quo) == STEP_CAP:
            raise TooLarge("division needs more than %d quotient terms" % STEP_CAP)
        cq = c // d_lead_c
        quo[key] = cq
        for off, dc in d_offsets:
            k2 = k + off
            old = rem.get(k2)
            v = cq * dc
            if old is None:
                rem[k2] = -v
                heappush(heap, -k2)
            elif old == v:
                del rem[k2]
            else:
                rem[k2] = old - v
    return Poly3._trusted(quo)

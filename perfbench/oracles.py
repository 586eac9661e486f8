"""Independent reference computations used by the workload checks.

Everything here works on plain term dicts {(ea, eq, et): coeff} and plain
integer lists, so a check never depends on the library's own substitution
or division code to agree with itself.
"""


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


def euler(terms):
    """t = -1: {(ea, eq, 0): sum of (-1)^et * coeff}."""
    out = {}
    for (ea, eq, et), c in terms.items():
        key = (ea, eq, 0)
        out[key] = out.get(key, 0) + (-c if et % 2 else c)
    return _clean(out)


def a_to_q(terms, n):
    """a = q^N: {(0, eq + N*ea, et): coeff}."""
    out = {}
    for (ea, eq, et), c in terms.items():
        key = (0, eq + n * ea, et)
        out[key] = out.get(key, 0) + c
    return _clean(out)


def q_at_most(terms, qmax):
    """The terms whose q-exponent is at most qmax."""
    return {k: c for k, c in terms.items() if k[1] <= qmax}


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide(num, den):
    """Exact quotient of integer coefficient lists (lowest degree first)."""
    num = list(num)
    lead = den[-1]
    quo = [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], lead)
        if r:
            raise ArithmeticError("inexact division")
        quo[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("nonzero remainder")
    return quo


def _x_power_minus_one(k):
    return [-1] + [0] * (k - 1) + [1]


def alexander_torus(n, m):
    """Symmetrized Alexander polynomial of T(n, m) at x = q^2, as terms.

    (x^{nm} - 1)(x - 1) / ((x^n - 1)(x^m - 1)), a polynomial of degree
    (n-1)(m-1), shifted by x^{-(n-1)(m-1)/2}; returned as
    {(0, eq, 0): coeff}, the shape of a t-free polynomial at a = 1.
    """
    num = _mul(_x_power_minus_one(n * m), _x_power_minus_one(1))
    den = _mul(_x_power_minus_one(n), _x_power_minus_one(m))
    coeffs = _divide(num, den)
    half = (n - 1) * (m - 1) // 2
    return {(0, 2 * (i - half), 0): c for i, c in enumerate(coeffs) if c}

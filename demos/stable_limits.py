"""Stable large-index limits of the torus families.

The translated invariants converge coefficientwise; the limit has a
product formula realized by an explicit recursive block complex.  This
script materializes the complexes, reduces them, and measures how far the
finite knots agree with their limits.
"""

from superpoly.complexes import homology, verify
from superpoly.laurent import format_poly
from superpoly.stable import (
    TruncSeries,
    build_stable_complex,
    finite_vs_stable,
    stable_hfk,
    stable_khr2,
    stable_khr2_generic,
    stable_super,
)

print("Stable superpolynomial series, low terms:")
for n in (2, 3, 4):
    body = stable_super(n, 10).body
    print("  %d strands:" % n, format_poly(body))

print()
print("Materialized block complexes (cutoff 30):")
for n in (2, 3, 4, 5):
    c = build_stable_complex(n, 30)
    report = verify(c, max_eq=30 - 2 * n)
    match = c.poincare() == stable_super(n, 30).body
    hfk = TruncSeries(homology(c, 0).poincare, 30) == stable_hfk(n, 30)
    print(
        "  %d strands: %4d generators, axioms %s, series %s, Alexander reduction %s"
        % (n, len(c), "ok" if report.ok else "BROKEN",
           "ok" if match else "BROKEN", "ok" if hfk else "BROKEN")
    )

print()
print("Stable sl(2) series: closed form versus the maximal-rank generic reduction:")
for n in (2, 3, 4):
    series = stable_khr2(n, 30)  # raises if the two routes disagree
    head = sorted(series.body.terms)[:4]
    print("  %d strands agree; head %s" % (n, head))
print("  5 strands (no closed form), generic route only:")
print("   ", sorted(stable_khr2_generic(5, 18).body.terms)[:6])

print()
print("How far finite knots track their limit (q-degree windows):")
for m in (5, 9, 13):
    print("  T(2,%2d): agreement through q^%d (floor 2m = %d)"
          % (m, finite_vs_stable(2, m, "khr2"), 2 * m))
for m in (5, 8, 11):
    print("  T(3,%2d): agreement through q^%d (floor 2m = %d)"
          % (m, finite_vs_stable(3, m, "khr2"), 2 * m))

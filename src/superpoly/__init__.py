"""Exact computations in the triply graded knot homology framework.

The package computes superpolynomials of torus knots, builds the associated
dot complexes with their anticommuting differential family, reduces them to
the doubly graded sl(N) and Alexander-side theories, constructs the stable
large-torus-knot limits, and runs the structural consistency battery (thin
decompositions, pairing patterns, genus expansion, braid bounds) on a
bundled knot table.  Everything is exact: integer Laurent polynomials and
rational linear algebra, no floats.
"""

from .laurent import (
    NotDivisible,
    NotYExpressible,
    OddExponent,
    ParseError,
    Poly3,
    TooLarge,
    YExpansion,
    at_a_inv_t,
    at_a_one,
    at_a_qN,
    at_t_minus_one,
    exact_divide,
    format_poly,
    homfly_alternates,
    mirror,
    monomial_substitute,
    parse_poly,
    y_rewrite,
)
from .torus import (
    cp0_t3_closed,
    hfk_t2,
    homfly_torus,
    khrN_unreduced_prediction,
    khr2_t3_closed,
    super_t2,
    super_t3,
    super_torus,
    t3_reduction_terms,
    unreduce,
)
from .complexes import (
    DotComplex,
    GradingMismatch,
    NotCanceling,
    SurvivorOffLine,
    build_thin_complex,
    build_torus_complex,
    deserialize_complex,
    homology,
    mirror_complex,
    s_invariant,
    serialize_complex,
    verify,
)
from .stable import (
    GenericityMismatch,
    TruncSeries,
    build_stable_complex,
    finite_vs_stable,
    stable_beta_terms,
    stable_hfk,
    stable_homfly,
    stable_khr2,
    stable_super,
)
from .structchecks import (
    NoSurvivor,
    NotAlternating,
    NotDecomposable,
    ThinResult,
    derived_invariants,
    morton_check,
    pattern_minus,
    pattern_plus,
    thin_quotient_test,
    thin_super,
    three_step_pairing,
)
from .dataset import DatasetError, KnotRecord, load_dataset
from .render import render_svg, render_text

__version__ = "0.1.0"

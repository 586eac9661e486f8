"""The bundled knot table and its loader.

Rows are tab-separated:

    name  S  sigma  homfly  [khr2]  [hfk]  [superpoly]  [complex_file]

with '#' comments and optional columns left empty or omitted.  Polynomials
use the canonical text grammar; complex_file paths are resolved relative
to the table file.  The loader re-validates every row's internal
consistency on every load and refuses partial data: any violation in any
row fails the whole load, with one diagnostic per offending row.
"""

import os

from .laurent import _ascii_int, at_a_one, at_a_qN, at_t_minus_one, parse_poly, ParseError
from .complexes import deserialize_complex, ComplexParseError


class DatasetError(Exception):
    """Carries per-row diagnostics for a failed load."""

    def __init__(self, problems):
        super().__init__("\n".join(problems))
        self.problems = problems


class KnotRecord:
    def __init__(self, name, s_inv, sigma, homfly, khr2=None, hfk=None,
                 superpoly=None, complex_path=None):
        self.name = name
        self.s_inv = s_inv
        self.sigma = sigma
        self.homfly = homfly
        self.khr2 = khr2
        self.hfk = hfk
        self.superpoly = superpoly
        self.complex_path = complex_path

    def load_complex(self):
        if self.complex_path is None:
            return None
        with open(self.complex_path) as fh:
            return deserialize_complex(fh.read(), label=self.name)


def bundled_path():
    return os.path.join(os.path.dirname(__file__), "data", "knots.tsv")


def load_dataset(path=None):
    """Parse and validate a knot table; 'bundled' or None loads the bundled one.

    Checks per row: polynomial columns parse; the superpolynomial
    specializes to the two-variable polynomial at t = -1; the sl(2) column
    specializes to it at (a = q^2, t = -1); the Alexander-side column has
    the right Euler characteristic; a referenced complex file parses.
    """
    if path in (None, "bundled"):
        path = bundled_path()
    records = []
    problems = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    base = os.path.dirname(os.path.abspath(path))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 4:
            problems.append("line %d: need at least name, S, sigma, homfly" % lineno)
            continue
        name = cols[0].strip()

        def optional(i):
            if i < len(cols) and cols[i].strip():
                return cols[i].strip()
            return None

        try:
            s_inv = _ascii_int(cols[1].strip())
            sigma = _ascii_int(cols[2].strip())
            homfly = parse_poly(cols[3])
            khr2 = optional(4) and parse_poly(optional(4))
            hfk = optional(5) and parse_poly(optional(5))
            superpoly = optional(6) and parse_poly(optional(6))
        except (ValueError, ParseError) as exc:
            problems.append("line %d (%s): %s" % (lineno, name, exc))
            continue
        complex_path = optional(7)
        if complex_path is not None:
            complex_path = os.path.join(base, complex_path)
        rec = KnotRecord(name, s_inv, sigma, homfly, khr2, hfk, superpoly, complex_path)
        for problem in validate_record(rec):
            problems.append("line %d (%s): %s" % (lineno, name, problem))
        records.append(rec)
    if problems:
        raise DatasetError(problems)
    return records


def validate_record(rec):
    """Internal-consistency diagnostics for one record (empty list = clean)."""
    out = []
    if rec.superpoly is not None and at_t_minus_one(rec.superpoly) != rec.homfly:
        out.append("superpolynomial does not specialize to the t-free polynomial")
    if rec.khr2 is not None:
        if at_t_minus_one(rec.khr2) != at_a_qN(rec.homfly, 2):
            out.append("sl(2) column does not specialize to the a = q^2 slice")
    if rec.hfk is not None:
        euler = at_t_minus_one(rec.hfk)
        if euler != at_a_one(rec.homfly):
            out.append("Alexander-side column has the wrong Euler characteristic")
    if rec.complex_path is not None:
        try:
            rec.load_complex()
        except (OSError, ComplexParseError) as exc:
            out.append("complex file: %s" % exc)
    return out

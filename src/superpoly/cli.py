"""Command-line front end.

Subcommands produce canonical polynomial text on stdout so that every
output re-parses to the same value.  Exit status: 0 on success, 1 when a
check or verification fails, 2 on usage or parse errors (argparse's own
convention for bad arguments).
"""

import argparse
import functools
import sys

from .laurent import ParseError, format_poly, parse_poly
from .torus import homfly_torus, super_torus, torus_s_invariant, unreduce
from .structchecks import thin_super, StructureError
from .complexes import (ComplexError, ComplexParseError, build_torus_complex,
                        deserialize_complex, homology, verify)
from .stable import TruncSeries, build_stable_complex, stable_khr2, stable_super
from .render import render_svg, render_text
from .checks import run_battery


def _read_poly(text):
    if text == "-":
        text = sys.stdin.read()
    return parse_poly(text)


def _load_complex(path):
    with open(path) as fh:
        return deserialize_complex(fh.read())


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="superpoly",
        description="exact torus-knot homology computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homfly", help="two-variable polynomial of a torus knot")
    p_sub = p.add_subparsers(dest="family", required=True)
    pt = p_sub.add_parser("torus")
    pt.add_argument("n", type=int)
    pt.add_argument("m", type=int)
    pt.add_argument("--form", choices=("jones", "product"), default="product")

    p = sub.add_parser("super", help="superpolynomials")
    s_sub = p.add_subparsers(dest="family", required=True)
    st = s_sub.add_parser("torus")
    st.add_argument("n", type=int)
    st.add_argument("m", type=int)
    st.add_argument("--unreduced", action="store_true")
    sthin = s_sub.add_parser("thin")
    sthin.add_argument("--homfly", required=True, help="polynomial text or - for stdin")
    sthin.add_argument("--s", dest="s_inv", type=int, required=True)

    p = sub.add_parser("reduce", help="doubly graded reduction of a complex")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--torus", nargs=2, type=int, metavar=("N", "M"))
    src.add_argument("--complex", dest="complex_file")
    p.add_argument("--n", dest="level", type=int, required=True)

    p = sub.add_parser("stable", help="stable series and their reductions")
    p.add_argument("--n", dest="strands", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--reduce", dest="reduce_to", type=int, choices=(2, 0))

    p = sub.add_parser("check", help="run the consistency battery")
    p.add_argument("--dataset", default="bundled")
    p.add_argument("--only")

    p = sub.add_parser("render", help="draw a dot diagram")
    p.add_argument("--complex", dest="complex_file", required=True)
    p.add_argument("--format", choices=("text", "svg"), default="text")

    p = sub.add_parser("verify", help="check the axioms on a complex file")
    p.add_argument("--complex", dest="complex_file", required=True)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ComplexParseError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (StructureError, ComplexError) as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1


def _dispatch(args):
    if args.command == "homfly":
        print(format_poly(homfly_torus(args.n, args.m, args.form)))
        return 0
    if args.command == "super":
        if args.family == "torus":
            poly = super_torus(args.n, args.m)
            if args.unreduced:
                poly = unreduce(poly, torus_s_invariant(args.n, args.m))
            print(format_poly(poly))
        else:
            result = thin_super(_read_poly(args.homfly), args.s_inv)
            print(format_poly(result.superpoly))
        return 0
    if args.command == "reduce":
        if args.level < 0:
            raise ValueError("reductions are defined for N >= 0")
        if args.torus:
            c = build_torus_complex(args.torus[0], args.torus[1])
        else:
            c = _load_complex(args.complex_file)
        print(format_poly(homology(c, args.level).poincare))
        return 0
    if args.command == "stable":
        if args.reduce_to == 2:
            series = stable_khr2(args.strands, args.qmax)
        elif args.reduce_to == 0:
            c = build_stable_complex(args.strands, args.qmax)
            series = TruncSeries(homology(c, 0).poincare, args.qmax)
        else:
            series = stable_super(args.strands, args.qmax)
        sys.stdout.write(series.header_text())
        return 0
    if args.command == "check":
        return run_battery(args.dataset, only=args.only)
    if args.command == "render":
        c = _load_complex(args.complex_file)
        sys.stdout.write(render_text(c) if args.format == "text" else render_svg(c) + "\n")
        return 0
    if args.command == "verify":
        c = _load_complex(args.complex_file)
        report = verify(c)
        for line in report.lines():
            print(line)
        print("OK" if report.ok else "INVALID")
        return 0 if report.ok else 1
    raise ValueError("unhandled command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())

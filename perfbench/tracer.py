"""Per-layer spans for the traced run, recorded from the benchmark's side.

`Tracer.install()` replaces each traced library function by a wrapper in
every loaded module that holds it: `verify` calls `complexes.y_rewrite`,
a name imported from `laurent`, so wrapping `laurent.y_rewrite` alone would
miss it.  Only calls made while `active` is set are recorded, which keeps
the checks and their reference computations out of the spans.  Spans stay
in flat arrays until the run ends.

A layer's self time is its span time minus the time of its child spans.
Size counts that have to be computed (composite paths, homology blocks)
are recorded as overhead spans, children of the caller's span, so that
the bookkeeping does not show up as the caller's self time.

The untraced run never imports this module, so it runs unwrapped code.
"""

import functools
import gzip
import inspect
import sys
import time
from array import array

OVERHEAD = -1


# -- size counts taken from the arguments or the result ---------------------

def _terms_in(p, *args, **kwargs):
    return len(p.terms), 0


def _term_pairs(a, b, *args, **kwargs):
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1), 0


def _paths(c, *args, **kwargs):
    """Length-two composites verify walks: sum over generators of in * out degree."""
    indeg = {}
    outdeg = {}
    for entries in c.diffs.values():
        for (s, d, _) in entries:
            outdeg[s] = outdeg.get(s, 0) + 1
            indeg[d] = indeg.get(d, 0) + 1
    return sum(n * outdeg.get(g, 0) for g, n in indeg.items()), 0


def _blocks(c, n, *args, **kwargs):
    """(rank matrices, largest matrix side) of homology(c, n), by its grading rule."""
    if n < 0:
        return 0, 0
    if n >= 1:
        key_of = lambda g: (n * g[0] + g[1], g[2])  # noqa: E731
    else:
        key_of = lambda g: (g[1], g[2] - g[0])  # noqa: E731
    size = {}
    for g in c.generators:
        k = key_of(g)
        size[k] = size.get(k, 0) + 1
    sources = {key_of(c.generators[s]) for (s, _, _) in c.diffs.get(n, [])}
    largest = max(
        (max(size[k], size.get((k[0], k[1] - 1), 0)) for k in sources), default=0
    )
    return len(sources), largest


def _complex_size(c):
    return len(c.generators), sum(len(e) for e in c.diffs.values())


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def layer_table():
    """(layer, owner, attribute names, argument sizes, result sizes)."""
    from superpoly import (
        checks,
        cli,
        complexes,
        dataset,
        laurent,
        render,
        stable,
        structchecks,
        torus,
    )

    return [
        ("laurent.y_rewrite", laurent, ["y_rewrite"], _terms_in, None),
        ("laurent.mul", laurent.Poly3, ["__mul__", "__rmul__"], _term_pairs, None),
        ("laurent.exact_divide", laurent, ["exact_divide"], None, None),
        ("laurent.substitute", laurent,
         ["monomial_substitute", "at_t_minus_one", "at_a_qN", "at_a_one",
          "at_a_inv_t", "mirror", "q_inverse"], None, None),
        ("laurent.text", laurent, ["parse_poly", "format_poly"], None, None),
        ("torus.homfly", torus, ["homfly_torus"], None, None),
        ("complexes.verify", complexes, ["verify"], _paths, None),
        ("complexes.homology", complexes, ["homology"], _blocks, None),
        ("complexes.build", complexes,
         ["build_torus_complex", "build_thin_complex", "complex_from_arrows",
          "mirror_complex", "deserialize_complex"], None, _complex_size),
        ("complexes.s_invariant", complexes, ["s_invariant"], None, None),
        ("stable.build", stable, ["build_stable_complex"], None, _complex_size),
        ("stable.generic", stable, ["stable_khr2_generic"], None, None),
        ("stable.series", stable,
         ["stable_super", "stable_homfly", "stable_hfk", "geometric",
          "stable_khr2_closed", "stable_khr2", "finite_vs_stable"], None, None),
        ("dataset.load", dataset, ["load_dataset"], None, None),
        ("checks.battery", checks, ["run_battery"], None, None),
        ("structchecks", structchecks, _public_functions(structchecks), None, None),
        ("render", render, ["render_text", "render_svg"], None, None),
        ("cli.main", cli, ["main"], None, None),
    ]


# Per-layer metrics: (metric, layer, field, unit).  Fields: self_s, calls,
# size_a (sum of the first size), size_b (sum of the second), max_b.
METRICS = [
    ("laurent.y_rewrite.self_s", "laurent.y_rewrite", "self_s", "s"),
    ("laurent.y_rewrite.calls", "laurent.y_rewrite", "calls", "count"),
    ("laurent.y_rewrite.terms_in", "laurent.y_rewrite", "size_a", "count"),
    ("laurent.mul.self_s", "laurent.mul", "self_s", "s"),
    ("laurent.mul.calls", "laurent.mul", "calls", "count"),
    ("laurent.mul.term_pairs", "laurent.mul", "size_a", "count"),
    ("laurent.exact_divide.self_s", "laurent.exact_divide", "self_s", "s"),
    ("laurent.exact_divide.calls", "laurent.exact_divide", "calls", "count"),
    ("laurent.substitute.self_s", "laurent.substitute", "self_s", "s"),
    ("laurent.text.self_s", "laurent.text", "self_s", "s"),
    ("torus.homfly.self_s", "torus.homfly", "self_s", "s"),
    ("complexes.verify.self_s", "complexes.verify", "self_s", "s"),
    ("complexes.verify.calls", "complexes.verify", "calls", "count"),
    ("complexes.verify.paths", "complexes.verify", "size_a", "count"),
    ("complexes.homology.self_s", "complexes.homology", "self_s", "s"),
    ("complexes.homology.calls", "complexes.homology", "calls", "count"),
    ("complexes.blocks", "complexes.homology", "size_a", "count"),
    ("complexes.largest_block", "complexes.homology", "max_b", "count"),
    ("complexes.build.self_s", "complexes.build", "self_s", "s"),
    ("complexes.s_invariant.self_s", "complexes.s_invariant", "self_s", "s"),
    ("complexes.generators", "complexes.build", "size_a", "count"),
    ("complexes.arrows", "complexes.build", "size_b", "count"),
    ("stable.build.self_s", "stable.build", "self_s", "s"),
    ("stable.words", "stable.build", "size_a", "count"),
    ("stable.generic.self_s", "stable.generic", "self_s", "s"),
    ("stable.generic.calls", "stable.generic", "calls", "count"),
    ("stable.series.self_s", "stable.series", "self_s", "s"),
    ("dataset.load.self_s", "dataset.load", "self_s", "s"),
    ("checks.battery.self_s", "checks.battery", "self_s", "s"),
    ("structchecks.self_s", "structchecks", "self_s", "s"),
    ("render.self_s", "render", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


class Tracer:
    """Wrappers plus the span arrays they fill."""

    def __init__(self):
        self.names = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size_a = array("q")
        self.size_b = array("q")
        self.stack = [-1]
        self.active = False
        self.rounds = []
        self._undo = []

    def _record(self, lid, parent, start, end, a, b):
        self.layer.append(lid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.size_a.append(a)
        self.size_b.append(b)
        return len(self.layer) - 1

    def _wrap(self, fn, lid, arg_sizes, result_sizes):
        clock = time.perf_counter
        stack = self.stack
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            a = b = 0
            if arg_sizes is not None:
                t = clock()
                a, b = arg_sizes(*args, **kwargs)
                record(OVERHEAD, parent, t, clock(), 0, 0)
            idx = record(lid, parent, 0.0, 0.0, a, b)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.start[idx] = start
                self.end[idx] = end
            if result_sizes is not None and (parent < 0 or self.layer[parent] != lid):
                t = clock()
                self.size_a[idx], self.size_b[idx] = result_sizes(result)
                record(OVERHEAD, parent, t, clock(), 0, 0)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a loaded module or class holds it."""
        wrappers = {}
        targets = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for lid, (name, owner, attrs, arg_sizes, result_sizes) in enumerate(layer_table()):
            self.names.append(name)
            if isinstance(owner, type):
                targets.append(owner)
            for attr in attrs:
                fn = vars(owner)[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, lid, arg_sizes, result_sizes)
        for target in targets:
            for attr, value in list(vars(target).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(target, attr, wrapper)
                    self._undo.append((target, attr, value))

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def begin_round(self):
        self.rounds.append(len(self.layer))

    def round_totals(self):
        """Per round, {layer: {self_s, calls, size_a, size_b, max_b}} plus overhead seconds."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        bounds = self.rounds + [n]
        out = []
        for r in range(len(self.rounds)):
            totals = {
                name: {"self_s": 0.0, "calls": 0, "size_a": 0, "size_b": 0, "max_b": 0}
                for name in self.names
            }
            overhead = 0.0
            for i in range(bounds[r], bounds[r + 1]):
                lid = self.layer[i]
                span = self.end[i] - self.start[i]
                if lid == OVERHEAD:
                    overhead += span
                    continue
                t = totals[self.names[lid]]
                t["self_s"] += span - child[i]
                t["calls"] += 1
                t["size_a"] += self.size_a[i]
                t["size_b"] += self.size_b[i]
                t["max_b"] = max(t["max_b"], self.size_b[i])
            out.append((totals, overhead))
        return out

    def write(self, path):
        """All spans as gzip'd TSV: index, parent, layer, start, end, size_a, size_b."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tparent\tlayer\tstart\tend\tsize_a\tsize_b\n")
            for i in range(len(self.layer)):
                lid = self.layer[i]
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, self.parent[i], self.names[lid] if lid >= 0 else "overhead",
                    self.start[i], self.end[i], self.size_a[i], self.size_b[i]))

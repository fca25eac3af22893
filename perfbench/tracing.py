"""Per-layer tracing by wrapping the package's public names from outside.

A Tracer replaces each traced callable where callers look it up (a class
attribute, or every module global of the package bound to the function)
with a wrapper that times the call and keeps:

* per name: calls, self time (span duration minus the time of child
  spans) and, for a few names, a count taken from the arguments or the
  result;
* a span record (name, root id, parent span, start, end) for the suites,
  set-up steps, serialization and the CLI.  Ring, exterior and operator
  calls (one poisson-base round makes 1.5 million ring products and
  600 thousand operator calls) are folded into the per-name totals only.

Every call that starts with an empty stack opens a new root id, so each
suite or decision called by the benchmark gets its own id.  ``restore``
puts back the exact objects that were replaced.
"""

from __future__ import annotations

import json
import sys
import time

MARK = "_perfbench_traced"

# Names whose spans are recorded one by one.
SPAN_NAMES = ("algebroid.validate", "pair.modular_cocycles", "pair.probes", "pair.construct",
              "pair.suites", "constructions.build", "constructions.poisson_data",
              "serialize.pair_from_json", "serialize.other", "cli.main")


def _element_key(element):
    return tuple(sorted((ix, tuple(sorted(p.terms.items())))
                        for ix, p in element.terms.items()))


def _mul_hook(stat, args, result):
    left, right = args
    stat[2] += len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)
    stat[3] += len(result.terms)


def _zero_hook(stat, args, result):
    if not result.terms:
        stat[2] += 1


def _distinct_hook(position):
    def hook(stat, args, result):
        stat[4].add((type(args[position]).__name__, _element_key(args[position])))
    return hook


def _probe_hook(stat, args, result):
    stat[2] += len(result)


def targets(bg):
    """(metric name, owner, attribute names, hook) for every traced callable.

    ``bg`` is the imported ``bialgebroid`` package.  Function owners are
    modules: the wrapper is installed wherever the package binds the
    function.  Class owners get the wrapper as a class attribute.
    """
    ring, ext, alg = bg.ring, bg.exterior, bg.algebroid
    pair, con, ser, cli = bg.pair, bg.constructions, bg.serialize, bg.cli
    Poly, Graded, Alg = ring.Polynomial, ext.GradedElement, alg.AlgebroidStructure
    return [
        ("ring.mul", Poly, ("__mul__", "__rmul__"), _mul_hook),
        ("ring.add", Poly, ("__add__", "__radd__"), None),
        ("ring.sub", Poly, ("__sub__", "__rsub__"), None),
        ("ring.neg", Poly, ("__neg__",), None),
        ("ring.eq", Poly, ("__eq__",), None),
        ("ring.diff", Poly, ("diff",), None),
        ("ring.parse", Poly, ("parse",), None),
        ("exterior.wedge", Graded, ("wedge",), _zero_hook),
        ("exterior.interior", ext, ("_interior",), None),
        ("exterior.add", Graded, ("__add__",), None),
        ("exterior.scaled", Graded, ("scaled",), None),
        ("exterior.eq", Graded, ("__eq__",), None),
        ("algebroid.schouten", Alg, ("schouten",), _zero_hook),
        ("algebroid.differential", Alg, ("differential",), _distinct_hook(1)),
        ("algebroid.lie_derivative", Alg, ("lie_derivative",), None),
        ("algebroid.bv_boundary", alg, ("bv_boundary",), None),
        ("algebroid.validate", alg, ("validate_algebroid",), None),
        ("pair.dirac_apply", pair, ("dirac_apply",), _distinct_hook(1)),
        ("pair.laplacian", pair, ("laplacian",), None),
        ("pair.dorfman", pair, ("dorfman",), None),
        ("pair.modular_cocycles", pair, ("modular_cocycles",), None),
        ("pair.probes", pair, ("_graded_probes", "degree1_multivector_probes",
                               "degree1_form_probes"), _probe_hook),
        ("pair.construct", pair.BialgebroidPair, ("__init__",), None),
        ("pair.suites", pair, ("dirac_square", "is_lie_bialgebroid", "generator_check",
                               "theorem_c_suite", "corollary_suite", "courant_axioms"), None),
        ("constructions.build", con, ("poisson_double", "a_plus_b", "exact_from_bivector",
                                      "tangent_algebroid", "exact_identities",
                                      "poisson_homology_check", "pn_hierarchy",
                                      "pn_identities"), None),
        ("constructions.poisson_data", con.PoissonManifoldData, ("__init__",), None),
        ("serialize.pair_from_json", ser, ("pair_from_json",), None),
        ("serialize.other", ser, ("pair_to_json", "document_to_structures",
                                  "algebroid_from_json"), None),
        ("cli.main", cli, ("main",), None),
    ]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bialgebroid" or name.startswith("bialgebroid."))]


class Tracer:
    """Installs timing wrappers, collects spans and totals, and removes them."""

    def __init__(self, bg):
        self.bg = bg
        self.stats = {}
        self.spans = []
        self.roots = 0
        self._stack = []
        self._saved = []

    # -- installing and removing ------------------------------------------------

    def install(self):
        modules = package_modules()
        for name, owner, attrs, hook in targets(self.bg):
            stat = self.stats.setdefault(name, [0, 0.0, 0, 0, set()])
            record = name in SPAN_NAMES
            for attr in attrs:
                if isinstance(owner, type):
                    self._wrap_class_attr(owner, attr, name, stat, record, hook)
                else:
                    self._wrap_function(modules, getattr(owner, attr), name, stat, record, hook)
        return self

    def _wrap_class_attr(self, cls, attr, name, stat, record, hook):
        original = cls.__dict__[attr]
        # __mul__ and __rmul__ (and the like) are one function: wrap it once
        for owner, other_attr, other_original, wrapped in self._saved:
            if owner is cls and other_original is original:
                setattr(cls, attr, wrapped)
                self._saved.append((cls, attr, original, wrapped))
                return
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrapper(original.__func__, name, stat, record, hook))
        else:
            wrapped = self._wrapper(original, name, stat, record, hook)
        setattr(cls, attr, wrapped)
        self._saved.append((cls, attr, original, wrapped))

    def _wrap_function(self, modules, fn, name, stat, record, hook):
        wrapped = self._wrapper(fn, name, stat, record, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._saved.append((module, key, fn, wrapped))

    def restore(self):
        while self._saved:
            owner, attr, original, _wrapped = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- the wrapper ----------------------------------------------------------------

    def _wrapper(self, fn, name, stat, record, hook):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                tracer.roots += 1
            parent = stack[-1][1] if stack else -1
            if record:
                own = len(spans)
                spans.append(None)
            else:
                own = parent
            frame = [0.0, own]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                stat[0] += 1
                stat[1] += span - frame[0]
                if stack:
                    stack[-1][0] += span
                if record:
                    spans[own] = (name, tracer.roots, parent, start, end)
            if hook is not None:
                hook(stat, args, result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results --------------------------------------------------------------------

    def self_time(self, prefix=""):
        return sum(s[1] for name, s in self.stats.items() if name.startswith(prefix))

    def write_spans(self, path):
        """Write the kept spans as JSON lines, one per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, root, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "root": root, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")


def leftover_wrappers():
    """Every (owner, attribute) of the package that still holds a wrapper."""
    found = []
    for module in package_modules():
        for key, value in vars(module).items():
            if getattr(value, MARK, None) is not None:
                found.append((module.__name__, key))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, MARK, None) is not None:
                        found.append((value.__qualname__, attr))
    return found

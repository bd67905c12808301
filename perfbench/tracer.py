"""Per-layer tracing of mfkit from outside the package.

``Tracer.install`` replaces mfkit's public functions with wrappers wherever
callers look them up: in the defining module, in every mfkit module that
imported the name (``homs`` binds ``nullspace``, ``catalog`` binds
``hom_space``) and in the package namespace.  Methods are wrapped on their
class.  Spans record name, start, end, parent span and op id and stay in
memory until ``write`` dumps them; a span's self time is its duration minus
the durations of the wrapped calls made inside it.  Hot leaf calls (field
arithmetic, polynomial products, Gröbner reductions) are counted without
spans.  Tracing is only ever installed in a process that is about to exit.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> the functions it times, as "module:attribute" or "module:Class.method"
SPANS = {
    "poly.parse": ["poly:parse_poly"],
    "linalg.add": ["linalg:RowSpace.add"],
    "linalg.nullspace": ["linalg:nullspace"],
    "homs.hom_space": ["homs:hom_space"],
    "homs.strict_rows": ["homs:HomProblem.strict_rows"],
    "homs.boundary_vectors": ["homs:HomProblem.boundary_vectors"],
    "homs.twist_functor": ["homs:twist_functor", "homs:inverse_twist_functor"],
    "homs.cone": ["homs:cone_mf"],
    "homs.iso": ["homs:is_stably_isomorphic"],
    "mf.verify": ["mf:verify_mf"],
    "mf.reduce": ["mf:reduce_mf"],
    "mf.extract": ["mf:extract_mf"],
    "groebner.buchberger": ["groebner:buchberger"],
    "groebner.mingens": ["groebner:mingens"],
    "resolutions.minimal_resolution": ["resolutions:minimal_resolution"],
    "resolutions.minimize": ["resolutions:minimize_presentation"],
    "resolutions.hom_presentation": ["resolutions:hom_presentation"],
    "resolutions.hilbert": ["resolutions:hilbert_function"],
    "catalog.catalog_mf": ["catalog:catalog_mf"],
    "catalog.picard": ["catalog:picard_tensor"],
    "catalog.ar_middle": ["catalog:ar_middle"],
    "io.to_dict": ["io:mf_to_dict", "io:catalog_entry_dict"],
    "io.from_dict": ["io:mf_from_dict"],
}

# per-layer metric -> (unit, better); every value is per traced pass except ratios
PER_LAYER = {
    "fields.calls": ("count", "lower"),
    "poly.mul_calls": ("count", "lower"),
    "poly.mul_term_products": ("count", "lower"),
    "poly.parse_s": ("s", "lower"),
    "poly.det_calls": ("count", "lower"),
    "linalg.add_calls": ("count", "lower"),
    "linalg.add_s": ("s", "lower"),
    "linalg.useful_ratio": ("ratio", "higher"),
    "linalg.nullspace_calls": ("count", "lower"),
    "linalg.nullspace_s": ("s", "lower"),
    "linalg.nullspace_cols": ("count", "lower"),
    "linalg.rank_total": ("count", "lower"),
    "homs.hom_space_calls": ("count", "lower"),
    "homs.hom_space_s": ("s", "lower"),
    "homs.unknowns": ("count", "lower"),
    "homs.equations": ("count", "lower"),
    "homs.boundary_vectors": ("count", "lower"),
    "homs.strict_rows_s": ("s", "lower"),
    "homs.boundary_vectors_s": ("s", "lower"),
    "homs.basis_morphisms": ("count", "lower"),
    "homs.twist_functor_s": ("s", "lower"),
    "homs.cone_s": ("s", "lower"),
    "homs.iso_calls": ("count", "lower"),
    "homs.iso_s": ("s", "lower"),
    "homs.iso_candidates_built": ("count", "lower"),
    "mf.verify_calls": ("count", "lower"),
    "mf.verify_s": ("s", "lower"),
    "mf.reduce_calls": ("count", "lower"),
    "mf.reduce_s": ("s", "lower"),
    "mf.summands_split": ("count", "lower"),
    "mf.extract_s": ("s", "lower"),
    "groebner.buchberger_calls": ("count", "lower"),
    "groebner.buchberger_s": ("s", "lower"),
    "groebner.basis_size": ("count", "lower"),
    "groebner.reductions": ("count", "lower"),
    "groebner.zero_reductions": ("count", "lower"),
    "groebner.mingens_s": ("s", "lower"),
    "resolutions.minimal_resolution_s": ("s", "lower"),
    "resolutions.minimize_s": ("s", "lower"),
    "resolutions.hom_presentation_s": ("s", "lower"),
    "resolutions.hilbert_calls": ("count", "lower"),
    "resolutions.hilbert_s": ("s", "lower"),
    "catalog.catalog_mf_s": ("s", "lower"),
    "catalog.picard_s": ("s", "lower"),
    "catalog.ar_middle_s": ("s", "lower"),
    "io.to_dict_s": ("s", "lower"),
    "io.from_dict_s": ("s", "lower"),
    "io.envelope_bytes": ("B", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def _rank_drop(args, kwargs, result):
    return args[0].rank - result.rank


def _nullity_rank(args, kwargs, result):
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return ncols - len(result)


# span name -> counters bumped from each call's arguments and result
HOOKS = {
    "linalg.add": [("linalg.useful_adds", lambda a, k, r: r is not None)],
    "linalg.nullspace": [
        ("linalg.nullspace_cols", lambda a, k, r: a[1] if len(a) > 1 else k["ncols"]),
        ("linalg.rank_total", _nullity_rank),
    ],
    "homs.hom_space": [
        ("homs.unknowns", lambda a, k, r: len(r.problem.slots)),
        ("homs.basis_morphisms", lambda a, k, r: len(r.strict_basis)),
    ],
    "homs.strict_rows": [("homs.equations", lambda a, k, r: len(r))],
    "homs.boundary_vectors": [("homs.boundary_vectors", lambda a, k, r: len(r))],
    "mf.reduce": [("mf.summands_split", _rank_drop)],
    "groebner.buchberger": [("groebner.basis_size", lambda a, k, r: len(r))],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent span index, op id)
        self.stack: list = []  # open frames: [span index, time of wrapped children]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cells: dict[str, list] = {}  # span-free counters, one-element lists
        self.op = -1
        self.iso_depth = 0

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        hooks = HOOKS.get(name, ())
        spans, stack, self_s, calls, counts = (
            self.spans, self.stack, self.self_s, self.calls, self.counts
        )
        is_iso = name == "homs.iso"
        tracer = self

        def wrapped(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            if is_iso:
                tracer.iso_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if is_iso:
                    tracer.iso_depth -= 1
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (nid, t0, t1, parent, tracer.op)
            for key, fn_hook in hooks:
                counts[key] += fn_hook(args, kwargs, result)
            return result

        return wrapped

    def _counter(self, name: str, fn, extra=None):
        cell = self.cells.setdefault(name, [0])

        if extra is None:

            def wrapped(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return wrapped

        def wrapped_extra(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            extra(args, result)
            return result

        return wrapped_extra

    # -- installation -------------------------------------------------------
    def install(self, mk) -> None:
        """Wrap the layers of the freshly imported package ``mk``."""
        modules = [m for n, m in sys.modules.items() if n == "mfkit" or n.startswith("mfkit.")]
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(modules, target, lambda fn, n=name: self._span(n, fn))

        for meth in ("add", "sub", "mul", "neg", "inv", "div"):
            self._patch(modules, f"fields:Field.{meth}", lambda fn: self._counter("fields.calls", fn))

        terms = self.cells.setdefault("poly.mul_term_products", [0])
        poly_cls = mk.poly.Poly

        def term_products(args, result):
            if isinstance(args[1], poly_cls):
                terms[0] += len(args[0].terms) * len(args[1].terms)

        self._patch(modules, "poly:Poly.__mul__", lambda fn: self._counter("poly.mul_calls", fn, term_products))
        self._patch(modules, "poly:GradedMatrix.det", lambda fn: self._counter("poly.det_calls", fn))

        zeros = self.cells.setdefault("groebner.zero_reductions", [0])

        def zero_reduction(args, result):
            if not result:
                zeros[0] += 1

        self._patch(modules, "groebner:reduce_vec", lambda fn: self._counter("groebner.reductions", fn, zero_reduction))

        built = self.cells.setdefault("homs.iso_candidates_built", [0])

        def count_candidates(fn):
            def wrapped(*args, **kwargs):
                if self.iso_depth:  # iso candidates are sums of scaled basis morphisms
                    built[0] += 1
                return fn(*args, **kwargs)

            return wrapped

        self._patch(modules, "homs:scale_morphism", count_candidates)

    @staticmethod
    def _patch(modules, target: str, make) -> None:
        modname, attr = target.split(":")
        home = sys.modules["mfkit." + modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # -- results ------------------------------------------------------------
    def metrics(self, passes: int, envelope_bytes: int) -> dict:
        """Per-pass per-layer values for the names in PER_LAYER (trace.* excluded)."""
        per = {}
        for name in SPANS:
            per[name + "_s"] = self.self_s[name] / passes
            per[name + "_calls"] = self.calls[name] / passes
        for key, value in self.counts.items():
            per[key] = value / passes
        for key, cell in self.cells.items():
            per[key] = cell[0] / passes
        per["io.envelope_bytes"] = envelope_bytes / passes
        adds = self.calls["linalg.add"]
        per["linalg.useful_ratio"] = self.counts["linalg.useful_adds"] / adds if adds else 0.0
        return {k: per.get(k, 0) for k in PER_LAYER if not k.startswith("trace.")}

    def write(self, path, header: dict) -> None:
        """One JSON header line with the span names, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, names=self.names, fields=["name", "start", "end", "parent", "op"])) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

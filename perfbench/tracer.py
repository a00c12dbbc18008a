"""Span tracing of latsym from outside, for the benchmark's traced runs.

`Tracer.install` replaces the traced functions and methods of latsym's
modules with timing wrappers, and `uninstall` puts the originals back; the
program itself carries no tracing code.  A wrapper records a span (name,
start, end, parent span, input) and counts at the same boundary.  Spans
of the functions in COUNTED are timed and counted but not stored, since
they run thousands of times per input.  A layer's self time is the time
its spans cover minus the time their child spans cover; time in helpers
that are not wrapped counts towards the layer of the span that called them.
"""

import functools
import json
import time
from collections import defaultdict

# layer -> names to wrap; "Class.attr" is a method of a class of the module
SPANNED = {
    "cli": ["main"],
    "isometry": ["report", "order_of", "in_O_plus", "disc_order",
                 "invariant_coinvariant", "reflection", "isometry_from_json"],
    "walls": ["coinvariant_wall_scan", "short_vectors"],
    "discform": ["induced_disc_isometry", "full_reflection_group",
                 "kernel_and_radical", "group_from_generators",
                 "FiniteIsometryGroup.order", "FiniteIsometryGroup.orbits",
                 "FiniteIsometryGroup.quotient_order",
                 "FiniteIsometryGroup.is_central", "FqmIsometry.order"],
    "genus": ["genus_symbol", "canonical_string", "genus_equal"],
    "lattice": ["Lattice.__init__", "lattice_from_json", "orthogonal_complement",
                "build_named"],
    "intmat": ["smith_normal_form", "kernel_basis", "symmetric_signature", "det",
               "frac_det"],
    "fixtures": ["load_table"],
}
COUNTED = {
    "lattice": ["Lattice.inner"],
    "intmat": ["mat_mul"],
    "walls": ["wall_class"],
    "discform": ["transvection", "discriminant_form"],
    "genus": ["parse_genus"],
}
# span names as metrics spell them
ALIASES = {"discform.FiniteIsometryGroup.order": "discform.group_order",
           "lattice.Lattice.__init__": "lattice.Lattice",
           "lattice.Lattice.inner": "lattice.inner"}

LAYERS = ("cli", "isometry", "walls", "discform", "genus", "lattice", "intmat",
          "fixtures")
TIMED = ("isometry.order_of", "isometry.in_O_plus", "isometry.disc_order",
         "isometry.invariant_coinvariant", "isometry.isometry_from_json",
         "walls.coinvariant_wall_scan", "walls.short_vectors",
         "discform.induced_disc_isometry", "genus.genus_symbol", "genus.canonical_string", "genus.genus_equal",
         "lattice.Lattice", "lattice.lattice_from_json",
         "lattice.orthogonal_complement", "intmat.smith_normal_form",
         "intmat.kernel_basis", "intmat.symmetric_signature", "intmat.det",
         "intmat.frac_det", "fixtures.load_table")
CALLED = ("isometry.order_of", "isometry.in_O_plus", "walls.wall_class",
          "discform.induced_disc_isometry", "discform.discriminant_form", "genus.genus_symbol",
          "genus.parse_genus", "lattice.inner", "intmat.smith_normal_form",
          "intmat.mat_mul", "fixtures.load_table")
# figures that only monodromy moves, so they are left out of the listed
# workloads' output, where they read 0
MONODROMY_TIMED = ("isometry.reflection", "discform.group_order",
                   "discform.full_reflection_group")
MONODROMY_CALLED = ("discform.transvection",)


class Tracer:
    """Wrappers, open-span stack and per-name totals of one traced run."""

    def __init__(self):
        self.spans = []         # [id, parent id, name, start, end, input]
        self.stack = []         # open frames: [child seconds, span id]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)   # outermost calls only
        self.depth = defaultdict(int)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.item = None
        self.saved = []

    def install(self, modules):
        """Wrap the traced names of the given {layer: module} map.

        A name the program no longer has raises LookupError, naming every
        such name: its figures would read 0, which is no measurement.
        """
        missing = []
        for table, store in ((SPANNED, True), (COUNTED, False)):
            for layer, names in table.items():
                for dotted in names:
                    owner = modules[layer]
                    *cls, attr = dotted.split(".")
                    if cls:
                        owner = getattr(owner, cls[0], None)
                    original = getattr(owner, "__dict__", {}).get(attr)
                    if original is None:
                        missing.append("%s.%s" % (layer, dotted))
                        continue
                    name = ALIASES.get("%s.%s" % (layer, dotted),
                                       "%s.%s" % (layer, dotted))
                    self.saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, layer, name, store))
        if missing:
            self.uninstall()
            raise LookupError("latsym has no " + ", ".join(missing))

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []

    def _wrap(self, fn, layer, name, store):
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            span_id = len(self.spans) + 1 if store else 0
            if store:
                self.spans.append(None)
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            self.depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.depth[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self.self_seconds[layer] += dur - frame[0]
                self.calls[name] += 1
                if not self.depth[name]:
                    self.seconds[name] += dur
                if store:
                    self.spans[span_id - 1] = [span_id, parent, name, start, end,
                                               self.item]
            self._after(name, result)
            return result

        return wrapper

    def _before(self, name, args):
        if name == "discform.discriminant_form":
            if getattr(args[0], "_disc_form", None) is not None:
                self.counts["discform.discriminant_form.hits"] += 1

    def _after(self, name, result):
        if name == "walls.short_vectors":
            self.counts["walls.short_vectors.vectors"] += len(result)
        elif name == "walls.coinvariant_wall_scan":
            self.counts["walls.witnesses"] += len(result)

    def begin_item(self, index):
        """Open the root frame of one input; spans under it carry its index."""
        self.item = index
        self.stack.append([0.0, 0])

    def end_item(self):
        self.stack.pop()
        self.item = None

    def metrics(self, inputs, overhead_ratio, scale=1.0, extra=False):
        """Per-input figures of the whole traced run; times are multiplied
        by `scale`, the traced inputs' speed relative to the reference.
        `extra` adds the figures that only monodromy moves."""
        per = 1.0 / max(inputs, 1)
        ms = 1000 * scale * per
        timed, called = TIMED, CALLED
        if extra:
            timed, called = timed + MONODROMY_TIMED, called + MONODROMY_CALLED
        out = {}
        for layer in LAYERS:
            out["%s.self_ms" % layer] = (self.self_seconds[layer] * ms, "ms")
        for name in timed:
            out["%s.ms" % name] = (self.seconds[name] * ms, "ms")
        for name in called:
            out["%s.calls" % name] = (self.calls[name] * per, "count")
        for name in ("walls.short_vectors.vectors", "walls.witnesses"):
            out[name] = (self.counts[name] * per, "count")
        scans = self.calls["walls.wall_class"]
        out["walls.witness_ratio"] = (
            self.counts["walls.witnesses"] / scans if scans else 0.0, "ratio")
        lookups = self.calls["discform.discriminant_form"]
        out["discform.discriminant_form.hit_ratio"] = (
            self.counts["discform.discriminant_form.hits"] / lookups
            if lookups else 0.0, "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path):
        fields = ["id", "parent", "name", "start", "end", "input"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

"""Span recording around mcred's public functions, from outside the library.

:func:`install` replaces each listed function or method with a wrapper, in
every ``mcred`` module namespace and class that holds it, so internal calls
that go through a module global or a class attribute are traced too.  Hot
scalar-level entry points (field arithmetic, series construction) only bump
counters: timing them would swamp the trace.

Spans live in memory as ``[name, start, end, parent, op, info]`` lists and
are written out once, after the timed phase.  Self time is computed from
the stored spans afterwards: a span's duration minus the time its child
spans cover (children of a single-threaded call stack never overlap).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict


def matrix_info(args, kwargs):
    """Rows, columns and highest element level of ``rref``'s argument, read
    directly so that no traced call is made."""
    m = args[0]
    cols = len(m[0]) if m else 0
    depth = max((x.level for row in m for x in row), default=0)
    return (len(m), cols, depth)


def window_info(args, kwargs):
    """Bounds of the lattice window passed to a window function."""
    w = args[1] if len(args) > 1 else kwargs["w"]
    return (w.n_min, w.n_max)


def text_len(args, kwargs):
    return len(args[0])


# (module, attribute, span name, info function or None).  An attribute
# "Class.method" patches the class; a plain name patches every mcred module
# namespace that holds the same function object.
SPANS = [
    ("linalg", "rref", "linalg.rref", matrix_info),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "charpoly", "linalg.charpoly", None),
    ("series", "LaurentSeries.__mul__", "series.mul", None),
    ("series", "LaurentSeries.__rmul__", "series.mul", None),
    ("series", "LaurentSeries.inverse", "series.inverse", None),
    ("matrices", "LaurentMatrix.__mul__", "matrices.mul", None),
    ("matrices", "LaurentMatrix.inverse", "matrices.inverse", None),
    ("matrices", "matrix_exp", "matrices.matrix_exp", None),
    ("connection", "Connection.gauge", "connection.gauge", None),
    ("leading", "sibuya_normalize", "leading.sibuya_normalize", None),
    ("leading", "eigen_block_split", "leading.eigen_block_split", None),
    ("leading", "jordan_chevalley", "leading.jordan_chevalley", None),
    ("leading", "rational_roots", "leading.rational_roots", None),
    ("sl2", "jacobson_morozov", "sl2.jacobson_morozov", None),
    ("reduction", "reduce", "reduction.reduce", None),
    ("reduction", "replay", "reduction.replay", None),
    ("cohomology", "derham_dims", "cohomology.derham_dims", None),
    ("cohomology", "flat_section_dim", "cohomology.flat_section_dim",
     window_info),
    ("cohomology", "truncated_complex_dims",
     "cohomology.truncated_complex_dims", window_info),
    ("cohomology", "rs_spectrum", "cohomology.rs_spectrum", None),
    ("serialize", "loads", "serialize.decode", text_len),
    ("serialize", "decode_connection", "serialize.decode", None),
    ("serialize", "dumps", "serialize.encode", None),
    ("serialize", "encode_connection", "serialize.encode", None),
    ("serialize", "encode_series", "serialize.encode", None),
    ("serialize", "encode_tree", "serialize.encode", None),
    ("serialize", "encode_dims", "serialize.encode", None),
    ("cli", "main", "cli.main", None),
]

# (module, attribute, counter name, level-bucketed?)
COUNTS = [
    ("field", "FieldElement.__mul__", "field.mul", True),
    ("field", "FieldElement.__rmul__", "field.mul", True),
    ("field", "FieldElement.inverse", "field.inverse", True),
    ("field", "common_tower", "field.common_tower", False),
    ("series", "LaurentSeries.__init__", "series.init", False),
    ("connection", "Connection.ramify", "connection.ramify", False),
    ("connection", "Connection.scalar_twist", "connection.scalar_twist", False),
]

WINDOW_SPANS = ("cohomology.flat_section_dim",
                "cohomology.truncated_complex_dims")
RREF_COL_BUCKETS = ((16, "le16"), (64, "le64"), (256, "le256"))
DEPTHS = (0, 1, 2)


class Tracer:
    """Owns the span list, the counters and the patched attributes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.levels = defaultdict(Counter)
        self.op = None
        self._stack = [None]
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            info = info_fn(args, kwargs) if info_fn is not None else None
            rec = [name, 0.0, 0.0, stack[-1], tracer.op, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name, by_level):
        if by_level:
            levels = self.levels[name]

            def counted(self_, *args):
                lv = self_.level
                if args:
                    other = getattr(args[0], "level", 0)
                    if other > lv:
                        lv = other
                levels[lv] += 1
                return fn(self_, *args)
        else:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, make):
        mods = {k: v for k, v in sys.modules.items()
                if (k == "mcred" or k.startswith("mcred.")) and v is not None}
        home = mods["mcred." + module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(home, attr)
        wrapped = make(orig)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self):
        # the package imports every module but these two
        import mcred.cli  # noqa: F401
        import mcred.serialize  # noqa: F401
        for module, attr, name, info in SPANS:
            self._patch(module, attr, lambda fn, n=name, i=info:
                        self._span_wrapper(fn, n, i))
        for module, attr, name, by_level in COUNTS:
            self._patch(module, attr, lambda fn, n=name, b=by_level:
                        self._count_wrapper(fn, n, b))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- operations --------------------------------------------------------

    def op_span(self, op_id, fn, *args):
        """Run one benchmark operation as a top-level span."""
        self.op = op_id
        try:
            return self._span_wrapper(fn, "op", None)(*args)
        finally:
            self.op = None

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]

    def write(self, path):
        """Spans as gzip'd JSON lines: id, parent, op, name, start, end, info."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, op, name, start, end, info]))
                fh.write("\n")


def _bucket(cols):
    for bound, label in RREF_COL_BUCKETS:
        if cols <= bound:
            return label
    return "gt256"


def layer_metrics(tracer, extra_counts):
    """Aggregate spans and counters into ``<module>.<function>.<what>``.

    ``extra_counts`` holds counts the benchmark reads off results (restarts,
    tree nodes, certified cohomology results) rather than off spans.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = Counter()
    self_s = defaultdict(float)
    rref_calls = Counter()
    rref_self = defaultdict(float)
    cells = 0
    bytes_in = 0
    # a window is one (caller span, bounds) pair: window doubling calls
    # flat_section_dim twice per window, on the connection and its dual
    window_of = {}
    window_cols = {}
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        if name == "linalg.rref":
            rows, cols, depth = info
            cells += rows * cols
            for key in (_bucket(cols), f"depth{min(depth, 2)}"):
                rref_calls[key] += 1
                rref_self[key] += selfs[i]
            # charge the matrix width to the nearest enclosing window
            p = parent
            while p is not None and spans[p][0] not in WINDOW_SPANS:
                p = spans[p][3]
            if p is not None:
                key = window_of[p]
                window_cols[key] = max(window_cols.get(key, 0), cols)
        elif name in WINDOW_SPANS:
            window_of[i] = (parent, *info)
        elif name == "serialize.decode" and info is not None:
            bytes_in += info

    m = {}
    for _, label in RREF_COL_BUCKETS + ((None, "gt256"),):
        m[f"linalg.rref.calls.cols_{label}"] = rref_calls[label]
        m[f"linalg.rref.self_s.cols_{label}"] = rref_self[label]
    for d in DEPTHS:
        m[f"linalg.rref.calls.depth{d}"] = rref_calls[f"depth{d}"]
        m[f"linalg.rref.self_s.depth{d}"] = rref_self[f"depth{d}"]
    m["linalg.rref.cells"] = cells
    m["linalg.solve.calls"] = calls["linalg.solve"]
    m["linalg.charpoly.self_s"] = self_s["linalg.charpoly"]

    for name in ("field.mul", "field.inverse"):
        levels = tracer.levels[name]
        for d in DEPTHS:
            n = levels[d] if d < 2 else sum(v for k, v in levels.items() if k >= 2)
            m[f"{name}.calls.depth{d}"] = n
    m["field.common_tower.calls"] = tracer.counts["field.common_tower"]
    m["field.tower_depth.max"] = max(
        [lv for name in ("field.mul", "field.inverse")
         for lv, n in tracer.levels[name].items() if n] or [0])

    for name in ("series.mul", "series.inverse", "matrices.mul",
                 "matrices.inverse", "matrices.matrix_exp", "connection.gauge",
                 "leading.sibuya_normalize", "leading.eigen_block_split",
                 "leading.rational_roots", "reduction.reduce",
                 "reduction.replay", "cohomology.derham_dims",
                 "cohomology.flat_section_dim",
                 "cohomology.truncated_complex_dims", "cohomology.rs_spectrum"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["series.init.calls"] = tracer.counts["series.init"]
    m["connection.ramify.calls"] = tracer.counts["connection.ramify"]
    m["connection.scalar_twist.calls"] = tracer.counts["connection.scalar_twist"]
    m["leading.jordan_chevalley.self_s"] = self_s["leading.jordan_chevalley"]
    m["sl2.jacobson_morozov.self_s"] = self_s["sl2.jacobson_morozov"]

    m["reduction.restarts"] = extra_counts.get("restarts", 0)
    m["reduction.nodes"] = extra_counts.get("nodes", 0)
    windows = len(set(window_of.values()))
    m["cohomology.windows_tried"] = windows
    m["cohomology.window_yield"] = (
        extra_counts.get("certified", 0) / windows if windows else 0.0)
    m["cohomology.lattice_cols"] = sum(window_cols.values())

    m["serialize.decode.self_s"] = self_s["serialize.decode"]
    m["serialize.encode.self_s"] = self_s["serialize.encode"]
    m["serialize.bytes_in"] = bytes_in
    m["serialize.bytes_out"] = extra_counts.get("bytes_out", 0)
    m["cli.main.self_s"] = self_s["cli.main"]
    return m

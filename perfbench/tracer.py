"""Outside-in tracing of cofib's layers.

The tracer wraps public functions and methods of the ``cofib`` modules
from here, without touching the package's source.  Every wrapped call is
a span (name, start, end, parent span, input id), kept in flat arrays in
memory and written out when the run ends.  A layer's self time is its
span minus the time its direct child spans cover.  Counts are recorded at
the same boundaries, so ratios are measured where the work happens.

Three things make wrapping from outside work:

* ``cofib.blowup`` the package attribute is the function, not the module,
  so modules are always fetched with ``importlib``;
* names imported by value (``hom_enumerate``, ``unique_rlp``, ``rlp`` ...)
  are rebound in every ``cofib`` namespace that holds them, and methods are
  patched on their classes;
* ``lifting_problems`` is a generator, so it is timed per item it yields.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

SPAN, COUNT, GEN = "span", "count", "gen"

# (metric prefix, module, attribute or Class.method, how it is recorded).
# COUNT targets are hot and cheap; they are counted but get no span, so
# their time stays in their caller's self time.
LAYERS = [
    ("lifting.unique_rlp", "cofib.lifting", "unique_rlp", SPAN),
    ("lifting.rlp", "cofib.lifting", "rlp", SPAN),
    ("lifting.lifting_problems", "cofib.lifting", "lifting_problems", GEN),
    ("lifting.solve_lifts", "cofib.lifting", "solve_lifts", SPAN),
    ("lifting.codiagonal", "cofib.lifting", "codiagonal", SPAN),
    ("pcs.hom_enumerate", "cofib.pcs", "hom_enumerate", SPAN),
    ("pcs.upward", "cofib.pcs", "upward", SPAN),
    ("pcs.euclidean_check", "cofib.pcs", "euclidean_check", SPAN),
    ("pcs.is_local_embedding", "cofib.pcs", "is_local_embedding", SPAN),
    ("pcs.saturate", "cofib.pcs", "saturate", SPAN),
    ("pcs.validate", "cofib.pcs", "validate", SPAN),
    ("pcs.from_json_dict", "cofib.pcs", "from_json_dict", SPAN),
    ("pcs.to_json_dict", "cofib.pcs", "to_json_dict", SPAN),
    ("words.compose_words", "cofib.words", "compose_words", COUNT),
    ("blowup.blowup", "cofib.blowup", "blowup", SPAN),
    ("blowup.brick_generators", "cofib.blowup", "brick_generators", SPAN),
    ("cli.main", "cofib.cli", "main", SPAN),
    ("automata.hom", "cofib.automata", "AutomatonCarrier.hom", SPAN),
    ("automata.automata_generators", "cofib.automata", "automata_generators", SPAN),
    ("automata.language_upto", "cofib.automata", "language_upto", SPAN),
    ("automata.replay_certificate", "cofib.automata", "replay_certificate", SPAN),
    ("automata.eq", "cofib.automata", "RelAutomaton.__eq__", COUNT),
    ("automata.normalize", "cofib.automata", "normalize", SPAN),
    ("automata.cofibrant_replacement", "cofib.automata", "cofibrant_replacement", SPAN),
    ("automata.coproduct", "cofib.automata", "AutomatonCarrier.coproduct", SPAN),
    ("automata.quotient", "cofib.automata", "AutomatonCarrier.quotient", SPAN),
    ("automata.canonical_rename", "cofib.automata", "canonical_rename", SPAN),
    ("regex.parse", "cofib.regex", "parse", SPAN),
    ("regex.compile_regex", "cofib.regex", "compile_regex", SPAN),
    ("cells.square_check", "cofib.cells", "LiftingProblem.__post_init__", SPAN),
    ("cells.then", "cofib.cells", "CellMorphism.then", COUNT),
    ("cells.pushout", "cofib.cells", "Carrier.pushout", SPAN),
    ("cells.is_isomorphism", "cofib.cells", "Carrier.is_isomorphism", SPAN),
    ("cells.find_isomorphism", "cofib.cells", "Carrier.find_isomorphism", SPAN),
]

HOMS = ("pcs.hom_enumerate", "automata.hom")
LIFTING = ("lifting.lifting_problems", "lifting.solve_lifts")


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_input = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child = array("d")
        self._stack: list[int] = []
        self.stats: dict[str, float] = defaultdict(float)
        self.input_id = -1
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self._caches: list[tuple[str, object, int]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_input.append(self.input_id)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, prefix: str) -> float:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        own = duration - self._child[idx]
        self.stats[prefix + ".self_s"] += own
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child[parent] += duration
        return own

    def _parent_name(self, idx: int) -> str:
        parent = self.span_parent[idx]
        return self.names[self.span_name[parent]] if parent >= 0 else ""

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, prefix: str, fn, how: str):
        if prefix not in self._ids:
            self._ids[prefix] = len(self.names)
            self.names.append(prefix)
        nid = self._ids[prefix]
        stats = self.stats
        calls = prefix + ".calls"

        if how == COUNT:
            def counted(*args, **kwargs):
                if self.active:
                    stats[calls] += 1
                return fn(*args, **kwargs)
            return counted

        if how == GEN:
            squares = prefix + ".squares"

            def per_item(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not self.active:
                    yield from inner
                    return
                stats[calls] += 1
                while True:
                    idx = self._enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx, prefix)
                    stats[squares] += 1
                    yield item
            return per_item

        hook = _HOOKS.get(prefix)
        fixed_at = None
        if prefix in HOMS:
            fixed_at = list(inspect.signature(fn).parameters).index("fixed")

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stats[calls] += 1
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                own = self._exit(idx, prefix)
            if hook is not None:
                if fixed_at is not None:
                    fixed = kwargs.get("fixed", args[fixed_at] if len(args) > fixed_at else None)
                    hook(stats, prefix, result, self._parent_name(idx), fixed, own)
                else:
                    hook(stats, prefix, result)
            return result
        return spanned

    def install(self) -> None:
        """Wrap every layer in every ``cofib`` namespace that binds it."""
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "cofib" or name.startswith("cofib.")]
        for prefix, module, attr, how in LAYERS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(prefix, original, how))
                continue
            original = getattr(mod, attr)
            if hasattr(original, "cache_info"):
                self._caches.append((prefix, original, original.cache_info().misses))
            wrapper = self._wrap(prefix, original, how)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for prefix, fn, misses in self._caches:
            self.stats[prefix + ".misses"] += fn.cache_info().misses - misses
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._caches.clear()

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Every count recorded so far (self times excluded)."""
        return {k: v for k, v in self.stats.items() if not k.endswith("_s")}

    def metrics(self) -> dict[str, float]:
        """Stats plus the ratios, each over its stated base."""
        out = dict(self.stats)
        s = self.stats
        squares = s["lifting.lifting_problems.squares"]
        out["lifting.hom_calls_per_square"] = _ratio(s["lifting.hom_calls"], squares)
        out["lifting.squares_per_top"] = _ratio(squares, s["lifting.tops"])
        out["lifting.fillers_per_square"] = _ratio(s["lifting.solve_lifts.fillers"], squares)
        out["pcs.chart_yield"] = _ratio(s["pcs.euclidean_check.charts"], s["pcs.brick_homs"])
        return out

    def write_spans(self, path: str) -> int:
        """Spans as gzipped CSV: name, start and end in microseconds from
        the first span, parent span index, input id."""
        n = len(self.span_name)
        t0 = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_us,end_us,parent,input\n")
            for i in range(n):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},"
                    f"{(self.span_start[i] - t0) * 1e6:.1f},{(self.span_end[i] - t0) * 1e6:.1f},"
                    f"{self.span_parent[i]},{self.span_input[i]}\n"
                )
        return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hom(stats, prefix, result, parent, fixed, own):
    """Hom searches are shared by every layer, so their results and self
    time are also booked to the layer that asked: lifting (top legs,
    bottom legs and fillers) or charts."""
    n = len(result)
    stats[prefix + ".results"] += n
    if parent in LIFTING:
        stats["lifting.hom_calls"] += 1
        stats["lifting.hom.self_s"] += own
        if parent == "lifting.lifting_problems" and fixed is None:
            stats["lifting.tops"] += n
    elif parent == "pcs.euclidean_check":
        stats["pcs.brick_homs"] += n
        stats["pcs.euclidean_check.hom.self_s"] += own


def _add(stat: str, measure):
    def hook(stats, prefix, result):
        stats[prefix + stat] += measure(result)
    return hook


_HOOKS = {
    "pcs.hom_enumerate": _hom,
    "automata.hom": _hom,
    "lifting.unique_rlp": _add(".checked", lambda report: report.checked),
    "lifting.rlp": _add(".checked", lambda report: report.checked),
    "lifting.solve_lifts": _add(".fillers", len),
    "pcs.is_local_embedding": _add(".ok", lambda verdict: int(verdict[0])),
    "pcs.euclidean_check": _add(".charts", lambda report: len(report.charts)),
    "blowup.blowup": _add(".cubes", lambda result: result.blowup.n_cubes()),
}

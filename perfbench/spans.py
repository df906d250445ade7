"""In-memory span tracer wrapped around dpring's layer entry points.

`Tracer.install()` replaces each traced function in every loaded `dpring`
module that binds it, because the harness imports `expand_power_window`,
`expand_power`, `span_rows`, `signed_reorder`, `words_iter` and the series
functions by name: a wrapper set only on the defining module would record
nothing there.  Methods are replaced on their class.  `uninstall()` puts every
original back.

Each wrapped call records a span (id, name, start, end, parent id) in memory.
Generator layers (`span_rows`, the harness's `words_iter`) are treated
differently: a span per yielded row would swamp the run, so the time spent
inside each generator step is summed per layer and charged to the span that
was open while the step ran.  A layer's self time is its spans' durations
minus their child spans and the generator steps charged to them.  Field
arithmetic is not wrapped: a span per scalar operation would cost more than
the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Functions looked up by name: (defining module, name, layer).
REBOUND = (
    ("dpring.ore", "expand_power_window", "ore.window"),
    ("dpring.ore", "expand_power", "ore.expand"),
    ("dpring.construction", "span_rows", "construction.rows"),
    ("dpring.construction", "words_iter", "construction.words"),
    ("dpring.construction", "signed_reorder", "construction.reorder"),
    ("dpring.series", "invert_one_minus", "series.invert"),
    ("dpring.series", "coefficient_identity", "series.identity"),
    ("dpring.series", "vandermonde_extract", "series.extract"),
)
GENERATOR_LAYERS = ("construction.rows", "construction.words")
# Row assembly inside span_rows calls words_iter once per (u, v) factor.  That
# time already belongs to construction.rows, so the defining module keeps the
# original and only the bindings elsewhere (the harness's) are wrapped.
KEEP_ORIGINAL = {("dpring.construction", "words_iter")}
# Methods: (module, class, method, layer), replaced on the class.
METHODS = (
    ("dpring.freealg", "FreePoly", "__mul__", "freealg.mul"),
    ("dpring.construction", "SpanOracle", "echelon", "membership.echelon"),
    ("dpring.construction", "SpanOracle", "member", "membership.member"),
    ("dpring.construction", "SpanOracle", "normal_form", "membership.normal_form"),
    ("dpring.construction", "SpanOracle", "verify", "membership.verify"),
)
SPAN_LAYERS = tuple(layer for *_, layer in REBOUND + METHODS
                    if layer not in GENERATOR_LAYERS)


def calls_metric(layer: str) -> str:
    """Name of the metric counting a layer's calls."""
    return {"construction.rows": "construction.rows.passes",
            "membership.echelon": "membership.echelon.builds"}.get(layer, layer + ".calls")


def is_time(metric: str) -> bool:
    """Whether a metric is a time reading rather than an exact count."""
    return metric.endswith((".s", "_s"))


def dpring_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dpring" or name.startswith("dpring."))]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.step_s: Counter = Counter()   # generator layer -> seconds
        self._charged: Counter = Counter()  # span id (None: no span) -> step s
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _call(self, name: str, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            stack.append((sid, name, clock()))
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                _, _, start = stack.pop()
                spans.append((sid, name, start, end, stack[-1][0] if stack else None))
            if after is not None:
                after(out)
            return out
        return traced

    def _generator(self, name: str, fn):
        stack, charged, clock = self._stack, self._charged, time.perf_counter

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            items = 0
            busy = 0.0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        busy += dt
                        charged[stack[-1][0] if stack else None] += dt
                    items += 1
                    yield item
            finally:
                gen.close()
                self.counts[name + ".items"] += items
                self.step_s[name] += busy
        return traced

    def _echelon(self, fn):
        build = self._call("membership.echelon", fn)
        counts = self.counts

        def echelon(oracle, query):
            if query in oracle._echelons:
                counts["membership.echelon.hits"] += 1
                return fn(oracle, query)
            ech = build(oracle, query)
            counts["membership.echelon.family_rows"] += ech.inserted
            counts["membership.echelon.rank"] += len(ech.rows)
            counts["membership.echelon.stored_nnz"] += sum(map(len, ech.rows.values()))
            return ech
        return echelon

    def _insert(self, fn):
        counts = self.counts

        def insert(ech, vec, index=None):
            counts["membership.echelon.input_nnz"] += len(vec)
            return fn(ech, vec, index)
        return insert

    def _count_window_terms(self, out):
        self.counts["ore.window.terms"] += sum(len(p.terms) for p in out.values())

    def _count_cert_entries(self, cert):
        entries = cert.combination if cert.kind == "member" else cert.functional
        self.counts["membership.cert.entries"] += len(entries)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every traced entry point in the loaded dpring modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = dpring_modules()
        by_name = {m.__name__: m for m in modules}
        after = {"ore.window": self._count_window_terms,
                 "membership.member": self._count_cert_entries}
        for mod, fname, layer in REBOUND:
            original = getattr(by_name[mod], fname)
            if layer in GENERATOR_LAYERS:
                wrapper = self._generator(layer, original)
            else:
                wrapper = self._call(layer, original, after.get(layer))
            for m in modules:
                if (m.__name__, fname) in KEEP_ORIGINAL:
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        for mod, cls_name, meth, layer in METHODS:
            cls = getattr(by_name[mod], cls_name)
            fn = vars(cls)[meth]
            if layer == "membership.echelon":
                wrapper = self._echelon(fn)
            else:
                wrapper = self._call(layer, fn, after.get(layer))
            self._patch(cls, meth, wrapper)
        echelon_cls = by_name["dpring.membership"].Echelon
        self._patch(echelon_cls, "insert", self._insert(echelon_cls.insert))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer, and seconds spent inside any layer."""
        child: Counter = Counter()
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        inside = self._charged[None]
        for sid, name, start, end, parent in self.spans:
            own[name] += (end - start) - child[sid] - self._charged[sid]
            if parent is None:
                inside += end - start
        own.update(self.step_s)
        return dict(own), inside

    def metrics(self, wall_s: float, checks: int) -> dict[str, float]:
        """Per-layer metrics of one traced workload run."""
        c = self.counts
        calls = Counter(name for _, name, *_ in self.spans)
        own, inside = self.self_times()
        calls.update({layer: c[layer + ".calls"] for layer in GENERATOR_LAYERS})
        out = {}
        for layer in SPAN_LAYERS + GENERATOR_LAYERS:
            out[calls_metric(layer)] = calls[layer]
            out[layer + ".s"] = own.get(layer, 0.0)
        builds = calls["membership.echelon"]
        hits = c["membership.echelon.hits"]
        family = c["membership.echelon.family_rows"]
        enumerated = c["construction.rows.items"]
        out.update({
            "ore.window.terms": c["ore.window.terms"],
            "construction.rows.enumerated": enumerated,
            "construction.rows.reenum_ratio": _ratio(enumerated, family),
            "membership.echelon.hits": hits,
            "membership.echelon.hit_ratio": _ratio(hits, hits + builds),
            "membership.echelon.family_rows": family,
            "membership.echelon.rank": c["membership.echelon.rank"],
            "membership.echelon.input_nnz": c["membership.echelon.input_nnz"],
            "membership.echelon.stored_nnz": c["membership.echelon.stored_nnz"],
            "membership.echelon.fill_ratio": _ratio(
                c["membership.echelon.stored_nnz"], c["membership.echelon.input_nnz"]),
            "membership.cert.entries": c["membership.cert.entries"],
            "harness.self_s": wall_s - inside,
            "harness.checks": checks,
        })
        return out

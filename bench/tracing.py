"""Per-layer tracing for the benchmark's traced run.

The package binds names with `from .x import y`, so each function is
replaced where its caller looks it up: `beam_search` in `denoparse.training`
(which is how training, evaluation and the audit reach it), `match_rows` in
`denoparse.programs` (search reaches it as `P.match_rows`), and so on.
Nothing in the package changes; `Tracer.uninstall` puts every original back.

Three kinds of wrapper, cheapest last:
  span   records (id, name, start, end, parent id, example id, child time),
         so a span's self time is its duration minus its children's;
  timed  adds the call count and busy time, and charges the time to the
         enclosing span, but keeps no per-call record;
  count  only counts. `rank_key`, `dot` and `exact_match` run hundreds of
         thousands of times per run, and a span apiece would distort them.
Spans are kept in memory and written out once the run is over.
"""
from __future__ import annotations

import gc
import itertools
import json
import time
from collections import defaultdict

from denoparse import programs, scorer, search, training, updates

_perf = time.perf_counter


def _example_id(ex) -> str:
    return f"{ex.sequence_id}:{ex.position}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.tally: dict[str, float] = defaultdict(float)  # outcome counters
        self.gc_collections = [0, 0, 0]
        self.gc_busy = [0.0, 0.0, 0.0]
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._ids = itertools.count()
        self._example = None
        self._gc_t0 = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._counters: list[tuple[str, list]] = []
        self._cache0 = None

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, self._example, frame[1]))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # The timed and counted wrappers sit on the hottest calls, which the
    # package makes positionally; taking no keywords halves their cost.

    def timed(self, name: str, fn):
        calls, busy, stack = self.calls, self.busy, self._stack

        def wrapper(*args):
            t0 = _perf()
            try:
                return fn(*args)
            finally:
                d = _perf() - t0
                calls[name] += 1
                busy[name] += d
                if stack:
                    stack[-1][1] += d
        return wrapper

    def counted(self, name: str, fn):
        cell = [0]
        self._counters.append((name, cell))

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def region(self, name: str, fn, *args, **kwargs):
        """Run one call from the benchmark itself inside a span."""
        return self.span(name, fn)(*args, **kwargs)

    # -- outcome hooks ---------------------------------------------------

    def _on_search(self, args):
        self._example = _example_id(args[0])

    def _on_candidates(self, K):
        self.tally["candidates"] += len(K)
        self.tally["compatible"] += sum(c.compatible for c in K.entries)

    def _on_update(self, res):
        self.tally["updates_skipped"] += res.skipped
        self.tally["updates_zero"] += res.zero

    def _on_spurious(self, flag):
        self.tally["spurious"] += bool(flag)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = _perf()
        else:
            g = info["generation"]
            self.gc_collections[g] += 1
            self.gc_busy[g] += _perf() - self._gc_t0

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        p = self._patch
        p(training, "beam_search", lambda f: self.span(
            "search.beam_search", f, on_call=self._on_search,
            on_result=self._on_candidates))
        p(training, "make_context", lambda f: self.span("updates.make_context", f))
        p(training, "generalized_update", lambda f: self.span(
            "updates.generalized_update", f, on_result=self._on_update))
        p(training, "evaluate", lambda f: self.span("training.evaluate", f))
        p(training, "is_spurious", lambda f: self.span(
            "programs.is_spurious", f, on_result=self._on_spurious))
        p(search, "action_features", lambda f: self.span("scorer.action_features", f))
        p(search, "rank_key", lambda f: self.counted("search.rank_key", f))
        p(search, "exact_match", lambda f: self.counted("search.exact_match", f))
        p(programs, "match_rows", lambda f: self.timed("programs.match_rows", f))
        p(programs, "execute", lambda f: self.span("programs.execute", f))
        p(updates, "featurize", lambda f: self.span("scorer.featurize", f))
        p(scorer.ParamVector, "dot", lambda f: self.counted("scorer.dot", f))
        p(scorer.ParamVector, "add_scaled", lambda f: self.span("scorer.add_scaled", f))
        self._cache0 = programs.condition_actions.cache_info()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for name, cell in self._counters:
            self.calls[name] += cell[0]
        info = programs.condition_actions.cache_info()
        self.tally["cache_hits"] += info.hits - self._cache0.hits
        self.tally["cache_misses"] += info.misses - self._cache0.misses

    # -- reporting -------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "example", "child_s")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds."""
        out: dict[str, dict] = {}
        for _, name, t0, t1, _, _, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return out

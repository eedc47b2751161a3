"""Benchmark-side tracer: times the calls into each layer's public functions.

The program under test is not instrumented.  Instead :class:`Tracer`
replaces chosen functions and methods with timing wrappers for the
duration of a traced round and puts the originals back afterwards.  A
module-level function is replaced under every ``repro.*`` module name
it was imported as (``sort_pairs`` lives in ``shuffle`` but is called
through ``runtime``), a method on its class.

Each wrapped call pushes a frame on one stack, so a call's *self* time
is its duration minus the time of the wrapped calls it made.  Self
times of all frames add up to the time spent inside any wrapped call,
which is what the coverage figure compares against wall time.

Functions called once per record (user ``map``, ``Context.write``, the
input iterator) are aggregated into a count and a total; everything
else also records a span, kept in memory and written out at the end as
Chrome trace-event JSON (viewable in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import inspect
import json
import sys
import time

CLOCK = time.perf_counter

#: Spans kept per traced round; later spans are counted, not stored.
SPAN_LIMIT = 400_000

_WRAPPED = "__perfbench_original__"
#: Marks a patched attribute the owner did not define itself (inherited).
_ABSENT = object()


class Stat:
    """Aggregate of every call to one wrapped function (or group)."""

    __slots__ = ("key", "layer", "calls", "total", "self_time", "items", "durations")

    def __init__(self, key: str, keep_durations: bool = False):
        self.key = key
        self.layer = key.split(".", 1)[0]
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: Work count a hook derived from the call (records, bytes, ...).
        self.items = 0
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """Stack-based call timer with in-memory spans."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        #: Frames of wrapped calls in progress: [child_time, stat, span_id].
        self.stack: list[list] = []
        #: (key, start, duration, span_id, parent_span_id)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []
        self.origin = CLOCK()

    # -- bookkeeping ---------------------------------------------------
    def stat(self, key: str, keep_durations: bool = False) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat(key, keep_durations)
        return stat

    def reset(self) -> None:
        """Forget every timing so far (wrappers stay installed)."""
        for stat in self.stats.values():
            stat.calls = stat.items = 0
            stat.total = stat.self_time = 0.0
            if stat.durations is not None:
                stat.durations.clear()
        self.spans.clear()
        self.spans_dropped = 0

    def _span_id(self) -> int:
        span_id = self._next_span
        self._next_span += 1
        return span_id

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn, key, *, span=True, hook=None, before=None, keep_durations=False):
        """A timing wrapper around ``fn``.

        ``key`` names the stat the call is charged to; it may instead be
        a callable ``key(tracer) -> Stat`` chosen per call (user reduce
        code is charged to the combine step when a combiner runs it).
        ``hook(stat, args, kwargs, result)`` derives a work count;
        ``before(args, kwargs)`` runs first, outside the timed call.
        """
        tracer = self
        stack = self.stack
        spans = self.spans
        fixed = None if callable(key) else self.stat(key, keep_durations)
        chooser = key if callable(key) else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stat = fixed if chooser is None else chooser(tracer)
            parent = stack[-1] if stack else None
            if span:
                span_id = tracer._span_id()
                parent_span = parent[2] if parent is not None else 0
            else:
                span_id = parent[2] if parent is not None else 0
            frame = [0.0, stat, span_id]
            stack.append(frame)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = CLOCK() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if stat.durations is not None:
                    stat.durations.append(duration)
                if span:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((stat.key, start, duration, span_id, parent_span))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        setattr(wrapper, _WRAPPED, fn)
        _copy_identity(wrapper, fn)
        return wrapper

    def wrap_generator(self, fn, key):
        """Wrap a generator function: every ``next()`` is one timed call
        and each item yielded to a caller outside the layer is counted."""
        tracer = self
        stack = self.stack
        stat = self.stat(key)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    parent = stack[-1] if stack else None
                    frame = [0.0, stat, parent[2] if parent is not None else 0]
                    stack.append(frame)
                    start = CLOCK()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        duration = CLOCK() - start
                        stack.pop()
                        stat.calls += 1
                        stat.total += duration
                        stat.self_time += duration - frame[0]
                        if parent is not None:
                            parent[0] += duration
                    if parent is None or parent[1].layer != stat.layer:
                        stat.items += 1
                    yield item

            return timed()

        setattr(wrapper, _WRAPPED, fn)
        _copy_identity(wrapper, fn)
        return wrapper

    # -- installation ----------------------------------------------------
    def patch_function(self, module: str, name: str, key, **options) -> None:
        """Replace ``module.name`` under every ``repro.*`` module that
        imported the same function object."""
        original = getattr(sys.modules[module], name)
        wrapper = self._make(original, key, **options)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(name) is original:
                self._set(mod, name, wrapper)

    def patch_method(self, cls: type, name: str, key, **options) -> None:
        """Replace ``cls.name`` (function, classmethod or staticmethod)."""
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._make(raw.__func__, key, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._make(raw.__func__, key, **options))
        else:
            replacement = self._make(raw, key, **options)
        self._set(cls, name, replacement)

    def ensure_method(self, cls: type, name: str, key, **options) -> None:
        """Wrap ``cls.name`` unless it already is (for classes the
        program creates per job, wrapped when first seen)."""
        if not hasattr(getattr(cls, name), _WRAPPED):
            self.patch_method(cls, name, key, **options)

    def _make(self, fn, key, **options):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, key)
        return self.wrap(fn, key, **options)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- results -------------------------------------------------------
    def covered_seconds(self) -> float:
        """Time spent inside any wrapped call (the sum of self times)."""
        return sum(stat.self_time for stat in self.stats.values())

    def layer_self_seconds(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for stat in self.stats.values():
            layers[stat.layer] = layers.get(stat.layer, 0.0) + stat.self_time
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))

    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Spans as Chrome trace-event JSON ("X" complete events, µs)."""
        events = [
            {
                "name": key,
                "cat": key.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent},
            }
            for key, start, duration, span_id, parent in self.spans
        ]
        aggregated = {
            key: {
                "calls": stat.calls,
                "total_s": stat.total,
                "self_s": stat.self_time,
                "items": stat.items,
            }
            for key, stat in sorted(self.stats.items())
        }
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "spans_dropped": self.spans_dropped,
                "aggregated": aggregated,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _copy_identity(wrapper, fn) -> None:
    # Same module/qualname as the original, so a wrapped module-level
    # function still pickles by reference to (the wrapper under) its name.
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        try:
            setattr(wrapper, attr, getattr(fn, attr))
        except AttributeError:
            pass

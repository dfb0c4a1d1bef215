"""Spans, counters and import-time hooks for one benchmark child process.

The benchmark never edits the program.  It observes it from outside:

* :class:`Tracer` keeps spans in memory -- name, start, end, parent and
  the process's peak RSS at both boundaries -- and derives each layer's
  self time (its duration minus what its child spans cover).
* :func:`install_hooks` wraps program functions and methods so that a
  call opens a span.  A module is patched the moment it is first
  imported, through a :data:`sys.meta_path` finder, so the benchmark
  imports nothing that the mirrored CLI command would not import itself.
  Because the patch replaces the module attribute before any other module
  binds it with ``from ... import``, calls made inside the program (such
  as the recovery ladder's ``certify_deadlock_free``) are seen too.

An untraced run installs only the hooks the end-to-end metrics need (the
engine ``run`` methods, to find the end of set-up and the stepping time)
and the ones that hand back results for the output checks.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import resource
import sys
import time
from typing import Any, Callable

#: Spans recorded even when tracing is off: the end-to-end metrics need
#: the start of the first engine step (end of set-up) and the stepping time.
ESSENTIAL = frozenset({"sim.run"})


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL = _NullSpan()


class Span:
    """One timed layer call; times are ``time.monotonic_ns`` values."""

    __slots__ = ("name", "start", "end", "parent", "rss0", "rss1")

    def __init__(self, name: str, start: int, parent: int, rss0: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rss0 = rss0
        self.rss1 = rss0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "peak_rss_kb_start": self.rss0,
            "peak_rss_kb_end": self.rss1,
        }


class _OpenSpan:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer._open(self.name)

    def __exit__(self, *exc: Any) -> None:
        self.tracer._close()


class Tracer:
    """In-memory span recorder for one process.

    ``detailed=False`` (the untraced, end-to-end run) records only the
    :data:`ESSENTIAL` spans and skips the RSS samples; every other
    ``span()`` is a no-op.
    """

    def __init__(self, detailed: bool) -> None:
        self.detailed = detailed
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: batch widths seen by ``execute_batch`` (one entry per call)
        self.batch_widths: list[int] = []
        #: live simulators returned by ``make_sim``, in call order
        self.sims: list[Any] = []
        #: ``RunResult`` lists returned by ``execute_batch``, in call order
        self.batches: list[list[Any]] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str):
        if self.detailed or name in ESSENTIAL:
            return _OpenSpan(self, name)
        return _NULL

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record an already-finished top-level span (process start-up)."""
        s = Span(name, start, -1, 0)
        s.end = end
        self.spans.append(s)

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        rss = peak_rss_kb() if self.detailed else 0
        self.spans.append(Span(name, time.monotonic_ns(), parent, rss))
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        s = self.spans[self._stack.pop()]
        s.end = time.monotonic_ns()
        if self.detailed:
            s.rss1 = peak_rss_kb()

    def wrap(self, name: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        """``fn`` with a span around every call.

        ``on_call(args)`` and ``on_result(result)`` run outside the span,
        so capturing results costs the measured layer nothing.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- analysis ------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Each span name's summed self time, in seconds."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            own = (s.end - s.start) - child_ns[i]
            out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def outermost(self, name: str) -> list[Span]:
        """Spans of ``name`` with no ancestor of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def rss_growth_mb(self, name: str) -> float:
        """Growth of peak RSS across the outermost spans of ``name``, MiB."""
        return sum(s.rss1 - s.rss0 for s in self.outermost(name)) / 1024.0


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after a listed module first executes."""

    def __init__(self, patches: dict[str, Callable[[Any], None]]) -> None:
        self.patches = patches

    def find_spec(self, name, path, target=None):
        patch = self.patches.get(name)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install_hooks(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries (lazily, on first import)."""
    detailed = tracer.detailed

    def wrap_attr(owner: Any, attr: str, name: str, **kw: Any) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    def on_batch(args) -> None:
        tracer.batch_widths.append(len(args[0]))

    def patch_compile(m) -> None:
        wrap_attr(m.SimCore, "run", "sim.run")
        if detailed:
            wrap_attr(m, "compile_network", "sim.compile")
            wrap_attr(m.SimCore, "__init__", "sim.engine_setup")
            wrap_attr(m.SimCore, "finalize", "sim.finalize")

    def patch_vec(m) -> None:
        wrap_attr(m.VecCore, "run", "sim.run")
        if detailed:
            wrap_attr(m.VecCore, "__init__", "sim.engine_setup")
            wrap_attr(m.VecCore, "finalize", "sim.finalize")

    def patch_api(m) -> None:
        wrap_attr(m, "make_sim", "sim.engine_setup", on_result=tracer.sims.append)
        wrap_attr(
            m, "execute_batch", "sweep.batch",
            on_call=on_batch, on_result=tracer.batches.append,
        )

    patches: dict[str, Callable[[Any], None]] = {
        "repro.sim.compile": patch_compile,
        "repro.sim.vec": patch_vec,
        "repro.sim.api": patch_api,
    }
    if detailed:
        patches["repro.routing.cache"] = lambda m: wrap_attr(
            m, "network_fingerprint", "routing.fingerprint"
        )
        patches["repro.sim.sweep"] = lambda m: wrap_attr(
            m, "curve_points", "sweep.summary"
        )
        patches["repro.deadlock.analysis"] = lambda m: wrap_attr(
            m, "certify_deadlock_free", "deadlock.certify"
        )
        patches["repro.sim.recovery"] = lambda m: wrap_attr(
            m, "recompute_recovery_tables", "recovery.recompute"
        )
    for name in [n for n in patches if n in sys.modules]:
        patches.pop(name)(sys.modules[name])
    sys.meta_path.insert(0, _PatchingFinder(patches))

"""Per-compile phase profiling (exclusive-time, stack-based).

The compile loop is *schedule → measure registers → react*; this module
answers "where did the wall time of one request actually go?" by
accruing **exclusive** time to a stack of named phases:

==============  =====================================================
phase           the time spent in
==============  =====================================================
index_build     :meth:`repro.graph.index.DDGIndex.build`
mii             ``compute_mii`` (on memo/store misses)
schedule        ``ModuloScheduler.schedule`` / ``try_schedule_at``
lifetimes       register-requirement measurement
allocation      rotating-file register allocation
select          ``select_lifetimes``: spill candidates and the choice
spill           a spill round's graph copy and ``apply_spill``
verify          the independent :mod:`repro.verify` oracle
drive           everything else (memo lookups, bookkeeping)
==============  =====================================================

Accrual is exclusive: while ``allocation`` is pushed inside
``lifetimes``, the inner phase earns the time — so the phase totals of
one profile always sum to the profiled wall time (the ``drive`` root
catches the remainder).  :func:`profiled_span` stores them as the
span's ``phases`` attribute, and their sum reconciles with the span's
recorded duration.

The hooks sit at the existing ``WORK``-counter seams and reduce to one
thread-local read plus a shared no-op context manager when no profile
is active, so untraced compilation pays effectively nothing.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.trace import context as trace_context

#: Every phase the analysis layers are instrumented with (plus the
#: ``drive`` root that absorbs unattributed time).
PHASES = (
    "index_build",
    "mii",
    "schedule",
    "lifetimes",
    "allocation",
    "select",
    "spill",
    "verify",
)

ROOT_PHASE = "drive"

_local = threading.local()


class PhaseProfile:
    """Exclusive-time accrual over a phase stack."""

    __slots__ = ("totals", "_stack", "_last")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._stack = [ROOT_PHASE]
        self._last = time.perf_counter()

    def _accrue(self, now: float) -> None:
        top = self._stack[-1]
        self.totals[top] = self.totals.get(top, 0.0) + (now - self._last)
        self._last = now

    def push(self, name: str) -> None:
        self._accrue(time.perf_counter())
        self._stack.append(name)

    def pop(self) -> None:
        self._accrue(time.perf_counter())
        if len(self._stack) > 1:
            self._stack.pop()

    def finish(self) -> None:
        """Accrue the tail back to whatever is still on the stack (the
        root, in balanced use)."""
        self._accrue(time.perf_counter())
        del self._stack[1:]

    def as_millis(self) -> dict[str, float]:
        return {
            name: seconds * 1000.0
            for name, seconds in self.totals.items()
        }


def active_profile() -> PhaseProfile | None:
    return getattr(_local, "profile", None)


class _NullPhase:
    """Shared no-op scope — the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _ActivePhase:
    __slots__ = ("_profile", "_name")

    def __init__(self, profile: PhaseProfile, name: str) -> None:
        self._profile = profile
        self._name = name

    def __enter__(self):
        self._profile.push(self._name)
        return self._profile

    def __exit__(self, *exc):
        self._profile.pop()
        return False


def phase(name: str):
    """Scope that attributes the block's time to *name* on the thread's
    active profile — a shared no-op when none is active."""
    profile = active_profile()
    if profile is None:
        return _NULL_PHASE
    return _ActivePhase(profile, name)


@contextlib.contextmanager
def profiling():
    """Install a fresh :class:`PhaseProfile` on this thread for the
    block; yields ``None`` when one is already active (nested profiled
    scopes attribute into the outer profile instead of double-counting
    the same wall time)."""
    if active_profile() is not None:
        yield None
        return
    profile = PhaseProfile()
    _local.profile = profile
    try:
        yield profile
    finally:
        profile.finish()
        _local.profile = None


@contextlib.contextmanager
def profiled_span(name: str, layer: str = "worker", attrs: dict | None = None):
    """A traced span with a phase breakdown: times the block, profiles
    its phases, and records one span whose ``phases`` attribute maps
    each phase to its exclusive milliseconds.  No-op (yields ``None``)
    when tracing is off; when nested inside an already-profiled scope
    the span is still recorded but the phases accrue to the outer
    profile (and this span carries none)."""
    if not trace_context.enabled():
        yield None
        return
    span_attrs = dict(attrs) if attrs else {}
    with trace_context.span(name, layer, attrs=span_attrs) as ctx:
        profile = None
        try:
            with profiling() as profile:
                yield ctx
        finally:
            if profile is not None:
                span_attrs["phases"] = {
                    phase_name: round(ms, 3)
                    for phase_name, ms in sorted(profile.as_millis().items())
                }

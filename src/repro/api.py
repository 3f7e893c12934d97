"""The unified compilation pipeline API.

Every method the paper discusses — iterative spilling (Figure 1b),
increasing the II (Figure 1a), the pre-scheduling baseline [30], the
Section-5 combined method — is one loop: *schedule → measure registers →
react*.  This module is the single entry point for running that loop:

    from repro.api import compile_loop

    result = compile_loop(
        "x[i] = y[i]*a + y[i-3]",
        machine="P2L4",          # or generic:4:2, or a MachineConfig
        scheduler="hrms",        # or ims / swing, or an instance
        strategy="spill",        # or increase / prespill / combined / none
        registers=16,
    )
    print(result.render())       # human-readable
    print(result.to_json())      # machine-readable, JSON-safe

Schedulers come from :mod:`repro.sched.registry` and strategies from
:mod:`repro.core.registry`; both support third-party registration, so a
new scheduler or register-pressure strategy is immediately reachable
from this facade, the CLI and the experiment engine.  Machine specs
(``"P2L4"``, ``"generic:UNITS:LATENCY"``, explicit ``MachineConfig``)
are parsed by :mod:`repro.machine.specs`.

For repeated compilation (a compiler back-end, a service endpoint) use
:class:`Pipeline`: it resolves machine/scheduler/strategy once, keeps a
parsed-DDG cache, and — because it reuses one scheduler instance — every
``compile`` call shares the process-wide schedule/MII/spill memos in
:mod:`repro.sched.cache`.  Batches of requests go through
:meth:`Pipeline.compile_many` (results in request order, optionally
fanned over a process pool) or :meth:`Pipeline.serve_json` (a stream of
``repro.compile/1`` JSON documents).

Both entry points take ``cache=``: a directory path (or
:class:`repro.sched.store.ScheduleStore`) activates the persistent
cross-process cache for the call, so repeated compilations survive
process restarts and are shared between pool workers.  See
``docs/CACHING.md``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace as _dc_replace

from repro.core.registry import StrategyOutcome, get_strategy
from repro.graph.builder import cached_ddg, ddg_from_source
from repro.graph.ddg import DDG
from repro.graph.index import WORK
from repro.lifetimes.requirements import RegisterReport
from repro.machine.machine import MachineConfig
from repro.machine.specs import machine_label, resolve_machine
from repro.sched import store as sched_store
from repro.sched.base import ModuloScheduler
from repro.sched.cache import cached_mii, compile_request_key
from repro.sched.registry import canonical_name, create_scheduler
from repro.sched.schedule import Schedule
from repro.trace import context as trace_context
from repro.trace import profile as trace_profile

JSON_SCHEMA = "repro.compile/1"


@dataclass
class CompilationResult:
    """The one result shape every scheduler × strategy combination
    produces.

    Scalar fields are JSON-safe and round-trip through
    :meth:`to_json` / :meth:`from_json`; the heavyweight artifacts
    (``schedule``, ``report``, ``ddg``) ride along for callers that
    render kernels or allocate registers, and are excluded from JSON.
    """

    converged: bool
    reason: str
    loop: str
    machine: str
    scheduler: str
    strategy: str
    registers: int | None          #: the budget (None = unconstrained)
    registers_used: int | None     #: final requirement, if a schedule exists
    mii: int                       #: MII of the *original* graph
    ii: int | None                 #: final II, if a schedule exists
    stage_count: int | None
    memory_ops: int                #: memory operations in the final graph
    spilled: tuple[str, ...] = ()
    trace: tuple[dict, ...] = ()   #: per-round/per-II history
    attempts: int = 0              #: scheduling attempts (effort proxy)
    placements: int = 0            #: slot probes (effort proxy)
    relaxations: int = 0           #: analysis relaxation edge-visits
    mrt_probes: int = 0            #: MRT unit availability tests
    lifetime_visits: int = 0       #: lifetime consumer-edge visits
    alloc_probes: int = 0          #: rotating-file occupancy probes
    wall_seconds: float = 0.0
    details: dict = field(default_factory=dict)
    #: ``None`` = the oracle did not run; ``True`` = every invariant
    #: re-derived by :mod:`repro.verify` held (``verify=True`` raises
    #: :class:`~repro.verify.VerificationError` instead of storing
    #: ``False``, so a surviving result is never silently invalid).
    verified: bool | None = None
    schedule: Schedule | None = field(
        default=None, repr=False, compare=False
    )
    report: RegisterReport | None = field(
        default=None, repr=False, compare=False
    )
    ddg: DDG | None = field(default=None, repr=False, compare=False)

    @property
    def status(self) -> str:
        """``"ok"`` or ``"failed"`` — the one-word verdict."""
        return "ok" if self.converged else "failed"

    def render(self) -> str:
        """Human-readable summary (what ``repro compile`` prints)."""
        verdict = "ok" if self.converged else f"DID NOT FIT ({self.reason})"
        budget = "inf" if self.registers is None else str(self.registers)
        lines = [
            f"{self.loop}: {verdict}  II={self.ii} SC={self.stage_count}"
            f" MII={self.mii} registers={self.registers_used}/{budget}"
            f" ({self.machine}, {self.scheduler}, {self.strategy})"
        ]
        if self.spilled:
            lines.append(f"spilled: {', '.join(self.spilled)}")
        extras = ", ".join(
            f"{key}={value}" for key, value in sorted(self.details.items())
        )
        if extras:
            lines.append(extras)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-safe dict of every scalar field (schema
        ``repro.compile/1``); ``schedule``/``report``/``ddg`` excluded."""
        return {
            "schema": JSON_SCHEMA,
            "status": self.status,
            "converged": self.converged,
            "reason": self.reason,
            "loop": self.loop,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "strategy": self.strategy,
            "registers": self.registers,
            "registers_used": self.registers_used,
            "mii": self.mii,
            "ii": self.ii,
            "stage_count": self.stage_count,
            "memory_ops": self.memory_ops,
            "spilled": list(self.spilled),
            "trace": [dict(row) for row in self.trace],
            "attempts": self.attempts,
            "placements": self.placements,
            "relaxations": self.relaxations,
            "mrt_probes": self.mrt_probes,
            "lifetime_visits": self.lifetime_visits,
            "alloc_probes": self.alloc_probes,
            "wall_seconds": self.wall_seconds,
            "details": dict(self.details),
            "verified": self.verified,
        }

    def to_json_text(self) -> str:
        """:meth:`to_json` serialized with sorted keys — stable text,
        safe to byte-compare across runs and job counts."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, document: dict) -> "CompilationResult":
        """Rebuild the scalar result from :meth:`to_json` output (the
        schedule/report/graph artifacts are not serialized)."""
        if document.get("schema") != JSON_SCHEMA:
            raise ValueError(
                f"expected schema {JSON_SCHEMA!r},"
                f" got {document.get('schema')!r}"
            )
        return cls(
            converged=document["converged"],
            reason=document["reason"],
            loop=document["loop"],
            machine=document["machine"],
            scheduler=document["scheduler"],
            strategy=document["strategy"],
            registers=document["registers"],
            registers_used=document["registers_used"],
            mii=document["mii"],
            ii=document["ii"],
            stage_count=document["stage_count"],
            memory_ops=document["memory_ops"],
            spilled=tuple(document["spilled"]),
            trace=tuple(dict(row) for row in document["trace"]),
            attempts=document["attempts"],
            placements=document["placements"],
            relaxations=document.get("relaxations", 0),
            mrt_probes=document.get("mrt_probes", 0),
            lifetime_visits=document.get("lifetime_visits", 0),
            alloc_probes=document.get("alloc_probes", 0),
            wall_seconds=document["wall_seconds"],
            details=dict(document["details"]),
            verified=document.get("verified"),
        )


# ----------------------------------------------------------------------
def _as_ddg(source_or_ddg: str | DDG, name: str) -> DDG:
    if isinstance(source_or_ddg, DDG):
        return source_or_ddg
    if isinstance(source_or_ddg, str):
        return ddg_from_source(source_or_ddg, name=name)
    raise ValueError(
        f"loop must be mini-language source or a DDG, not"
        f" {type(source_or_ddg).__name__}"
    )


def _run(
    ddg: DDG,
    machine: MachineConfig,
    scheduler: ModuloScheduler,
    strategy_name: str,
    registers: int | None,
    options: dict | None,
    verify: bool = False,
) -> CompilationResult:
    with trace_profile.profiled_span(
        "compile",
        "worker",
        attrs={"loop": ddg.name, "strategy": strategy_name.lower()},
    ):
        return _run_impl(
            ddg, machine, scheduler, strategy_name, registers, options,
            verify=verify,
        )


def _run_impl(
    ddg: DDG,
    machine: MachineConfig,
    scheduler: ModuloScheduler,
    strategy_name: str,
    registers: int | None,
    options: dict | None,
    verify: bool = False,
) -> CompilationResult:
    strategy = get_strategy(strategy_name)
    started = time.perf_counter()
    work_before = WORK.snapshot()
    mii = cached_mii(ddg, machine)
    outcome: StrategyOutcome = strategy(
        ddg, machine, scheduler, registers, dict(options or {})
    )
    work = WORK.delta(work_before)
    wall = time.perf_counter() - started
    schedule = outcome.schedule
    try:
        scheduler_label = canonical_name(scheduler)
    except ValueError:
        scheduler_label = scheduler.name
    result = CompilationResult(
        converged=outcome.converged,
        reason=outcome.reason,
        loop=ddg.name,
        machine=machine_label(machine),
        scheduler=scheduler_label,
        strategy=strategy_name.lower(),
        registers=registers,
        registers_used=(
            outcome.report.total if outcome.report is not None else None
        ),
        mii=mii,
        ii=schedule.ii if schedule is not None else None,
        stage_count=schedule.stage_count if schedule is not None else None,
        memory_ops=(
            outcome.ddg.memory_node_count()
            if outcome.ddg is not None
            else ddg.memory_node_count()
        ),
        spilled=tuple(outcome.spilled),
        trace=tuple(outcome.trace),
        attempts=outcome.effort.attempts,
        placements=outcome.effort.placements,
        relaxations=work.relax_visits,
        mrt_probes=work.mrt_probes,
        lifetime_visits=work.lifetime_visits,
        alloc_probes=work.alloc_probes,
        wall_seconds=wall,
        details=dict(outcome.details),
        schedule=schedule,
        report=outcome.report,
        ddg=outcome.ddg,
    )
    if verify:
        from repro.verify import VerificationError, verify_result

        with trace_profile.phase("verify"):
            oracle = verify_result(result)
        if not oracle.ok:
            raise VerificationError(ddg.name, oracle)
        result.verified = True
    return result


def compile_loop(
    source_or_ddg: str | DDG,
    machine: str | MachineConfig = "P2L4",
    scheduler: str | ModuloScheduler | type[ModuloScheduler] = "hrms",
    strategy: str = "combined",
    registers: int | None = 32,
    options: dict | None = None,
    name: str = "loop",
    cache: "sched_store.ScheduleStore | str | None" = None,
    verify: bool = False,
) -> CompilationResult:
    """Compile one loop under a register budget and return the unified
    :class:`CompilationResult`.

    Arguments:
        source_or_ddg: mini-language source text or an already-built DDG.
        machine: machine spec string or explicit configuration
            (see :mod:`repro.machine.specs`).
        scheduler: registered scheduler name, instance or class
            (see :mod:`repro.sched.registry`).
        strategy: registered register-pressure strategy name
            (see :mod:`repro.core.registry`).
        registers: the register budget; ``None`` (unconstrained) is only
            meaningful with ``strategy="none"``.
        options: strategy-specific options (e.g. ``policy``/``multiple``
            /``last_ii`` for ``spill``, ``patience`` for ``increase``);
            unknown keys raise :class:`ValueError`.
        name: loop name when *source_or_ddg* is source text.
        cache: a persistent-store directory (or
            :class:`~repro.sched.store.ScheduleStore`) activated for
            this call — schedules computed here are reused by any later
            process pointed at the same directory.
        verify: run the independent :mod:`repro.verify` oracle on the
            result; an invalid schedule raises
            :class:`~repro.verify.VerificationError` and a surviving
            result carries ``verified=True``.

    Raises :class:`ValueError` for unknown machine, scheduler, strategy
    or option names.
    """
    with _cache_context(cache):
        return _run(
            _as_ddg(source_or_ddg, name),
            resolve_machine(machine),
            create_scheduler(scheduler),
            strategy,
            registers,
            options,
            verify=verify,
        )


def _cache_context(cache):
    """``sched_store.using(cache)`` when a cache is given, else a no-op
    (whatever store is already active stays active)."""
    if cache is None:
        return contextlib.nullcontext(sched_store.active_store())
    return sched_store.using(cache)


_UNSET = object()


class Pipeline:
    """Repeated compilation with shared state.

    Resolves machine/scheduler/strategy once at construction; every
    :meth:`compile` call may override any of them.  Parsed DDGs are
    cached per ``(name, source)``, and because one scheduler instance is
    reused, all calls share the process-wide schedule/MII/spill memos in
    :mod:`repro.sched.cache` — compiling the same loop twice (or probing
    several budgets) does not reschedule from scratch.

    With ``cache=`` (a directory path or a
    :class:`~repro.sched.store.ScheduleStore`), every call additionally
    reads and writes the persistent cross-process store: results survive
    the process, and :meth:`compile_many` workers share them.

    The batch surface — :meth:`compile_many` and :meth:`serve_json` — is
    the service endpoint: a list of request mappings in, results (or
    ``repro.compile/1`` JSON documents) out, in request order, with
    ``jobs=N`` fanning the batch over a process pool.
    """

    def __init__(
        self,
        machine: str | MachineConfig = "P2L4",
        scheduler: str | ModuloScheduler | type[ModuloScheduler] = "hrms",
        strategy: str = "combined",
        registers: int | None = 32,
        options: dict | None = None,
        cache: "sched_store.ScheduleStore | str | None" = None,
        verify: bool = False,
    ) -> None:
        self.machine = resolve_machine(machine)
        self.scheduler = create_scheduler(scheduler)
        get_strategy(strategy)  # fail fast on unknown names
        self.strategy = strategy.lower()
        self.registers = registers
        self.options = dict(options or {})
        self.cache = sched_store.resolve_store(cache)
        self.verify = verify

    def ddg(self, source_or_ddg: str | DDG, name: str = "loop") -> DDG:
        """The pipeline's parsed view of a loop: sources parse once per
        process (:func:`repro.graph.builder.cached_ddg`, shared with the
        sweep engine and safe from several threads)."""
        if isinstance(source_or_ddg, str):
            return cached_ddg(source_or_ddg, name)
        return _as_ddg(source_or_ddg, name)

    def compile(
        self,
        source_or_ddg: str | DDG,
        name: str = "loop",
        machine: str | MachineConfig | None = None,
        scheduler: str | ModuloScheduler | type[ModuloScheduler] | None = None,
        strategy: str | None = None,
        registers: "int | None | object" = _UNSET,
        options: dict | None = None,
        verify: bool | None = None,
    ) -> CompilationResult:
        """Compile one loop with this pipeline's defaults, overriding
        any argument per call (``registers=None`` means unconstrained)."""
        with _cache_context(self.cache):
            return _run(
                self.ddg(source_or_ddg, name),
                self.machine if machine is None else resolve_machine(machine),
                self.scheduler if scheduler is None
                else create_scheduler(scheduler),
                self.strategy if strategy is None else strategy,
                self.registers if registers is _UNSET else registers,
                self.options if options is None else options,
                verify=self.verify if verify is None else verify,
            )

    # ------------------------------------------------------------------
    # the batch / service surface
    def normalize_request(self, request: dict) -> dict:
        """One request mapping → the full keyword set
        :func:`_service_compile` runs, with pipeline defaults filled in.

        Accepted keys: ``loop`` (required; source text or DDG), ``name``,
        ``machine``, ``scheduler``, ``strategy``, ``registers``,
        ``options``.  Anything else is an error — silently ignoring a
        key would change the request's meaning.  (``trace`` is an
        internal pass-through: the service injects the propagated trace
        context there for its pool workers; it never affects the result
        and is stripped before compilation.)

        This is also the server's submit-time validator: a request that
        normalizes cleanly here is guaranteed to batch cleanly through
        :meth:`compile_many` later (same resolution path), so malformed
        requests are rejected before they can poison a whole batch.
        """
        request = dict(request)
        if request.get("loop") is None:
            raise ValueError("compilation request needs a 'loop' entry")
        unknown = sorted(
            set(request)
            - {"loop", "name", "machine", "scheduler", "strategy",
               "registers", "options", "trace"}
        )
        if unknown:
            raise ValueError(
                f"unknown request key(s): {', '.join(map(repr, unknown))}"
            )
        # A key that is present but null means "use the pipeline
        # default" (the natural JSON wire encoding) — except registers,
        # where an explicit null means unconstrained, as in compile().
        machine = request.get("machine")
        scheduler = request.get("scheduler")
        strategy = request.get("strategy")
        options = request.get("options")
        if strategy is not None:
            get_strategy(strategy)  # fail fast, before any pool spin-up
        normalized = {
            "loop": request["loop"],
            "name": request.get("name") or "loop",
            "machine": self.machine if machine is None
            else resolve_machine(machine),
            "scheduler": self.scheduler if scheduler is None
            else create_scheduler(scheduler),
            "strategy": self.strategy if strategy is None
            else strategy.lower(),
            "registers": request.get("registers", self.registers),
            "options": dict(self.options if options is None else options),
        }
        if request.get("trace") is not None:
            normalized["trace"] = request["trace"]
        return normalized

    def request_key(self, request: dict) -> tuple:
        """``(key, ddg)``: the identity of one request mapping — the
        memo/store key material plus the loop name (equal keys ⇒
        byte-identical response documents) — and the graph parsed to
        compute it.  The compile service coalesces and memoizes on this
        key; :class:`repro.cluster.ClusterClient` routes on it.  Raises
        :class:`ValueError` on a malformed request."""
        normalized = self.normalize_request(request)
        ddg = self.ddg(normalized["loop"], normalized["name"])
        key = (
            normalized["name"],
            *compile_request_key(
                ddg,
                normalized["machine"],
                normalized["scheduler"],
                normalized["strategy"],
                normalized["registers"],
                normalized["options"],
            ),
        )
        return key, ddg

    def results(self, requests, jobs: int = 1):
        """Lazily compile a batch, yielding one
        :class:`CompilationResult` per request **in request order**.

        Results are the deterministic service shape: the heavyweight
        artifacts (``schedule``/``report``/``ddg``) and the
        ``wall_seconds`` telemetry are stripped, so the stream is
        identical whatever *jobs* is.  With ``jobs>1`` the batch fans
        out over a process pool whose workers share this pipeline's
        persistent store (or the process-wide active one).
        """
        normalized = [self.normalize_request(r) for r in requests]
        if self.verify:
            # a Pipeline-level switch, not a request key: the request
            # mapping (and the server's coalescing key derived from it)
            # stays byte-identical whether or not the oracle runs
            for request in normalized:
                request["verify"] = True
        if jobs <= 1 or len(normalized) <= 1:
            # The store context must not be held across a yield: this
            # is a generator, and a suspended (or abandoned) stream
            # would leave the process-wide active store swapped.  Each
            # request activates and restores it on its own.
            for request in normalized:
                with _cache_context(self.cache):
                    result = _service_compile(request)
                yield result
            return
        from repro.pool import imap_resilient

        with _cache_context(self.cache):
            # The shared persistent pool (also the engine's) is keyed
            # by (jobs, active store) and its workers inherit the store
            # at creation — nothing to hold open while streaming.
            # Submission is eager; results stream back in request
            # order, surviving one worker-pool crash (lost requests
            # are retried exactly once on a respawned pool).
            stream = imap_resilient(_service_compile, normalized, jobs)
        yield from stream

    def compile_many(
        self,
        requests,
        jobs: int = 1,
        **overrides,
    ):
        """Compile a batch of requests.

        Two input shapes are accepted:

        * a **list of request mappings** (the service form) — each has a
          ``loop`` plus optional ``name``/``machine``/``scheduler``/
          ``strategy``/``registers``/``options`` overriding the pipeline
          defaults.  Returns a ``list[CompilationResult]`` in request
          order, identical for any *jobs* value (see :meth:`results`);
        * a **dict of name → loop** (the original named-batch form) —
          compiled serially with *overrides* applied to every loop,
          returning ``dict[str, CompilationResult]`` with full
          (heavyweight) results.
        """
        if isinstance(requests, dict):
            if jobs != 1:
                raise ValueError(
                    "the named-batch (dict) form is serial; pass a list"
                    " of request mappings to use jobs>1"
                )
            return {
                name: self.compile(loop, name=name, **overrides)
                for name, loop in requests.items()
            }
        if overrides:
            raise ValueError(
                "per-call overrides go inside each request mapping"
                f" (got {sorted(overrides)})"
            )
        return list(self.results(requests, jobs=jobs))

    def serve_json(self, requests, jobs: int = 1):
        """Stream the batch as ``repro.compile/1`` JSON documents (one
        dict per request, in request order) — the service endpoint's
        wire format.  ``Pipeline(...).serve_json(reqs, jobs=4)`` is a
        generator, so documents can be written out as they finish."""
        for result in self.results(requests, jobs=jobs):
            yield result.to_json()


def _service_compile(request: dict) -> CompilationResult:
    """Run one normalized batch request (possibly inside a pool worker)
    and return the deterministic service shape of the result."""
    request = dict(request)
    context = trace_context.TraceContext.from_wire(request.pop("trace", None))
    scope = (trace_context.activate(context) if context is not None
             else contextlib.nullcontext())
    with scope:
        result = _run(
            _as_ddg(request["loop"], request["name"]),
            request["machine"],
            request["scheduler"],
            request["strategy"],
            request["registers"],
            request["options"],
            verify=request.get("verify", False),
        )
    # The batch contract is determinism (jobs=1 == jobs=N, run-to-run
    # byte-identical JSON), so per-request wall clock is dropped along
    # with the unpicklable-in-spirit heavyweight artifacts.  The work
    # counters measure *performed* (not memo-served) analysis work, so
    # they depend on cache warmth and are zeroed for the same reason.
    return _dc_replace(
        result, wall_seconds=0.0, relaxations=0, mrt_probes=0,
        lifetime_visits=0, alloc_probes=0,
        schedule=None, report=None, ddg=None,
    )

"""repro — register-constrained software pipelining.

A from-scratch reproduction of Llosa, Valero & Ayguadé, *Heuristics for
Register-Constrained Software Pipelining* (MICRO-29, 1996): modulo
scheduling with HRMS, register lifetime analysis on rotating register
files, and the paper's iterative spilling framework for producing valid
schedules under a fixed register budget.

Quick tour — the unified pipeline API::

    from repro import compile_loop

    result = compile_loop(
        "x[i] = y[i]*a + y[i-3]",
        machine="P2L4", scheduler="hrms", strategy="spill", registers=8,
    )
    print(result.render())          # or result.to_json()
    print(result.ii, result.spilled)

:func:`compile_loop` (and :class:`Pipeline`, for repeated compilation
with shared caches) runs any registered scheduler
(:mod:`repro.sched.registry`: ``hrms``/``ims``/``swing``) under any
registered register-pressure strategy (:mod:`repro.core.registry`:
``spill``/``increase``/``prespill``/``combined``/``none``) and always
returns a :class:`~repro.api.CompilationResult`.  That facade plus the
strategy registry is the one way to run a register-pressure strategy:
every built-in driver returns the registry's
:class:`~repro.core.registry.StrategyOutcome`.

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.graph import DDG, build_ddg, ddg_from_source
from repro.ir import parse_loop
from repro.machine import (
    MachineConfig,
    generic_machine,
    p1l4,
    p2l4,
    p2l6,
    paper_configurations,
)
from repro.sched import (
    HRMSScheduler,
    IMSScheduler,
    Schedule,
    ScheduleError,
    SwingScheduler,
    compute_mii,
    rec_mii,
    reduce_stages,
    res_mii,
)
from repro.lifetimes import (
    allocate_registers,
    max_live,
    pressure_pattern,
    register_requirements,
    variant_lifetimes,
)
from repro.core import SelectionPolicy, apply_spill
from repro.codegen import emit_loop
from repro.api import CompilationResult, Pipeline, compile_loop
from repro.machine.specs import machine_spec, resolve_machine

__version__ = "1.1.0"

__all__ = [
    "CompilationResult",
    "DDG",
    "HRMSScheduler",
    "IMSScheduler",
    "MachineConfig",
    "Pipeline",
    "Schedule",
    "ScheduleError",
    "SelectionPolicy",
    "SwingScheduler",
    "allocate_registers",
    "apply_spill",
    "build_ddg",
    "compile_loop",
    "compute_mii",
    "ddg_from_source",
    "emit_loop",
    "generic_machine",
    "machine_spec",
    "max_live",
    "p1l4",
    "p2l4",
    "p2l6",
    "paper_configurations",
    "parse_loop",
    "pressure_pattern",
    "rec_mii",
    "reduce_stages",
    "register_requirements",
    "res_mii",
    "resolve_machine",
    "variant_lifetimes",
]

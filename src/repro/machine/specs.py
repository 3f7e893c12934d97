"""Centralized machine-spec parsing.

Every layer that accepts a machine — the CLI, the experiment engine's
picklable cells, the :mod:`repro.api` facade — speaks the same spec
language through this module:

* ``"P1L4"`` / ``"P2L4"`` / ``"P2L6"`` — the paper's configurations
  (case-insensitive);
* ``"generic:UNITS:LATENCY"`` — the uniform general-purpose machine of
  the paper's running example (components optional: ``"generic"`` is
  ``generic:4:2``);
* ``"G4L2"`` — the *name* a generic machine prints as, accepted so specs
  round-trip through rendered output;
* an explicit :class:`~repro.machine.machine.MachineConfig` instance is
  passed through unchanged.

A paper configuration resolves to one shared instance per process, so
the per-instance memo key (:func:`repro.sched.cache.machine_key`) is
built once rather than once per sweep cell.  Machines are frozen; treat
their tables as read-only.

:func:`machine_spec` is the inverse: a string a worker process (or a
JSON document) can resolve back into an equal configuration.
"""

from __future__ import annotations

import re

from repro.machine.machine import (
    MachineConfig,
    generic_machine,
    p1l4,
    p2l4,
    p2l6,
)

#: The paper's named configurations (Section 5).
PAPER_MACHINES = {"P1L4": p1l4, "P2L4": p2l4, "P2L6": p2l6}

_GENERIC_NAME = re.compile(r"^G(\d+)L(\d+)$")

#: One resolved instance per paper configuration.
_SHARED: dict[str, MachineConfig] = {}


def machine_names() -> list[str]:
    """The named machine specs, for help text and error messages."""
    return sorted(PAPER_MACHINES)


def resolve_machine(spec: str | MachineConfig) -> MachineConfig:
    """Parse *spec* into a :class:`MachineConfig` (see module docstring).

    Raises :class:`ValueError` for anything unrecognized, naming the
    accepted forms.
    """
    if isinstance(spec, MachineConfig):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"machine spec must be a string or MachineConfig, not"
            f" {type(spec).__name__}"
        )
    name = spec.upper()
    if name in PAPER_MACHINES:
        machine = _SHARED.get(name)
        if machine is None:
            machine = _SHARED[name] = PAPER_MACHINES[name]()
        return machine
    named = _GENERIC_NAME.match(spec)
    if named:
        return generic_machine(int(named.group(1)), int(named.group(2)))
    if spec.lower().startswith("generic"):
        parts = spec.split(":")
        try:
            units = int(parts[1]) if len(parts) > 1 else 4
            latency = int(parts[2]) if len(parts) > 2 else 2
        except ValueError:
            raise ValueError(
                f"malformed generic machine spec {spec!r}"
                " (expected generic:UNITS:LATENCY)"
            ) from None
        return generic_machine(units, latency)
    raise ValueError(
        f"unknown machine spec {spec!r}"
        f" (choose {', '.join(machine_names())},"
        " generic:UNITS:LATENCY, or pass a MachineConfig)"
    )


def machine_spec(machine: MachineConfig) -> str:
    """Serialize *machine* to a spec string :func:`resolve_machine` can
    turn back into an equal configuration."""
    if machine.name in PAPER_MACHINES:
        return machine.name
    if machine.generic:
        from repro.ir.operations import FuClass, Opcode

        units = machine.fu_counts.get(FuClass.GENERIC, 0)
        return f"generic:{units}:{machine.latency(Opcode.ADD)}"
    raise ValueError(
        f"machine {machine.name!r} has no spec; use the paper"
        " configurations or generic machines"
    )


def machine_label(machine: MachineConfig) -> str:
    """A short human/machine identifier: the round-trippable spec when
    one exists, the configuration's name otherwise."""
    try:
        return machine_spec(machine)
    except ValueError:
        return machine.name

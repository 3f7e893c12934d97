"""Register-constrained software pipelining — the paper's contribution.

Four ways to make a modulo-scheduled loop fit in the available register
file, each a driver module that returns the one
:class:`~repro.core.registry.StrategyOutcome` shape:

* :mod:`repro.core.increase_ii` — reschedule at ever larger IIs
  (Figure 1a; the Cydra 5 approach), with non-convergence detection;
* :mod:`repro.core.driver` — the paper's iterative spilling driver
  (Figure 1b) with the Max(LT) / Max(LT/Traf) selection heuristics and the
  multiple-lifetimes and last-II-tried accelerations;
* :mod:`repro.core.combined` — the combined method sketched in
  Section 5: spill first, then binary-search plain schedules below the
  spill II and keep the better loop;
* :mod:`repro.core.prespill` — the pre-scheduling spill baseline [30].

Call them through :func:`repro.api.compile_loop` with ``strategy="spill"``
/ ``"increase"`` / ``"combined"`` / ``"prespill"``: the facade looks the
strategy up in :mod:`repro.core.registry` and returns a
:class:`~repro.api.CompilationResult`.
"""

from repro.core.select import (
    SelectionPolicy,
    SpillCandidate,
    select_lifetimes,
    spill_candidates,
)
from repro.core.spill import SpillHome, apply_spill

__all__ = [
    "SelectionPolicy",
    "SpillCandidate",
    "SpillHome",
    "apply_spill",
    "select_lifetimes",
    "spill_candidates",
]

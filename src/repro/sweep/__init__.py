"""Scenario-sweep subsystem: declarative grids, parallel execution, cached results.

The experiment layer re-runs the same discrete-event simulation over large
(model × strategy × machine × knob) grids.  This package turns those grids into
declarations:

* :class:`~repro.sweep.spec.SweepSpec` / :class:`~repro.sweep.spec.Scenario` — the
  declarative grid model (axes over a base configuration, JSON-scalar parameters,
  deterministic config hashes);
* :class:`~repro.sweep.runner.SweepRunner` — policy-carrying execution through a
  pluggable :mod:`repro.dispatch` backend (serial, process pool, or a TCP
  cluster of ``repro worker`` daemons), with a deterministic on-disk result
  cache keyed by the scenario hash and streamed to as results complete;
* :class:`~repro.sweep.result.SweepResult` — ordered, structured results with JSON
  export;
* :mod:`repro.sweep.cache` — a JSON manifest over the result cache, powering
  ``repro sweep --cache-stats`` (inspection, stale-entry detection) and
  ``--cache-evict`` (eviction);
* :mod:`repro.sweep.batching` — shape-compiled scenario batching: workers that
  :func:`~repro.sweep.batching.register_batchable` run in scenario groups
  on the local executors, where same-shape scenarios share one stacked
  scheduling pass once enough of them share a shape, byte-identical to the
  per-scenario path.

Two invariants hold across the subsystem:

* **determinism** — a scenario's cache key depends only on its parameters (canonical
  hash), the worker's identity/signature and the cache version, never on axis
  declaration order, parallelism or wall-clock;
* **execution transparency** — ``jobs`` and ``use_cache`` change performance, never
  values: a parallel, cached sweep returns exactly what the nested loops it replaces
  would have returned, in scenario order.
"""

from repro.sweep.batching import (
    BatchAdapter,
    PreparedCase,
    is_batchable,
    register_batchable,
    run_scenario_group,
)
from repro.sweep.cache import CACHE_VERSION, cache_stats, evict_cache
from repro.sweep.result import SweepRecord, SweepResult
from repro.sweep.runner import (
    SweepRunner,
    default_cache_dir,
    default_jobs,
    run_sweep,
)
from repro.sweep.spec import Scenario, SweepSpec

__all__ = [
    "Scenario",
    "SweepSpec",
    "SweepRunner",
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "default_jobs",
    "default_cache_dir",
    "CACHE_VERSION",
    "cache_stats",
    "evict_cache",
    "BatchAdapter",
    "PreparedCase",
    "register_batchable",
    "is_batchable",
    "run_scenario_group",
]

"""Module-level worker callables for the dispatch tests.

These live in their own importable module (not inside a ``test_*`` file)
because the cluster tests ship them *by reference*: ``repro worker`` daemon
subprocesses import them by ``module:qualname``, so the module must be
importable from a plain ``PYTHONPATH`` that includes the ``tests`` directory.

Every worker is deterministic: same params, same value, every attempt, every
process.  Fault injection is *not* baked into the workers any more — it is
declared on the execution policy as a ``fault:...`` middleware spec (see
:mod:`repro.middleware`) and fires on whichever side executes the task.
Because the fault lives in the chain and the value lives in the worker, an
armed cluster run and an unarmed serial baseline share identical scenario
params *and* identical worker code — which is what lets the tests demand
byte-identical SweepResult JSON even for fault-injected sweeps.
"""

from __future__ import annotations

import time

from repro.runtime import ExecutionPolicy


def echo_params(**params):
    """Deterministic value derived from the scenario parameters alone.

    No ``hash()`` anywhere: string hashing is salted per process, and these
    values must be byte-identical across serial runs, forked pool processes
    and separately-launched worker daemons.
    """
    canonical = repr(sorted(params.items()))
    return {"params": dict(sorted(params.items())),
            "checksum": sum((index + 1) * ord(char)
                            for index, char in enumerate(canonical)) % 99991}


def slow_echo(x=0, delay=0.0):
    """Sleep ``delay`` seconds, then return a deterministic value."""
    time.sleep(delay)
    return {"x": x, "squared": x * x}


def policy_probe(**params):
    """Report the execution policy the worker-side resolution context yields."""
    resolved = ExecutionPolicy.resolve()
    return {"pipeline_schedule": resolved.pipeline_schedule,
            "workers": resolved.workers,
            "sources": sorted(set(resolved.sources.values()))}


def survivor(x=0):
    """Plain deterministic worker for the crash/hang fault tests.

    The old fault workers decided *themselves* when to crash or wedge (armed
    through the environment).  This one never does: the crash, hang or raise
    is injected by a ``fault:...`` middleware around it, so the worker body is
    identical on every attempt and in the serial baseline.
    """
    return {"x": x, "survived": True}


def cubed(x=0):
    """Deterministic arithmetic worker for the interrupted-sweep resume test."""
    return {"x": x, "cubed": x ** 3}


def always_raise(x=0):
    """Deterministic application failure: raises on every attempt."""
    raise ValueError(f"scenario x={x} is unprocessable")


def unpicklable_result(x=0):
    """Returns a value that cannot cross a process boundary (a lambda)."""
    return {"x": x, "closure": lambda: x}

"""The serve methods: request validation, policy merging, coalescing keys.

Each handler turns one validated request into ``(key, thunk)``: ``key`` is
the coalescing identity (``None`` opts out) and ``thunk`` the blocking
computation the server runs on its thread pool.  The split matters: keys are
derived *before* execution from the same content-addressed identities the
sweep cache uses, so two requests coalesce exactly when they would have
written the same cache entries.

**Policy merging.**  Every request may carry a ``policy`` object of
:class:`~repro.runtime.ExecutionPolicy` field overrides, applied on top of
the server's resolved policy (client > server defaults — the same precedence
the CLI gives explicit flags).  ``cache_dir`` is the one field clients cannot
touch: the cache is the server's storage, and letting a request point it at
an arbitrary path would turn a compute service into a file-write service.
The server's middleware chain is likewise built from the *server's* policy
only — a client override can change how its sweep executes, never which
quotas it is admitted through.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.baselines.registry import available_strategies
from repro.common.errors import ConfigurationError, ReproError
from repro.common.serialization import to_dict
from repro.dispatch.base import resolve_worker_spec
from repro.experiments.base import run_training, training_sweep
from repro.runtime import ExecutionPolicy, policy_context
from repro.runtime.policy import POLICY_FIELDS
from repro.sweep import SweepRunner, SweepSpec


class UnknownMethodError(ReproError):
    """The request names no serve method (mapped to HTTP 404)."""


#: Policy fields a request may override.  Everything in POLICY_FIELDS except
#: ``cache_dir`` and ``trace_out`` — both name server-side filesystem paths,
#: and letting a request point them at arbitrary locations would turn a
#: compute service into a file-write service.  (``trace`` *is* allowed: a
#: request asking for spans changes only what the server records, not what
#: it writes; the sweep method's ``trace`` parameter returns the export
#: in-band instead.)
CLIENT_POLICY_FIELDS = tuple(
    name for name in POLICY_FIELDS if name not in ("cache_dir", "trace_out")
)

#: Named sweep workers, mirroring ``repro sweep --worker``.  Any other value
#: must be an explicit ``module:qualname`` reference resolvable on the server.
SWEEP_WORKERS = {
    "training": "repro.experiments.base:run_training",
    "numeric": "repro.training.numeric:run_numeric_training",
    "pipeline": "repro.pipeline.run:run_pipeline",
}


def resolve_request_policy(
    server_policy: ExecutionPolicy, overrides: Mapping[str, Any] | None
) -> ExecutionPolicy:
    """Merge client policy overrides onto the server's policy (client wins)."""
    if not overrides:
        return server_policy
    if not isinstance(overrides, Mapping):
        raise ConfigurationError(
            "request policy must be a JSON object of execution-policy field overrides"
        )
    unknown = set(overrides) - set(CLIENT_POLICY_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"policy field(s) {sorted(unknown)!r} cannot be set per request; "
            f"clients may override {', '.join(CLIENT_POLICY_FIELDS)}"
        )
    return server_policy.with_overrides(**overrides)


def _reject_unknown_params(method: str, params: Mapping[str, Any],
                           known: tuple[str, ...]) -> None:
    unknown = set(params) - set(known)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {sorted(unknown)!r} for method {method!r}; "
            f"expected one of {', '.join(known)}"
        )


def _digest(*parts: Any) -> str:
    """One stable hash over JSON-able parts (Paths and tuples via default=str)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True, separators=(",", ":"),
                                 default=str).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()[:32]


def _policy_key(policy: ExecutionPolicy) -> dict[str, Any]:
    """The policy identity folded into coalescing keys.

    Execution-only fields (jobs, executor, middleware...) are byte-identity
    invariants — they never change values — but they *do* change cost and
    placement, and a client that explicitly asked for ``jobs=8`` should not
    silently receive a ``jobs=1`` run's result object (the exports differ in
    the recorded ``jobs`` field).  Folding the whole policy in keeps
    coalescing conservative: only requests that are identical in every
    observable way share a computation.
    """
    return {name: str(value) for name, value in policy.as_dict().items()}


@dataclass(frozen=True)
class Handler:
    """One serve method: ``prepare(params, policy) -> (coalesce_key, thunk)``."""

    name: str
    prepare: Callable[[Mapping[str, Any], ExecutionPolicy],
                      tuple[str | None, Callable[[], Any]]]


# -------------------------------------------------------------------- methods


def _resolve_sweep_worker(name: Any) -> Callable[..., Any]:
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"sweep worker must be a name or module:qualname string, got {name!r}"
        )
    spec = SWEEP_WORKERS.get(name, name)
    if ":" not in spec:
        raise ConfigurationError(
            f"unknown sweep worker {name!r}; expected "
            f"{', '.join(sorted(SWEEP_WORKERS))} or a module:qualname reference"
        )
    return resolve_worker_spec(spec)


def _prepare_sweep(params: Mapping[str, Any],
                   policy: ExecutionPolicy) -> tuple[str, Callable[[], Any]]:
    """A sweep request: the exact computation behind ``repro sweep --json``.

    Returns :meth:`~repro.sweep.SweepResult.to_dict` verbatim, so a response
    serialized with ``indent=2, sort_keys=True`` is byte-identical to the CLI
    export of the same grid (the differential tests and the CI serve job both
    assert this).  ``trace: true`` additionally runs the sweep under span
    tracing and attaches the Chrome trace-event export as a sibling ``trace``
    key — the result object itself stays byte-identical; the trace flag rides
    in the resolved policy, so traced and untraced requests never coalesce.
    """
    _reject_unknown_params("sweep", params, ("worker", "axes", "base", "trace"))
    trace_requested = params.get("trace", False)
    if not isinstance(trace_requested, bool):
        raise ConfigurationError("sweep 'trace' must be a boolean")
    if trace_requested:
        policy = policy.with_overrides(trace=True)
    worker = _resolve_sweep_worker(params.get("worker", "training"))
    axes = params.get("axes")
    if not isinstance(axes, Mapping) or not axes:
        raise ConfigurationError(
            "sweep request needs an 'axes' object mapping parameter names to value lists"
        )
    normalized = {
        name: tuple(values) if isinstance(values, (list, tuple)) else (values,)
        for name, values in axes.items()
    }
    base = params.get("base") or {}
    if not isinstance(base, Mapping):
        raise ConfigurationError("sweep 'base' must be a JSON object")
    spec = SweepSpec.build(normalized, dict(base))
    runner = SweepRunner(worker, policy=policy)
    key = "sweep:" + _digest(
        [runner.cache_entry_name(scenario) for scenario in spec.scenarios()],
        _policy_key(policy),
    )
    if not trace_requested:
        return key, lambda: runner.run(spec).to_dict()

    def traced() -> Any:
        # Root the request's spans under one id so take_trace() lifts exactly
        # this sweep's trace, leaving concurrent traced requests untouched.
        from repro.obs.trace import span, take_trace, trace_events

        with span("sweep", seam="serve", attrs={"method": "sweep"}) as root:
            result = runner.run(spec).to_dict()
        payload = dict(result)
        payload["trace"] = trace_events(take_trace(root["trace_id"]))
        return payload

    return key, traced


def _prepare_simulate(params: Mapping[str, Any],
                      policy: ExecutionPolicy) -> tuple[str, Callable[[], Any]]:
    """One :func:`~repro.experiments.base.run_training` call under the policy."""
    key = "simulate:" + _digest(dict(params), _policy_key(policy))

    def thunk() -> Any:
        with policy_context(policy):
            try:
                report = run_training(**params)
            except TypeError as exc:
                # Bad keywords surface as TypeError from the signature; to a
                # remote caller that is a malformed request, not a server bug.
                raise ConfigurationError(f"bad simulate parameter(s): {exc}") from exc
        return to_dict(report)

    return key, thunk


def _prepare_compare(params: Mapping[str, Any],
                     policy: ExecutionPolicy) -> tuple[str, Callable[[], Any]]:
    """Strategy comparison on one job — the ``repro compare`` semantics.

    Same defaults as the CLI: all registered strategies, 10 iterations,
    steady state averaged over ``min(2, iterations - 1)`` warmup iterations.
    """
    _reject_unknown_params("compare", params, (
        "model", "machine", "microbatch_size", "data_parallel_degree",
        "static_gpu_fraction", "iterations", "strategies",
    ))
    strategies = params.get("strategies") or available_strategies()
    if not isinstance(strategies, (list, tuple)) or \
            not all(isinstance(name, str) for name in strategies):
        raise ConfigurationError("compare 'strategies' must be a list of strategy names")
    iterations = params.get("iterations", 10)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise ConfigurationError("compare 'iterations' must be a positive integer")
    base = {
        "model": params.get("model", "20B"),
        "machine": params.get("machine", "jlse-4xh100"),
        "microbatch_size": params.get("microbatch_size", 1),
        "data_parallel_degree": params.get("data_parallel_degree"),
        "static_gpu_fraction": params.get("static_gpu_fraction", 0.0),
        "iterations": iterations,
        "warmup_iterations": min(2, iterations - 1),
    }
    key = "compare:" + _digest({"strategies": list(strategies), "base": base},
                               _policy_key(policy))

    def thunk() -> Any:
        reports = training_sweep({"strategy": tuple(strategies)}, base=base,
                                 policy=policy)
        return {name: to_dict(report) for name, report in reports.items()}

    return key, thunk


def _prepare_ping(params: Mapping[str, Any],
                  policy: ExecutionPolicy) -> tuple[None, Callable[[], Any]]:
    """Liveness probe through the full request path (chain included)."""
    _reject_unknown_params("ping", params, ())
    return None, lambda: {"pong": True}


HANDLERS: dict[str, Handler] = {
    "sweep": Handler("sweep", _prepare_sweep),
    "simulate": Handler("simulate", _prepare_simulate),
    "compare": Handler("compare", _prepare_compare),
    "ping": Handler("ping", _prepare_ping),
}

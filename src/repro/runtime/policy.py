"""The :class:`ExecutionPolicy` object and its four-level resolution order.

Following the policy-free-middleware argument (Dearle et al., "Towards
Adaptable and Adaptive Policy-Free Middleware"), this module makes execution
policy a first-class, explicitly-resolved object instead of per-function
kwargs, ad-hoc ``os.environ`` reads and environment-variable exports to
workers: every consumer asks :meth:`ExecutionPolicy.resolve` once and passes
the result around as a value.

**Resolution order** — implemented in exactly one place,
:meth:`ExecutionPolicy.resolve`, and identical for every field:

1. **explicit argument** — a non-``None`` keyword passed to ``resolve()``
   (which is where ``simulate_job(policy=...)``, ``SweepRunner(jobs=...)``
   and the CLI flags feed in);
2. **active context** — the innermost :func:`configure` context manager that
   sets the field (contexts nest; inner wins).  This level is the
   ``configure()`` stack alone: it lives in a ``ContextVar``, so no
   process-global setting can leak into another thread's resolution;
3. **environment** — the ``REPRO_*`` variable for the field (see
   :data:`POLICY_FIELDS`);
4. **default** — the field's built-in default.

Only the winning value is validated, so a stale ``$REPRO_SWEEP_JOBS`` in
the environment cannot break a call that overrides it explicitly.

**No path knobs.**  The policy carries decisions a user actually makes
(parallelism, dispatch, caching, middleware, scenario defaults, tracing).
How a simulation is scheduled is not one of them: every scenario runs on the
vector kernel, and a sweep stacks same-shape scenarios when the group is large
enough to pay for it (:mod:`repro.sweep.batching`).  The paths compute
byte-identical results, so the code picks the fastest one itself.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.common.errors import ConfigurationError
from repro.middleware import normalize_middleware_specs

#: The dispatch backends of :mod:`repro.dispatch` (declared here, not there,
#: because the policy layer validates the ``executor`` field and the dispatch
#: package imports this module).  ``"auto"`` preserves the pre-dispatch
#: behaviour: ``pool`` when ``jobs > 1``, ``serial`` otherwise.
EXECUTOR_BACKENDS = ("serial", "pool", "cluster")
AUTO_EXECUTOR = "auto"
EXECUTOR_CHOICES = (AUTO_EXECUTOR,) + EXECUTOR_BACKENDS

#: The policy fields ``simulate_job`` consumes — the ``env_fields`` it passes
#: to :meth:`ExecutionPolicy.resolve`, so a broken sweep-level environment
#: variable (say ``REPRO_SWEEP_JOBS=garbage``) can never fail a simulation
#: that does not read it.  ``middleware`` and ``trace`` are here because the
#: engine seam (``SimEngine.install_middleware``) runs the resolved chain.
SIMULATION_FIELDS = ("middleware", "trace")

#: The scenario families the toolkit simulates.  ``scenario_family`` selects
#: which axis a generic surface (the sweep CLI's default worker, serve's
#: dispatch) operates on; it never changes how a family simulates.
SCENARIO_FAMILIES = ("offload", "pipeline")

#: The fields ``simulate_pipeline`` consumes: the simulation set plus the
#: schedule-family default (``pipeline_schedule``).
PIPELINE_FIELDS = SIMULATION_FIELDS + ("pipeline_schedule",)

#: Source labels attached to each resolved field.
SOURCE_ARG = "arg"
SOURCE_CONTEXT = "context"
SOURCE_ENV = "env"
SOURCE_DEFAULT = "default"


# --------------------------------------------------------------------- parsing


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {text!r}") from None


def _validate_executor(value: Any) -> str:
    if value not in EXECUTOR_CHOICES:
        raise ConfigurationError(
            f"unknown executor backend {value!r}; expected one of "
            f"{', '.join(repr(name) for name in EXECUTOR_CHOICES)}"
        )
    return value


def _validate_positive_int(name: str) -> Callable[[Any], int]:
    def validate(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{name} must be an integer")
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1")
        return value
    return validate


_validate_jobs = _validate_positive_int("jobs")
_validate_workers = _validate_positive_int("workers")


def _validate_scenario_family(value: Any) -> str:
    if value not in SCENARIO_FAMILIES:
        raise ConfigurationError(
            f"unknown scenario family {value!r}; expected one of "
            f"{', '.join(repr(name) for name in SCENARIO_FAMILIES)}"
        )
    return value


def _validate_pipeline_schedule(value: Any) -> str:
    # Deferred import: the pipeline package sits above the policy layer.
    from repro.pipeline.schedules import SCHEDULES

    if not isinstance(value, str) or value not in SCHEDULES:
        valid = ", ".join(repr(name) for name in SCHEDULES.names())
        raise ConfigurationError(
            f"unknown pipeline schedule {value!r}; expected one of {valid}"
        )
    return SCHEDULES.get(value).name


def _validate_use_cache(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError("use_cache must be a boolean")
    return value


def _validate_cache_dir(value: Any) -> Path:
    if isinstance(value, (str, Path)):
        return Path(value)
    raise ConfigurationError("cache_dir must be a path or string")


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "sweeps"


def _validate_trace(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError("trace must be a boolean")
    return value


def _validate_trace_out(value: Any) -> Path | None:
    # None means "record spans but write no file" — the policy_context
    # round-trip carries it verbatim, so the validator must accept it.
    if value is None:
        return None
    if isinstance(value, (str, Path)):
        return Path(value)
    raise ConfigurationError("trace_out must be a path, string or None")


@dataclass(frozen=True)
class _FieldSpec:
    """How one policy field resolves: env variable, env parser, validator, default."""

    env_var: str
    parse_env: Callable[[str], Any]
    validate: Callable[[Any], Any]
    default: Callable[[], Any]


#: The single registry every resolution surface shares — ``resolve()``, the
#: ``repro config`` subcommand, and the docs table are all generated from it.
POLICY_FIELDS: dict[str, _FieldSpec] = {
    "jobs": _FieldSpec("REPRO_SWEEP_JOBS", _parse_int, _validate_jobs, lambda: 1),
    "executor": _FieldSpec(
        "REPRO_EXECUTOR", str, _validate_executor, lambda: AUTO_EXECUTOR
    ),
    "workers": _FieldSpec("REPRO_WORKERS", _parse_int, _validate_workers, lambda: 1),
    "use_cache": _FieldSpec(
        "REPRO_SWEEP_USE_CACHE", _parse_bool, _validate_use_cache, lambda: False
    ),
    "cache_dir": _FieldSpec(
        "REPRO_SWEEP_CACHE_DIR", Path, _validate_cache_dir, _default_cache_dir
    ),
    # The middleware stack: a tuple of spec strings ("timing", "retry:attempts=3",
    # ...) instantiated at each seam by repro.middleware.build_chain.  Specs —
    # not instances — are what pickle to pool/cluster workers inside the policy.
    "middleware": _FieldSpec(
        "REPRO_MIDDLEWARE",
        normalize_middleware_specs,
        normalize_middleware_specs,
        tuple,
    ),
    # Scenario-family selection: which axis generic surfaces (sweep CLI default
    # worker, serve dispatch) operate on, and the default pipeline schedule
    # pass.  Families simulate identically regardless of these — they are
    # routing defaults, not simulation semantics.
    "scenario_family": _FieldSpec(
        "REPRO_SCENARIO_FAMILY", str, _validate_scenario_family, lambda: "offload"
    ),
    "pipeline_schedule": _FieldSpec(
        "REPRO_PIPELINE_SCHEDULE", str, _validate_pipeline_schedule, lambda: "1f1b"
    ),
    # Observability: ``trace`` appends the span-recording middleware to every
    # seam's chain (see repro.middleware.effective_middleware_specs), and
    # ``trace_out`` names the Chrome trace-event file the CLI writes when the
    # traced command finishes.  Both observe-only: results are byte-identical
    # with tracing on or off.
    "trace": _FieldSpec("REPRO_TRACE", _parse_bool, _validate_trace, lambda: False),
    "trace_out": _FieldSpec(
        "REPRO_TRACE_OUT", Path, _validate_trace_out, lambda: None
    ),
}


# -------------------------------------------------------------------- contexts

# The context level of the resolution order: a tuple-of-overlays stack in a
# ContextVar (async- and thread-correct).
_CONTEXT_STACK: ContextVar[tuple[Mapping[str, Any], ...]] = ContextVar(
    "repro_execution_policy_context", default=()
)


def _checked_overrides(overrides: Mapping[str, Any]) -> dict[str, Any]:
    """Drop ``None`` values, reject unknown fields, validate the rest eagerly."""
    checked: dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in POLICY_FIELDS:
            raise ConfigurationError(
                f"unknown execution-policy field {name!r}; expected one of "
                f"{', '.join(POLICY_FIELDS)}"
            )
        if value is None:
            continue
        checked[name] = POLICY_FIELDS[name].validate(value)
    return checked


class _PolicyContext:
    """Re-entrant-free context manager pushing one overlay onto the stack."""

    def __init__(self, overrides: dict[str, Any]) -> None:
        self._overrides = overrides
        self._token = None

    def __enter__(self) -> "_PolicyContext":
        self._token = _CONTEXT_STACK.set(_CONTEXT_STACK.get() + (self._overrides,))
        return self

    def __exit__(self, *exc_info) -> None:
        _CONTEXT_STACK.reset(self._token)
        self._token = None


def configure(**overrides: Any) -> _PolicyContext:
    """Scope execution-policy overrides to a ``with`` block.

    ::

        with repro.configure(middleware="timing", jobs=4):
            report = Trainer(config).run()       # resolves middleware=("timing",)

    Contexts nest — the innermost context that sets a field wins — and sit
    between explicit arguments and ``REPRO_*`` environment variables in the
    resolution order.  Values are validated here, at declaration time, so a
    typo fails fast rather than at the first resolution.
    """
    return _PolicyContext(_checked_overrides(overrides))


def policy_context(policy: "ExecutionPolicy") -> _PolicyContext:
    """A :func:`configure` context pinning *every* field of ``policy``.

    This is how a resolved policy crosses process boundaries explicitly:
    ``SweepRunner`` pickles its policy to each worker and the worker-side
    trampoline activates it with this context, so worker resolution sees the
    parent's decisions at the context level — no environment variables
    involved.
    """
    if not isinstance(policy, ExecutionPolicy):
        raise ConfigurationError("policy_context expects an ExecutionPolicy")
    return _PolicyContext(policy.as_dict())


def _context_lookup(name: str) -> tuple[bool, Any]:
    """(found, value) for ``name`` at the context level (innermost overlay wins)."""
    for overlay in reversed(_CONTEXT_STACK.get()):
        if name in overlay:
            return True, overlay[name]
    return False, None


# ---------------------------------------------------------------------- policy


@dataclass(frozen=True)
class ExecutionPolicy:
    """A frozen record of every runtime-execution decision.

    Constructing the dataclass directly yields a fully explicit policy (every
    field validated, nothing consulted); :meth:`resolve` builds one through the
    documented four-level order instead.  ``sources`` maps each field to where
    its value came from (``arg``/``context``/``env``/``default``); it is
    excluded from equality so two policies with identical values compare equal
    regardless of how they were resolved.
    """

    jobs: int = 1
    executor: str = AUTO_EXECUTOR
    workers: int = 1
    use_cache: bool = False
    cache_dir: Path = field(default_factory=_default_cache_dir)
    middleware: tuple = ()
    scenario_family: str = "offload"
    pipeline_schedule: str = "1f1b"
    trace: bool = False
    trace_out: Path | None = None
    sources: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, spec in POLICY_FIELDS.items():
            object.__setattr__(self, name, spec.validate(getattr(self, name)))
        if not self.sources:
            # Direct construction: infer sources by comparison with the
            # defaults so describe()/resolved_policy introspection stays
            # honest (a field left at its default is not an "arg").
            object.__setattr__(self, "sources", {
                name: SOURCE_ARG if getattr(self, name) != spec.default() else SOURCE_DEFAULT
                for name, spec in POLICY_FIELDS.items()
            })

    # ------------------------------------------------------------- resolution

    @classmethod
    def resolve(
        cls, *, env_fields: tuple[str, ...] | None = None, **overrides: Any
    ) -> "ExecutionPolicy":
        """Resolve every field through arg > context > env > default.

        Keyword names are the policy field names; ``None`` means "not passed"
        and falls through to the next level.  Only the winning value of each
        field is parsed and validated, so garbage at an outvoted level (say, a
        bad environment variable under an explicit argument) never raises.

        ``env_fields`` limits which fields consult the *environment* level —
        a consumer names the fields it actually reads (``simulate_job`` passes
        :data:`SIMULATION_FIELDS`), so a broken ``REPRO_*`` variable for a
        field the consumer never touches cannot fail the call.  Fields outside
        ``env_fields`` still honour arguments and contexts (both validated at
        declaration time) and otherwise take their defaults.  ``None`` — the
        default, used by consumers of the whole policy such as ``SweepRunner``
        and ``repro config`` — consults the environment for every field.
        """
        unknown = set(overrides) - set(POLICY_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown execution-policy field(s) {sorted(unknown)!r}; "
                f"expected one of {', '.join(POLICY_FIELDS)}"
            )
        values: dict[str, Any] = {}
        sources: dict[str, str] = {}
        for name, spec in POLICY_FIELDS.items():
            if overrides.get(name) is not None:
                values[name] = spec.validate(overrides[name])
                sources[name] = SOURCE_ARG
                continue
            found, value = _context_lookup(name)
            if found:
                values[name] = spec.validate(value)
                sources[name] = SOURCE_CONTEXT
                continue
            if env_fields is None or name in env_fields:
                env_text = os.environ.get(spec.env_var)
                if env_text is not None and env_text != "":
                    try:
                        values[name] = spec.validate(spec.parse_env(env_text))
                    except ConfigurationError as exc:
                        # Name the variable: ten REPRO_* vars feed this
                        # resolver, and a shell-level typo must say which.
                        raise ConfigurationError(
                            f"invalid ${spec.env_var}={env_text!r}: {exc}"
                        ) from None
                    sources[name] = SOURCE_ENV
                    continue
            values[name] = spec.default()
            sources[name] = SOURCE_DEFAULT
        return cls(sources=sources, **values)

    def with_overrides(self, **overrides: Any) -> "ExecutionPolicy":
        """A copy with the given fields replaced (marked as ``arg`` sources)."""
        checked = _checked_overrides(overrides)
        sources = dict(self.sources)
        sources.update({name: SOURCE_ARG for name in checked})
        return replace(self, sources=sources, **checked)

    # ------------------------------------------------------------ introspection

    def as_dict(self) -> dict[str, Any]:
        """Field name -> value (no sources); the :func:`policy_context` payload."""
        return {name: getattr(self, name) for name in POLICY_FIELDS}

    def describe(self) -> dict[str, dict[str, Any]]:
        """Field name -> ``{"value", "source"}`` (JSON-ready values)."""
        return {
            name: {
                "value": str(value) if isinstance(value, Path) else value,
                "source": self.sources.get(name, SOURCE_ARG),
            }
            for name, value in self.as_dict().items()
        }


def resolution_report(**overrides: Any) -> dict[str, dict[str, Any]]:
    """Field -> ``{"value", "source"}`` rows (or ``{"error", "source": "error"}``).

    The diagnostic twin of :meth:`ExecutionPolicy.resolve` behind
    ``repro config``: each field resolves *independently*, so one broken
    environment variable shows up as an error on its own row instead of
    taking the whole report — the very tool for diagnosing it — down.
    """
    unknown = set(overrides) - set(POLICY_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown execution-policy field(s) {sorted(unknown)!r}; "
            f"expected one of {', '.join(POLICY_FIELDS)}"
        )
    report: dict[str, dict[str, Any]] = {}
    for name in POLICY_FIELDS:
        override = {name: overrides[name]} if overrides.get(name) is not None else {}
        try:
            policy = ExecutionPolicy.resolve(env_fields=(name,), **override)
        except ConfigurationError as exc:
            report[name] = {"error": str(exc), "source": "error"}
            continue
        value = getattr(policy, name)
        report[name] = {
            "value": str(value) if isinstance(value, Path) else value,
            "source": policy.sources[name],
        }
    return report


@dataclass(frozen=True)
class ResolvedExecution:
    """What one ``simulate_job`` call actually ran, attached to its result.

    ``policy`` is the resolved input; ``scheduler`` names the kernel that
    produced the schedule (``"vector"``), so callers can introspect what
    happened without re-deriving it.
    """

    policy: ExecutionPolicy
    scheduler: str
    op_count: int

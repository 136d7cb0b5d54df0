#!/usr/bin/env python3
"""Execution policy: one object for every runtime-configuration decision.

Shows the four-level resolution order (explicit argument > active
``repro.configure(...)`` context > ``REPRO_*`` environment variables >
defaults), the ``sources`` record of which level decided each field, and the
``resolved_policy`` record on every simulation result.  How a simulation is
scheduled is not part of the policy: every run below lands on the vector
kernel, chosen by the code.

Run with:  python examples/execution_policy.py
"""

import os

from repro import ExecutionPolicy, TrainingJobConfig, configure, simulate_job, simulate_pipeline
from repro.middleware import middleware_metrics


def show(label: str, policy: ExecutionPolicy) -> None:
    print(f"{label:<22} pipeline_schedule={policy.pipeline_schedule:<5} "
          f"(source: {policy.sources['pipeline_schedule']:<7}) "
          f"middleware={policy.middleware}")


def main() -> None:
    # 1. Defaults, then each level above them in turn.
    show("defaults", ExecutionPolicy.resolve())
    os.environ["REPRO_PIPELINE_SCHEDULE"] = "gpipe"
    try:
        show("environment", ExecutionPolicy.resolve())
        with configure(pipeline_schedule="zb", middleware="timing"):
            show("configure context", ExecutionPolicy.resolve())
            show("explicit argument", ExecutionPolicy.resolve(pipeline_schedule="1f1b"))
            # Consumers resolve the same way: this pipeline picks up "zb".
            result = simulate_pipeline(stages=4, microbatches=8)
            print(f"{'':<22} simulate_pipeline ran {result.schedule!r} on the "
                  f"{result.resolved.scheduler} kernel ({result.op_count} ops)")
    finally:
        del os.environ["REPRO_PIPELINE_SCHEDULE"]
    print()

    # 2. Every simulation result records what ran.  The timing middleware on
    #    the policy wraps the engine seam; it observes, never changes, results.
    job = TrainingJobConfig(
        model="7B", strategy="deep-optimizer-states", check_memory=False
    ).resolve()
    for label, policy in (("ambient policy", None),
                          ("timed policy", ExecutionPolicy(middleware=("timing",)))):
        result = simulate_job(job, iterations=1, policy=policy)
        resolved = result.resolved_policy
        print(f"{label:<22} ran={resolved.scheduler} ops={resolved.op_count} "
              f"makespan={result.schedule.makespan:.3f}s")
    print(f"{'':<22} engine runs timed so far (the pipeline above, the timed "
          f"job): {int(middleware_metrics()['engine']['count'])}")
    print()
    print("Inspect the resolution any time with:  python -m repro config")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Render the Figure 5 update-phase timelines as a text Gantt chart.

Eight optimizer subgroups per GPU, two of them statically GPU-resident: the top chart
shows the blocking TwinFlow schedule (GPU residents first, then CPU update -> downscale
-> blocking H2D per subgroup), the bottom chart the interleaved Deep Optimizer States
schedule (prefetch, GPU update and flush of every stride-th subgroup fully overlapped
with the CPU pipeline on both PCIe directions).

Run with:  python examples/update_phase_timeline.py
"""

from repro.core.scheduler import build_cpu_only_plan, build_update_plan
from repro.core.sim_executor import (
    build_blocking_offload_update_rows,
    build_interleaved_update_rows,
)
from repro.hardware.contention import HostContentionModel
from repro.hardware.presets import JLSE_H100_NODE
from repro.hardware.throughput import ThroughputProfile
from repro.sim.engine import SimEngine, standard_resources
from repro.sim.opbatch import OpBatch

NUM_SUBGROUPS = 8
SUBGROUP_PARAMS = 100_000_000
CHART_WIDTH = 96
RESOURCES = ("cpu", "gpu.compute", "pcie.h2d", "pcie.d2h")


def simulate(strategy: str, profile):
    engine = SimEngine()
    standard_resources(engine)
    batch = OpBatch()
    sizes = {i: SUBGROUP_PARAMS for i in range(NUM_SUBGROUPS)}
    if strategy == "twinflow":
        plan = build_cpu_only_plan(NUM_SUBGROUPS, static_residents={0, 1})
        ops = build_blocking_offload_update_rows(batch, profile, plan, sizes)
    else:
        plan = build_update_plan(NUM_SUBGROUPS, 2, static_residents={6, 7})
        ops = build_interleaved_update_rows(batch, profile, plan, sizes,
                                            contention=HostContentionModel())
    schedule = engine.run_vector(batch)
    ready = max(schedule.by_id(op).end for op in ops.params_ready_ops)
    return plan, schedule, ready


def render(schedule, horizon: float) -> list[str]:
    lines = []
    for resource in RESOURCES:
        row = [" "] * CHART_WIDTH
        for item in schedule.filter(resource=resource):
            start = int(item.start / horizon * (CHART_WIDTH - 1))
            end = max(start + 1, int(item.end / horizon * (CHART_WIDTH - 1)))
            marker = "#" if item.op.kind.name.startswith("GPU") or resource == "cpu" else "="
            label = str(item.op.subgroup) if item.op.subgroup is not None else "*"
            for position in range(start, min(end, CHART_WIDTH)):
                row[position] = marker
            if start < CHART_WIDTH:
                row[start] = label[-1]
        lines.append(f"  {resource:12s} |{''.join(row)}|")
    return lines


def main() -> None:
    profile = ThroughputProfile.from_machine(JLSE_H100_NODE)
    results = {name: simulate(name, profile) for name in ("twinflow", "deep-optimizer-states")}
    horizon = max(ready for _, _, ready in results.values()) * 1.02

    for name, (plan, schedule, ready) in results.items():
        print(f"{name}  (update complete at {ready * 1e3:.0f} ms, "
              f"{len(plan.gpu_indices())} subgroups on the GPU, "
              f"{len(plan.cpu_indices())} on the CPU)")
        for line in render(schedule, horizon):
            print(line)
        print()

    twinflow_ready = results["twinflow"][2]
    dos_ready = results["deep-optimizer-states"][2]
    print(f"Interleaved update phase is {twinflow_ready / dos_ready:.2f}x faster "
          f"({twinflow_ready * 1e3:.0f} ms -> {dos_ready * 1e3:.0f} ms) on this 8-subgroup example.")


if __name__ == "__main__":
    main()

"""Lowering: pipeline schedules -> timed op rows for the discrete-event engine.

The lowering maps the stage graph onto the engine's FIFO-resource model:

* each stage owns a compute resource (``stage0.compute``, ``stage1.compute``,
  ...) executing its F/B/W nodes in the schedule's local order;
* each adjacent stage pair owns two directed link resources
  (``link0.fwd`` carries stage 0 -> 1 activations, ``link0.bwd`` carries
  stage 1 -> 0 input gradients) so forward and backward traffic overlap the
  way full-duplex interconnects do;
* ``SEND`` nodes become transfer ops on the link (duration = the timing's
  ``comm_seconds``, dependency = the producing compute op);
* ``RECV`` nodes become zero-duration synchronisation ops *on the consuming
  stage's compute resource*, placed immediately before their consumer —
  the stage blocks exactly while the transfer is in flight, and because the
  op takes no time, stage busy-time (and hence the bubble fraction) counts
  compute only.

Rows are emitted stage-major in each stage's schedule order, so per-resource
FIFO order matches the schedule by construction; dependencies may point at
rows emitted later (a ``RECV`` of gradients references the downstream
stage's ``SEND``), which the engine's blocked-head machinery handles.  The
same rows schedule byte-identically on the vector kernel and on the heap
oracle — the property the differential harness enforces for pipeline-shaped
DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.pipeline.ir import PipelineSchedule, PipeOp, ScheduledNode, insert_comm_nodes
from repro.pipeline.timing import PipelineTiming
from repro.sim.opbatch import OpBatch
from repro.sim.ops import OpKind

#: Engine op kinds of each pipeline node kind.  F/B/W are stage compute;
#: SEND rides the inter-stage link as a device-to-device transfer; RECV is a
#: zero-duration barrier on the consuming stage.
_OP_KINDS = {
    PipeOp.F: OpKind.GPU_COMPUTE,
    PipeOp.B: OpKind.GPU_COMPUTE,
    PipeOp.W: OpKind.GPU_COMPUTE,
    PipeOp.SEND: OpKind.D2D,
    PipeOp.RECV: OpKind.BARRIER,
}


def stage_resource(stage: int) -> str:
    """Compute-resource name of one pipeline stage."""
    return f"stage{stage}.compute"


def link_resource(from_stage: int, to_stage: int) -> str:
    """Directed link-resource name between adjacent stages."""
    if to_stage == from_stage + 1:
        return f"link{from_stage}.fwd"
    if to_stage == from_stage - 1:
        return f"link{to_stage}.bwd"
    raise ConfigurationError(
        f"stages {from_stage} and {to_stage} are not adjacent"
    )


def pipeline_resource_names(stages: int) -> tuple[str, ...]:
    """Registration order of the pipeline resources (compute first, then links)."""
    names = [stage_resource(stage) for stage in range(stages)]
    for stage in range(stages - 1):
        names.append(f"link{stage}.fwd")
        names.append(f"link{stage}.bwd")
    return tuple(names)


def pipeline_resources(engine, stages: int) -> None:
    """Register per-stage compute and per-boundary link resources on ``engine``."""
    for stage in range(stages):
        engine.add_resource(stage_resource(stage),
                            f"pipeline stage {stage} compute (F/B/W)")
    for stage in range(stages - 1):
        engine.add_resource(f"link{stage}.fwd",
                            f"activations link stage {stage} -> {stage + 1}")
        engine.add_resource(f"link{stage}.bwd",
                            f"gradient link stage {stage + 1} -> {stage}")


def _node_key(node: ScheduledNode) -> tuple:
    """Id-map key of a node: comm nodes need the payload (a middle stage both
    sends activations and sends gradients for the same microbatch)."""
    return (node.op, node.payload, node.stage, node.microbatch)


@dataclass
class LoweredPipeline:
    """The op rows of one schedule plus the bookkeeping analyses need."""

    schedule: PipelineSchedule
    timing: PipelineTiming
    batch: OpBatch
    resource_names: tuple[str, ...]
    #: ``(op, payload, stage, microbatch)`` -> op id, for every node incl. comm.
    node_ids: dict[tuple, int] = field(default_factory=dict)

    def op_id(self, op: PipeOp, stage: int, microbatch: int,
              payload: PipeOp | None = None) -> int:
        """Op id of one node (compute nodes have no payload)."""
        return self.node_ids[(op, payload, stage, microbatch)]

    @property
    def op_count(self) -> int:
        return len(self.batch.rows)

    def stage_resources(self) -> tuple[str, ...]:
        """The compute resources, in stage order (bubble accounting reads these)."""
        return tuple(stage_resource(s) for s in range(self.schedule.stages))


def _durations(timing: PipelineTiming) -> dict[PipeOp, float]:
    return {
        PipeOp.F: timing.f_seconds,
        PipeOp.B: timing.b_seconds,
        PipeOp.W: timing.w_seconds,
        PipeOp.SEND: timing.comm_seconds,
        PipeOp.RECV: 0.0,
    }


def lower_schedule(schedule: PipelineSchedule, timing: PipelineTiming) -> LoweredPipeline:
    """Emit the op rows of ``schedule`` under ``timing``.

    Communication nodes are inserted if the schedule is compute-only.  An op's
    id is its row index; ids are pre-assigned in one pass over all stages so
    that dependency references to later-emitted rows (gradient RECVs waiting
    on downstream SENDs) resolve, and the rows follow in the same stage-major
    order.
    """
    full = insert_comm_nodes(schedule)
    durations = _durations(timing)
    nodes = [node for order in full.orders for node in order]
    node_ids = {_node_key(node): row for row, node in enumerate(nodes)}
    last = full.stages - 1

    def deps_of(node: ScheduledNode) -> tuple[int, ...]:
        stage, mb = node.stage, node.microbatch
        if node.op is PipeOp.F:
            if stage == 0:
                return ()
            return (node_ids[(PipeOp.RECV, PipeOp.F, stage, mb)],)
        if node.op is PipeOp.B:
            deps = [node_ids[(PipeOp.F, None, stage, mb)]]
            if stage < last:
                deps.append(node_ids[(PipeOp.RECV, PipeOp.B, stage, mb)])
            return tuple(deps)
        if node.op is PipeOp.W:
            return (node_ids[(PipeOp.B, None, stage, mb)],)
        if node.op is PipeOp.SEND:
            return (node_ids[(node.payload, None, stage, mb)],)
        # RECV: waits on the peer stage's SEND of the same payload.
        return (node_ids[(PipeOp.SEND, node.payload, node.peer, mb)],)

    batch = OpBatch()
    rows = batch.rows
    for node in nodes:
        if node.op is PipeOp.SEND:
            resource = link_resource(node.stage, node.peer)
            payload_bytes = timing.comm_bytes
        else:
            resource = stage_resource(node.stage)
            payload_bytes = 0
        rows.append((
            str(node),
            _OP_KINDS[node.op],
            resource,
            durations[node.op],
            deps_of(node),
            node.op.value,
            node.microbatch,
            payload_bytes,
            0,
        ))
    return LoweredPipeline(
        schedule=full,
        timing=timing,
        batch=batch,
        resource_names=pipeline_resource_names(full.stages),
        node_ids=node_ids,
    )

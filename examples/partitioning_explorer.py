"""Inside the partitioner: how layer assignment reacts to hardware.

Shows, for one heterogeneous virtual worker (one GPU of each type):

* how the min-max partition shifts as the pipeline depth Nm grows (the
  memory constraint tightens on early stages, §4);
* what the GPU-ordering search (our extension over the paper's fixed
  order) buys;
* the per-stage period/memory table a systems person would read before
  deploying.

To watch a pipeline execute (the paper's Figure 1), export a timeline of
a checked-in scenario and open it in chrome://tracing or Perfetto:

    repro trace examples/specs/trace_demo.json --out demo.trace.json

Run:  python examples/partitioning_explorer.py
"""

from repro import build_resnet152, paper_cluster, plan_virtual_worker
from repro.pipeline import measure_pipeline
from repro.units import fmt_bytes


def main() -> None:
    cluster = paper_cluster()
    model = build_resnet152()
    vw = [cluster.gpus[0], cluster.gpus[4], cluster.gpus[8], cluster.gpus[12]]
    print(f"virtual worker: {' '.join(str(g) for g in vw)}")
    print(f"model: {model.summary()}\n")

    print("=== partition vs pipeline depth (natural order V-R-G-Q) ===")
    for nm in (1, 3, 5, 7):
        plan = plan_virtual_worker(
            model, vw, nm, cluster.interconnect, search_orderings=False
        )
        layers = [s.layer_count for s in plan.stages]
        periods = [f"{s.period * 1e3:5.1f}" for s in plan.stages]
        print(
            f"Nm={nm}:  layers/stage={layers}  period(ms)={periods}  "
            f"bottleneck={plan.bottleneck_period * 1e3:.1f}ms"
        )

    print("\n=== stage detail at Nm=5 ===")
    plan = plan_virtual_worker(model, vw, 5, cluster.interconnect, search_orderings=False)
    for stage in plan.stages:
        print(
            f"  stage{stage.index} {stage.gpu.spec.name:<16} "
            f"layers[{stage.start:2d},{stage.stop:2d})  "
            f"fwd {stage.fwd_compute * 1e3:5.1f}ms  bwd {stage.bwd_compute * 1e3:5.1f}ms  "
            f"comm-in {stage.fwd_comm_in * 1e3:5.1f}ms  "
            f"mem {fmt_bytes(stage.memory_bytes)} (m={stage.in_flight})"
        )

    print("\n=== GPU ordering: the paper's fixed order vs searched ===")
    for label, search in (("natural V-R-G-Q", False), ("searched", True)):
        plan = plan_virtual_worker(
            model, vw, 5, cluster.interconnect, search_orderings=search
        )
        metrics = measure_pipeline(plan, cluster.interconnect, model.batch_size)
        order = "-".join(s.gpu.code for s in plan.stages)
        print(
            f"  {label:<16} order={order}  "
            f"bottleneck={plan.bottleneck_period * 1e3:5.1f}ms  "
            f"measured {metrics.throughput:5.0f} images/s"
        )

    print("\n=== the pipeline, live (Figure 1 of the paper) ===")
    print("  repro trace examples/specs/trace_demo.json --out demo.trace.json")
    print("  then open demo.trace.json in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()

"""The paper's motivating scenario: making retired 'whimpy' GPUs useful.

Act 1 — ResNet-152 is too large for a 6 GB RTX 2060: data parallelism
on a node of them is *impossible* (the paper's Table 4 'X').

Act 2 — the same four whimpy GPUs, aggregated into one HetPipe virtual
worker, train the model.

Act 3 — attach the whimpy node to your shiny TITAN V node and
throughput keeps climbing (Table 4's story: 'making use of the earlier
whimpy systems allows for faster training of larger models').

Run:  python examples/whimpy_cluster.py
"""

from repro import (
    ClusterSpec,
    MemoryCapacityError,
    ModelSpec,
    PipelineSpec,
    RunSpec,
    allocate,
    build_resnet152,
    max_feasible_nm,
    measure_horovod,
    measure_pipeline,
    measure_run,
    paper_cluster,
    plan_virtual_worker,
    single_type_cluster,
)


def main() -> None:
    model = build_resnet152()
    print(f"model: {model.summary()}\n")

    # --- Act 1: DP on whimpy GPUs is impossible -----------------------
    whimpy = single_type_cluster("G")  # 4x GeForce RTX 2060 (6 GB)
    print("Act 1: Horovod on four RTX 2060s?")
    try:
        measure_horovod(whimpy, model)
    except MemoryCapacityError as exc:
        print(f"  -> impossible: {exc}\n")

    # --- Act 2: aggregate them into a virtual worker ------------------
    print("Act 2: one HetPipe virtual worker over the same four GPUs")
    plan = plan_virtual_worker(
        model, whimpy.gpus, 2, whimpy.interconnect, search_orderings=False
    )
    metrics = measure_pipeline(plan, whimpy.interconnect, model.batch_size)
    print(f"  -> {metrics.throughput:.0f} images/s  "
          f"(stages: {[s.layer_count for s in plan.stages]} layers, Nm={plan.nm})\n")

    # --- Act 3: whimpy GPUs accelerate a high-end node ----------------
    print("Act 3: scaling by attaching ever-whimpier nodes (ED policy)")
    for codes in ("V", "VG", "VQG"):
        cluster = paper_cluster(codes)
        assignment = (
            allocate(cluster, "NP") if len(cluster.nodes) == 1 else allocate(cluster, "ED")
        )
        # deep enough to keep every pipeline stage busy, within memory
        cap = min(
            max_feasible_nm(model, vw, cluster.interconnect, search_orderings=False)
            for vw in assignment.virtual_workers
        )
        nm = min(cap, len(assignment.virtual_workers[0]) + 2)
        plans = [
            plan_virtual_worker(model, vw, nm, cluster.interconnect, search_orderings=False)
            for vw in assignment.virtual_workers
        ]
        run = RunSpec(
            cluster=ClusterSpec(codes),
            model=ModelSpec("resnet152"),
            pipeline=PipelineSpec(
                nm=nm, allocation=assignment.policy, placement="local",
                warmup_waves=4, measured_waves=12,
            ),
        )
        metrics = measure_run(run, cluster=cluster, model=model, plans=plans)
        print(
            f"  {len(cluster.gpus):2d} GPUs [{codes:<3}]  "
            f"{metrics.throughput:6.0f} images/s  "
            f"({assignment.num_virtual_workers} virtual workers x Nm={nm})"
        )


if __name__ == "__main__":
    main()

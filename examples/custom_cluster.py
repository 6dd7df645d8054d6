"""Bring your own hardware: HetPipe planning on a user-defined cluster.

Defines two GPU models that are NOT in the paper (an 'A6000-like' big
card and a 'laptop-class' small one), builds a 3-node cluster out of
them, and walks the full HetPipe pipeline: feasibility, allocation,
Nm selection, partitioning, and end-to-end measurement — everything a
user with their own heterogeneous machines would do.

Run:  python examples/custom_cluster.py
"""

from repro import (
    GPUSpec,
    InterconnectSpec,
    ModelSpec,
    Node,
    PipelineSpec,
    RunSpec,
    build_resnet152,
    measure_horovod,
    measure_run,
    max_feasible_nm,
    plan_virtual_worker,
)
from repro.allocation import equal_distribution
from repro.cluster.topology import Cluster
from repro.errors import MemoryCapacityError
from repro.units import gb, gb_per_s, gbps, us

BIG = GPUSpec(
    name="BigCard 48G",
    code="B",
    architecture="Custom",
    cuda_cores=10752,
    boost_clock_mhz=1800,
    memory_bytes=gb(48),
    memory_bandwidth=gb_per_s(768),
)

SMALL = GPUSpec(
    name="LaptopCard 4G",
    code="S",
    architecture="Custom",
    cuda_cores=1280,
    boost_clock_mhz=1500,
    memory_bytes=gb(4),
    memory_bandwidth=gb_per_s(192),
)


def main() -> None:
    interconnect = InterconnectSpec(
        ib_bandwidth=gbps(100), ib_scale=0.3, ib_latency=us(80)  # newer fabric
    )
    cluster = Cluster(
        [
            Node(node_id=0, gpu_spec=BIG, gpu_count=2),
            Node(node_id=1, gpu_spec=SMALL, gpu_count=2),
            Node(node_id=2, gpu_spec=SMALL, gpu_count=2),
        ],
        interconnect,
    )
    model = build_resnet152()
    print(f"cluster: {cluster}")
    print(f"model:   {model.summary()}\n")

    print("Horovod feasibility:")
    try:
        horovod = measure_horovod(cluster, model)
        print(
            f"  runs on {horovod.num_gpus}/{len(cluster.gpus)} GPUs "
            f"({horovod.excluded_gpus} excluded): {horovod.throughput:.0f} images/s"
        )
    except MemoryCapacityError as exc:
        print(f"  impossible: {exc}")

    # Two virtual workers, each B + S + S (one GPU per node).
    assignment = equal_distribution(cluster)
    print(f"\nallocation {assignment.describe()}")

    cap = min(
        max_feasible_nm(model, vw, interconnect, search_orderings=False)
        for vw in assignment.virtual_workers
    )
    nm = min(cap, 4)
    print(f"Maxm across virtual workers: {cap}; using Nm={nm}")

    plans = [
        plan_virtual_worker(model, vw, nm, interconnect, search_orderings=False)
        for vw in assignment.virtual_workers
    ]
    print(plans[0].describe())

    # The RunSpec carries the run's knobs; its cluster section is not
    # read, since the custom cluster is passed in built.
    run = RunSpec(
        model=ModelSpec("resnet152"),
        pipeline=PipelineSpec(
            nm=nm, d=1, placement="local", warmup_waves=4, measured_waves=12
        ),
    )
    metrics = measure_run(run, cluster=cluster, model=model, plans=plans)
    print(
        f"\nHetPipe on the custom cluster: {metrics.throughput:.0f} images/s "
        f"({metrics.num_virtual_workers} VWs, D={metrics.d})"
    )


if __name__ == "__main__":
    main()

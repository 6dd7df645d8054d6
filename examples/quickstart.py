"""Quickstart: train a large DNN on a heterogeneous cluster with HetPipe.

Builds the paper's 16-GPU testbed, partitions VGG-19 into four virtual
workers with the ED policy, runs the full WSP system (pipelines +
parameter server) and compares against the Horovod baseline.

Run:  python examples/quickstart.py
"""

from repro import (
    ModelSpec,
    PipelineSpec,
    RunSpec,
    allocate,
    build_vgg19,
    measure_horovod,
    measure_run,
    paper_cluster,
    plan_virtual_worker,
)
from repro.units import mib


def main() -> None:
    # 1. The cluster: 4 nodes x 4 GPUs (TITAN V / TITAN RTX / RTX 2060 /
    #    Quadro P4000), PCIe inside nodes, 56 Gb/s InfiniBand between.
    cluster = paper_cluster()
    print(f"cluster: {cluster}")

    # 2. The workload: VGG-19 at batch 32 (548 MiB of parameters).
    model = build_vgg19()
    print(f"model:   {model.summary()}\n")

    # 3. Carve the cluster into virtual workers: ED gives four identical
    #    workers holding one GPU of each type.
    assignment = allocate(cluster, "ED")
    print(f"allocation {assignment.describe()}")

    # 4. Partition the model into one stage per GPU, Nm = 4 concurrent
    #    minibatches per worker (the min-max partitioner handles the
    #    heterogeneous speeds and memory sizes).
    plans = [
        plan_virtual_worker(model, vw, 4, cluster.interconnect, search_orderings=False)
        for vw in assignment.virtual_workers
    ]
    for plan in plans[:1]:
        print(plan.describe())
    print()

    # 5. Run HetPipe: pipelined model parallelism inside each worker,
    #    WSP data parallelism across them (D = 0, local placement).  A
    #    RunSpec describes the run; the objects built above are reused.
    run = RunSpec(
        model=ModelSpec("vgg19"),
        pipeline=PipelineSpec(
            nm=4, d=0, allocation="ED", placement="local",
            warmup_waves=4, measured_waves=12,
        ),
    )
    metrics = measure_run(run, cluster=cluster, model=model, plans=plans)
    print(
        f"HetPipe (ED-local, D=0): {metrics.throughput:7.1f} images/s   "
        f"sync cross-node: {metrics.sync_cross_node_bytes_per_wave / mib(1):.0f} MiB/wave"
    )

    # 6. The baseline: Horovod BSP, one whole-model replica per GPU.
    horovod = measure_horovod(cluster, model)
    print(
        f"Horovod  ({horovod.num_gpus} GPUs):      {horovod.throughput:7.1f} images/s   "
        f"allreduce: {horovod.allreduce_time * 1e3:.0f} ms/iteration"
    )
    print(f"\nHetPipe speedup: {metrics.throughput / horovod.throughput:.2f}x")


if __name__ == "__main__":
    main()

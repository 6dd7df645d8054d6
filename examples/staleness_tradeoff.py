"""The WSP staleness trade-off: what does D buy, and what does it cost?

Sweeps the global staleness bound D for HetPipe on the full cluster and
reports (a) system-side effects from the performance simulator —
throughput and time spent waiting for the global weights — and (b)
learning-side effects from real numpy SGD executed under the exact WSP
semantics in virtual time: accuracy reached per wall-clock second.

This is the machinery behind Figure 6 and the §8.4 analysis.

Run:  python examples/staleness_tradeoff.py
"""

from dataclasses import replace

from repro import (
    ModelSpec,
    PipelineSpec,
    RunSpec,
    allocate,
    build_vgg19,
    measure_run,
    paper_cluster,
    plan_virtual_worker,
)
from repro.training import WSPTrainer, WSPTrainingConfig, summarize
from repro.training.nn import make_classification


def main() -> None:
    cluster = paper_cluster()
    model = build_vgg19()
    assignment = allocate(cluster, "ED")
    plans = [
        plan_virtual_worker(model, vw, 4, cluster.interconnect, search_orderings=False)
        for vw in assignment.virtual_workers
    ]
    base = RunSpec(
        model=ModelSpec("vgg19"),
        pipeline=PipelineSpec(
            nm=4, placement="local", jitter=0.08, warmup_waves=3, measured_waves=10
        ),
    )
    dataset = make_classification()
    dims = [dataset.feature_dim, 64, 32, dataset.num_classes]

    print(f"{'D':>3}  {'img/s':>6}  {'wait/wave':>10}  {'acc@end':>8}  {'t2a(0.65)':>9}")
    for d in (0, 1, 4, 16, 32):
        # system side: throughput and waiting, with compute jitter
        run = replace(base, pipeline=replace(base.pipeline, d=d))
        perf = measure_run(run, cluster=cluster, model=model, plans=plans)
        intervals = tuple(
            perf.window / done for done in perf.per_vw_minibatches
        )
        # learning side: real SGD at that pace under WSP semantics
        trainer = WSPTrainer(
            WSPTrainingConfig(
                num_virtual_workers=len(plans), nm=4, d=d, lr=0.01,
                minibatch_interval=intervals, jitter=0.12, stall_prob=0.005,
                seed=7,
            ),
            dataset,
            dims,
        )
        curve = trainer.train(max_minibatches=20000, eval_every=400)
        result = summarize(f"D={d}", curve, target=0.65, window=7)
        t2a = "never" if not result.reached else f"{result.time_to_target:7.0f}s"
        print(
            f"{d:>3}  {perf.throughput:6.0f}  {perf.avg_wait_per_wave * 1e3:8.0f}ms"
            f"  {result.final_accuracy:8.3f}  {t2a:>9}"
        )
    print(
        "\nsmall D: tight sync, more waiting; huge D: no waiting but stale"
        "\ngradients slow learning — the sweet spot is a small positive D (§8.4)."
    )


if __name__ == "__main__":
    main()

"""Figure 5 regeneration: ResNet-152 accuracy vs time (12 vs 16 GPUs)."""

from conftest import run_once, sha256_text

from repro.experiments import run_fig5
from repro.experiments.report import ascii_curve

#: sha256 of the repr of every HetPipeMetrics the perf-sim measured
#: (Nm probes, then each configuration's run) — pins the simulated
#: pace the SGD trains at, independently of the SGD
MEASUREMENTS_SHA256 = "576c3e05619aace61cec4bc827ac99b1285e01a42d37b2b5c7f28127919e1b4d"


def test_bench_fig5_resnet_convergence(benchmark, show, hetpipe_measurements):
    result = run_once(benchmark, run_fig5)
    show(result.render())
    assert sha256_text(repr(hetpipe_measurements)) == MEASUREMENTS_SHA256
    for label, run in result.runs.items():
        show(ascii_curve([(t, a) for t, _, a in run.curve], width=60, height=10, label=label))
    horovod = result.runs["Horovod-12"]
    assert result.runs["HetPipe-12"].speedup_vs(horovod) > 0.15  # paper: 0.35
    assert result.runs["HetPipe-16"].speedup_vs(horovod) > 0.25  # paper: 0.39

"""Figure 6 regeneration: VGG-19 accuracy vs time across D."""

from conftest import run_once, sha256_text

from repro.experiments import run_fig6
from repro.experiments.report import ascii_curve

#: sha256 of the repr of every HetPipeMetrics the perf-sim measured
#: (Nm probes, then each configuration's run) — pins the simulated
#: pace the SGD trains at, independently of the SGD
MEASUREMENTS_SHA256 = "9832e41490fafeb0a5f235a4022959e8b35fc0c64c852eadd531d0971ddc18e6"


def test_bench_fig6_vgg_convergence(benchmark, show, hetpipe_measurements):
    result = run_once(benchmark, run_fig6)
    show(result.render())
    assert sha256_text(repr(hetpipe_measurements)) == MEASUREMENTS_SHA256
    for label, run in result.runs.items():
        show(ascii_curve([(t, a) for t, _, a in run.curve], width=60, height=10, label=label))
    horovod = result.runs["Horovod"]
    d0, d4, d32 = result.runs["D=0"], result.runs["D=4"], result.runs["D=32"]
    assert d0.speedup_vs(horovod) > 0.15  # paper: 0.29
    assert d4.mean_time_to_target < d0.mean_time_to_target  # paper: 28% faster
    # D=32 saves no further time and staleness grows (paper: 4.7% worse)
    assert d32.mean_time_to_target >= d4.mean_time_to_target * 0.999

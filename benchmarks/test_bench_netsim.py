"""Network contention on the paper cluster: dedicated vs shared fabric.

The dedicated model gives every PS stream and stage boundary a private
link, so a node's NIC is infinitely parallel; the shared fabric makes
the 16 PS push/pull streams and the activation traffic contend for four
NICs and one IB switch.  The gap between the two columns is the modeled
cost of the contention the paper's §7 communication model is about —
and the per-resource table shows the IB fabric as the saturated
resource, which is exactly why HetPipe bounds staleness instead of
synchronizing every minibatch.
"""

from conftest import run_once, sha256_text

from repro.experiments import run_netsim
from repro.experiments.report import format_table

#: sha256 of each rendered report (byte-identity pin)
RENDER_SHA256 = {
    "vgg19": "706b061c22da57ee1c0fdf14743f2720747e87bd43a79a9ef6ab25fdfd84b270",
    "resnet152/grpc_tf112": "ab6b2f56f320e0099f44aeb9d6e5640ceef9d7a18630465bbb0e1c85f7df663d",
    "resnet152/nccl_modern": "c5178e97d54872d20c72f13eddb181436487a405fd8505e93ba4aba9997ed978",
}


def test_bench_netsim_vgg19(benchmark, show):
    result = run_once(
        benchmark,
        lambda: run_netsim(model_name="vgg19", allocation="ED", nm=2, top=6),
    )
    show(result.render())
    assert sha256_text(result.render()) == RENDER_SHA256["vgg19"]
    assert result.dedicated_throughput > 0
    assert result.shared_throughput > 0
    # contention can only cost throughput on a multi-node deployment
    assert result.shared_throughput <= result.dedicated_throughput
    assert result.slowdown >= 1.0
    # the scarce resource must be network-side (NIC or IB), not PCIe
    hottest = result.resources[0]
    assert hottest[1] in ("nic", "ib_fabric")
    assert result.queue_delay_total > 0


def test_bench_netsim_profiles(benchmark, show):
    """The modern-stack profile relieves the IB bottleneck."""

    def run_both():
        return {
            profile: run_netsim(
                model_name="resnet152", allocation="ED", nm=2, top=4, profile=profile
            )
            for profile in ("grpc_tf112", "nccl_modern")
        }

    results = run_once(benchmark, run_both)
    show(
        format_table(
            ["profile", "dedicated img/s", "shared img/s", "slowdown"],
            [
                (
                    profile,
                    f"{r.dedicated_throughput:.1f}",
                    f"{r.shared_throughput:.1f}",
                    f"{r.slowdown:.2f}x",
                )
                for profile, r in results.items()
            ],
            title="netsim — calibration profiles on VRGQ (ED, Nm=2)",
        )
    )
    for profile, r in results.items():
        assert sha256_text(r.render()) == RENDER_SHA256[f"resnet152/{profile}"]
    old, new = results["grpc_tf112"], results["nccl_modern"]
    assert new.shared_throughput > old.shared_throughput
    assert new.slowdown <= old.slowdown

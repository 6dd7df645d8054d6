"""§8.4 regeneration: waiting/idle time vs D."""

from conftest import run_once, sha256_text

from repro.experiments import run_sync_overhead

#: sha256 of each model's rendered table (byte-identity pin)
RENDER_SHA256 = {
    "vgg19": "7d3ae4be189f2a53b4a8026097f9acec6fd51f6e1aed1bd99eeb9359b5c9b8b9",
    "resnet152": "6c164c7e6ea9ec89bd9e7a0e4b86ca0643b6413832620d34d59cc2db412af70d",
}


def test_bench_sync_overhead_vgg19(benchmark, show):
    result = run_once(benchmark, lambda: run_sync_overhead("vgg19"))
    show(result.render())
    assert sha256_text(result.render()) == RENDER_SHA256["vgg19"]
    # paper: waiting at D=4 ~ 62% of D=0; idle a small fraction of waiting
    assert result.row(4).wait_ratio_vs_d0 < 0.8
    assert result.row(4).idle_fraction <= 0.25
    assert result.row(4).throughput >= result.row(0).throughput


def test_bench_sync_overhead_resnet152(benchmark, show):
    result = run_once(benchmark, lambda: run_sync_overhead("resnet152"))
    show(result.render())
    assert sha256_text(result.render()) == RENDER_SHA256["resnet152"]
    assert result.row(4).wait_per_wave <= result.row(0).wait_per_wave

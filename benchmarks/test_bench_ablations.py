"""Design-choice ablations (DESIGN.md §6)."""

import pytest
from conftest import run_once, sha256_text

from repro.experiments import run_ablations

#: sha256 of each model's full rendered table (byte-identity pin)
RENDER_SHA256 = {
    "resnet152": "109c4414ae8a098f5c32a7f991184c65de36e0fe0843d4de4433255ca3a8957d",
    "vgg19": "20dd6ef5e990ecd9509560089d7f977b52776034d17beb30ebd23b7986da00aa",
}


def test_bench_ablations_resnet152(benchmark, show):
    result = run_once(benchmark, lambda: run_ablations("resnet152"))
    show(result.render())
    assert sha256_text(result.render()) == RENDER_SHA256["resnet152"]

    push = result.values("push-granularity-traffic")
    assert push["per-minibatch"] > 2 * push["per-wave"]  # WSP's saving

    ordering = result.values("gpu-ordering")
    assert ordering["searched"] >= ordering["natural"]  # our extension

    style = result.values("pipeline-style")
    assert style["hetpipe-continuous"] > style["gpipe-flush"]  # §2.3
    # 1F1B changes dispatch order, not steady-state rate, on this plan
    assert style["pipedream-1f1b"] == pytest.approx(style["hetpipe-continuous"], rel=0.15)

    recompute = result.values("recompute-maxm")
    assert recompute["on"] > recompute["off"]  # smaller stashes -> deeper pipe

    d_sweep = result.values("np-d-sweep")
    assert d_sweep["D=4"] > d_sweep["D=0"]  # staleness absorbs stragglers


def test_bench_ablations_vgg19(benchmark, show):
    result = run_once(benchmark, lambda: run_ablations("vgg19"))
    show(result.render())
    assert sha256_text(result.render()) == RENDER_SHA256["vgg19"]
    style = result.values("pipeline-style")
    assert style["hetpipe-continuous"] > style["gpipe-flush"]

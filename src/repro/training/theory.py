"""Theorem 1 / Lemma 1 utilities (§6 and Appendix A).

* :func:`regret_bound` — the paper's bound
  ``R[W] <= 4 M L sqrt((2 s_g + s_l) N / T)`` with ``s_l = s_local + 1``.
* :func:`lemma1_cardinality_bound` — ``|R_t| + |Q_t| <= (2 s_g + s_l)(N-1)``.
* :func:`measure_regret` — empirical regret of a WSP run on a *convex*
  objective (linear softmax classifier), comparing the noisy-sequence
  losses against the loss of a reference minimizer on the same minibatch
  sequence.  The property tests assert the measured regret decays and
  respects the bound's shape.

The throughput envelopes the fuzz harness checks every run against live
in :mod:`repro.training.envelopes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.training.nn.data import SyntheticDataset
from repro.training.nn.loss import softmax_cross_entropy
from repro.training.nn.network import MLP
from repro.training.wsp_trainer import WSPTrainer, WSPTrainingConfig
from repro.wsp.staleness import global_staleness


def regret_bound(t: int, m: float, l: float, s_global: int, s_local: int, n_workers: int) -> float:
    """Theorem 1: ``4 M L sqrt((2 s_g + s_l) N / T)`` with s_l = s_local+1."""
    if t <= 0:
        raise ConfigurationError("T must be positive")
    s_l = s_local + 1
    return 4.0 * m * l * math.sqrt((2 * s_global + s_l) * n_workers / t)


def lemma1_cardinality_bound(s_global: int, s_local: int, n_workers: int) -> int:
    """Lemma 1: ``|R_t| + |Q_t| <= (2 s_g + s_l)(N - 1)``."""
    s_l = s_local + 1
    return (2 * s_global + s_l) * (n_workers - 1)


def theoretical_sigma(m: float, l: float, s_global: int, s_local: int, n_workers: int) -> float:
    """The step-size constant of Theorem 1: ``M / (L sqrt((2s_g+s_l)N))``."""
    s_l = s_local + 1
    return m / (l * math.sqrt((2 * s_global + s_l) * n_workers))


@dataclass(frozen=True)
class RegretMeasurement:
    """Empirical regret of a WSP run on a convex problem."""

    t_values: tuple[int, ...]
    regrets: tuple[float, ...]
    bound_values: tuple[float, ...]
    s_global: int
    s_local: int
    n_workers: int


def measure_regret(
    dataset: SyntheticDataset,
    num_virtual_workers: int = 4,
    nm: int = 4,
    d: int = 1,
    total_minibatches: int = 2000,
    lr: float = 0.05,
    seed: int = 3,
    reference_steps: int = 4000,
) -> RegretMeasurement:
    """Run WSP on a convex (linear softmax) objective and measure regret.

    The per-step functions ``f_t`` are the minibatch losses evaluated at
    the noisy weights the run actually used; ``w*`` is approximated by
    long plain-SGD training on the same data, and ``f(w*)`` is the mean
    loss of the recorded minibatches at ``w*``.
    """
    dims = [dataset.feature_dim, dataset.num_classes]  # linear => convex
    recorded: list[tuple[np.ndarray, np.ndarray, float]] = []

    class _RecordingTrainer(WSPTrainer):
        def _start_minibatch(self, vw: int, p: int) -> None:  # noqa: N802
            state = self.states[vw]
            x, y = self.dataset.minibatch(self.rng, self.config.batch_size)
            self.model.set_params(state.w_local)
            loss, grad = self.model.loss_and_grad(x, y)
            recorded.append((x, y, loss))
            state.stashed_updates[p] = -self.config.lr * grad
            state.in_flight += 1
            completion = max(self.now, state.last_completion) + self._interval(vw)
            state.last_completion = completion
            self._schedule(completion, vw, "complete", p)

    config = WSPTrainingConfig(
        num_virtual_workers=num_virtual_workers,
        nm=nm,
        d=d,
        lr=lr,
        seed=seed,
        max_minibatches=total_minibatches,
    )
    trainer = _RecordingTrainer(config, dataset, dims)
    trainer.train(max_minibatches=total_minibatches, eval_every=total_minibatches)

    # Reference minimizer: long full-batch-ish SGD on the same objective.
    ref = MLP(dims, seed=seed)
    rng = np.random.default_rng(seed + 99)
    w = ref.get_params()
    for step in range(reference_steps):
        x, y = dataset.minibatch(rng, 128)
        grad = ref.gradient_at(w, x, y)
        w = w - (0.5 / math.sqrt(1 + step)) * grad

    # f(w*) per recorded minibatch.
    ref.set_params(w)
    star_losses = []
    for x, y, _ in recorded:
        logits = ref.forward(x)
        loss, _ = softmax_cross_entropy(logits, y)
        star_losses.append(loss)

    noisy_losses = [loss for _, _, loss in recorded]
    t_values = []
    regrets = []
    bounds = []
    s_local = nm - 1
    s_g = global_staleness(d, s_local)
    # crude (M, L) estimates for the bound's scale
    m_const = float(np.linalg.norm(w) + 1.0)
    l_const = 2.0
    total = len(recorded)
    for t in range(max(1, total // 10), total + 1, max(1, total // 10)):
        regret = float(np.mean(noisy_losses[:t]) - np.mean(star_losses[:t]))
        t_values.append(t)
        regrets.append(regret)
        bounds.append(regret_bound(t, m_const, l_const, s_g, s_local, num_virtual_workers))
    return RegretMeasurement(
        t_values=tuple(t_values),
        regrets=tuple(regrets),
        bound_values=tuple(bounds),
        s_global=s_g,
        s_local=s_local,
        n_workers=num_virtual_workers,
    )


__all__ = [
    "RegretMeasurement",
    "lemma1_cardinality_bound",
    "measure_regret",
    "regret_bound",
    "theoretical_sigma",
]

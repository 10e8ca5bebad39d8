"""Recover a switching linear system from noisy observations.

The ground truth follows one rank-2 rotation for the first half of the
recording and a different one for the second half.  A rank-8 fit with the
total-variation penalty finds piecewise-constant temporal modes, the true
change point, and the true rank (4 = two planes of 2), with prediction
error at the noise floor.
"""

import numpy as np

from lrtvar import (
    Hyperparams,
    Regularizer,
    build_snapshots,
    cluster_temporal_modes,
    fit,
    simulate_switching,
)

N, TAU, SIGMA, M = 10, 200, 0.5, 20

truth = simulate_switching(N=N, tau=TAU, sigma=SIGMA, seed=0)
pair = build_snapshots(truth.series, M=M)
print(f"observations: {N} channels x {TAU + 1} samples, noise sd {SIGMA}")
print(f"windowed into T={pair.T} windows of M={M} transitions\n")

params = Hyperparams(R=8, eta=1.0 / N, reg=Regularizer("tv", 5.0), seed=0)
model, report = fit(pair, params)
print(f"converged in {report.iterations} iterations ({report.termination}), "
      f"rmse {report.rmse_trace[-1]:.3f} vs noise floor {SIGMA}")

normalized = model.normalize()
print(f"component scales: {np.round(normalized.lam, 2)}")
print(f"effective rank at 10% threshold: {model.effective_rank(0.1)} (true rank 4)\n")

print("temporal modes (rows = windows); note the block structure:")
for k in range(pair.T):
    row = " ".join(f"{v:+.2f}" for v in normalized.factors.U3[k, :4])
    print(f"  window {k}: {row}")

labels = cluster_temporal_modes(normalized.factors.U3, k=2, seed=0)
change = int(np.argmax(labels != labels[0]))
print(f"\nk=2 clustering of the temporal modes: {labels.tolist()}")
print(f"regime change detected entering window {change} (0-based; truth switches there)")

A1_hat = model.slice(0)
A1 = truth.matrix_at(0)
print(f"\nfirst-window system matrix: |A1_hat - A1| operator norm = "
      f"{np.linalg.norm(A1_hat - A1, 2):.3f} (A1 itself has norm 1)")

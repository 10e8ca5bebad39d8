"""File-based workflow: CSV in, factor CSVs out, with standardization and an affine model.

Mirrors what the ``lrtvar`` command line does, but from the library: read a
series CSV, standardize the channels (which removes their static offsets),
window with an affine row so the fit can still absorb any residual drift,
and export the normalized factor matrices.
"""

import os
import tempfile

import numpy as np

from lrtvar import (
    Hyperparams,
    Regularizer,
    build_snapshots,
    export_factors,
    fit,
    read_series_csv,
    simulate_switching,
    standardize,
    write_series_csv,
)

# the directory and every file in it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="lrtvar_demo_") as workdir:
    # pretend an external tool produced this recording, with a per-channel offset
    truth = simulate_switching(N=6, tau=120, sigma=0.3, seed=1)
    offset_values = truth.series.values + np.linspace(-2, 2, 6)[:, None]
    series_path = os.path.join(workdir, "recording.csv")
    write_series_csv(series_path, type(truth.series)(values=offset_values), manifest="external recording")
    print(f"wrote {series_path}")

    series = read_series_csv(series_path)
    print(f"read back {series.n_channels} channels x {series.n_samples} samples")

    standardized, transform = standardize(series)
    print(f"channel means after standardization: {np.abs(standardized.values.mean(axis=1)).max():.1e}")

    pair = build_snapshots(standardized, M=10, affine=True)
    print(f"windowed with an affine row: predictors are {pair.N_in} x {pair.M} per window\n")

    model, report = fit(pair, Hyperparams(R=4, eta=0.2, reg=Regularizer("tv", 2.0), seed=1))
    print(f"fit: {report.iterations} iterations, rmse {report.rmse_trace[-1]:.3f}")
    print(f"the last column of each window's matrix is its offset term; window 0: "
          f"{np.round(model.slice(0)[:, -1], 3)} (near zero, as standardization removed the offsets)")

    paths = export_factors(model.normalize(), workdir, manifest="demo export")
    print("\nexported:")
    for path in paths:
        print(f"  {path}")

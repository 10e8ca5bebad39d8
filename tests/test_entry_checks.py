"""Every public array entry point rejects bad input with a named LrtvarError.

One table: each case builds an entry point's input with one defect (a wrong
number of dimensions, ragged or non-numeric entries, a NaN or infinite entry,
or a bool, float or string where an integer or real is taken) and names the
error it must raise.
"""

import dataclasses

import numpy as np
import pytest

from lrtvar.cp_model import CpFactors
from lrtvar.errors import (
    InvalidHyperparameterError,
    LrtvarError,
    NonFiniteError,
    SeriesTooShortError,
    ShapeMismatchError,
    finite_array,
)
from lrtvar.evaluation import (
    WindowedEstimate,
    cluster_temporal_modes,
    estimate_rmse,
    independent_fit,
    operator_norm_error,
    truth_window_average,
)
from lrtvar.regularizers import tv_prox_columns
from lrtvar.solver import Hyperparams, fit
from lrtvar.synthetic import GroundTruth, simulate_switching
from lrtvar.windowing import SnapshotPair, TimeSeries


def with_entry(a, value, index=0):
    """A float copy of ``a`` with its flat entry ``index`` set to ``value``."""
    out = np.array(a, dtype=float)
    out.flat[index] = value
    return out


SERIES = np.arange(12.0).reshape(2, 6)
X, Y = np.ones((2, 3, 4)), np.ones((2, 3, 4))
U = np.ones((3, 2))
LEFT = np.ones((4, 3, 2))
TRUTH = simulate_switching(N=3, tau=10, sigma=0.1, seed=17)
MODEL = CpFactors(np.ones((3, 2)), np.ones((3, 2)), np.arange(10.0).reshape(5, 2))
U3 = np.arange(12.0).reshape(6, 2)


def affine_pair():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.standard_normal((2, 4, 2)), np.ones((1, 4, 2))])
    return SnapshotPair(X=X, Y=rng.standard_normal((2, 4, 2)), affine=True)


CASES = {
    # TimeSeries.values
    "series-1d": (lambda: TimeSeries(SERIES[0]), ShapeMismatchError, "values must be 2-D"),
    "series-nan": (lambda: TimeSeries(with_entry(SERIES, np.nan)), NonFiniteError, "values"),
    "series-inf": (lambda: TimeSeries(with_entry(SERIES, -np.inf, 5)), NonFiniteError, "values"),
    "series-names": (lambda: TimeSeries(SERIES, ["a"]), ShapeMismatchError, "1 channel names for 2 channels"),
    "series-one-sample": (lambda: TimeSeries(SERIES[:, :1]), SeriesTooShortError, "2 samples, got 2 x 1"),
    # ragged or non-numeric values once raised numpy's bare ValueError
    "series-ragged": (lambda: TimeSeries([[1.0, 2.0], [3.0]]), ShapeMismatchError,
                      "values must be a rectangular array of real numbers"),
    "series-strings": (lambda: TimeSeries([["a", "b"]]), ShapeMismatchError,
                       "values must be a rectangular array of real numbers"),
    # SnapshotPair.X and .Y; fit on a NaN pair once failed with ExtremeScaleError "2^nan"
    "pair-X-2d": (lambda: SnapshotPair(X[:, :, 0], Y), ShapeMismatchError, "X must be 3-D"),
    "pair-Y-4d": (lambda: SnapshotPair(X, Y[..., None]), ShapeMismatchError, "Y must be 3-D"),
    "pair-X-nan": (lambda: SnapshotPair(with_entry(X, np.nan), Y), NonFiniteError, "X contains"),
    "pair-Y-inf": (lambda: SnapshotPair(X, with_entry(Y, np.inf, 7)), NonFiniteError, "Y contains"),
    "fit-nan-pair": (lambda: fit(SnapshotPair(with_entry(X, np.nan), Y), Hyperparams(R=1, eta=1.0)),
                     NonFiniteError, "X contains"),
    # M, T and P are read from the tensors, which must agree in them
    "pair-windows": (lambda: SnapshotPair(X, Y[:, :, :3]), ShapeMismatchError, "must cover the same nonempty windows"),
    "pair-rows": (lambda: SnapshotPair(np.ones((3, 3, 4)), Y), ShapeMismatchError,
                  r"X has 3 rows, expected P\*2 for an integer P >= 1"),
    "pair-rows-affine": (lambda: SnapshotPair(np.ones((4, 3, 4)), Y, affine=True), ShapeMismatchError,
                         r"X has 4 rows, expected P\*2 \+ 1"),
    "pair-rows-affine-none": (lambda: SnapshotPair(np.ones((2, 3, 4)), Y, affine=True), ShapeMismatchError,
                              r"X has 2 rows, expected P\*2 \+ 1"),
    "pair-windows-empty": (lambda: SnapshotPair(X[:, :, :0], Y[:, :, :0]), ShapeMismatchError,
                           "must cover the same nonempty windows"),
    "pair-channels-empty": (lambda: SnapshotPair(X[:0], Y[:0]), ShapeMismatchError,
                            "must cover the same nonempty windows"),
    # affine="no" was once kept and read as true, dropped=-3.5 kept as it was
    "pair-affine-str": (lambda: SnapshotPair(X, Y, affine="no"), InvalidHyperparameterError, "affine must be a bool"),
    "pair-affine-int": (lambda: SnapshotPair(np.ones((3, 3, 4)), Y, affine=1), InvalidHyperparameterError,
                        "affine must be a bool"),
    "pair-dropped-negative": (lambda: SnapshotPair(X, Y, dropped=-3), InvalidHyperparameterError,
                              "dropped must be an integer >= 0"),
    "pair-dropped-float": (lambda: SnapshotPair(X, Y, dropped=2.5), InvalidHyperparameterError,
                           "dropped must be an integer >= 0"),
    # CpFactors.U1, .U2 and .U3, slice and effective_rank
    "factors-U1-1d": (lambda: CpFactors(U[:, 0], U, U), ShapeMismatchError, "U1 must be 2-D"),
    "factors-U2-nan": (lambda: CpFactors(U, with_entry(U, np.nan), U), NonFiniteError, "U2 contains"),
    "factors-U3-inf": (lambda: CpFactors(U, U, with_entry(U, np.inf)), NonFiniteError, "U3 contains"),
    "factors-ranks": (lambda: CpFactors(U, U[:, :1], U), ShapeMismatchError, "column counts"),
    "factors-rank-0": (lambda: CpFactors(U[:, :0], U[:, :0], U[:, :0]), ShapeMismatchError, "rank >= 1"),
    # affine="no" was once kept, and read as true by export_factors' U2 label
    "factors-affine-str": (lambda: CpFactors(U, np.ones((4, 2)), np.ones((5, 2)), affine="no"),
                           InvalidHyperparameterError, "affine must be a bool"),
    "factors-affine-int": (lambda: CpFactors(U, np.ones((4, 2)), np.ones((5, 2)), affine=1),
                           InvalidHyperparameterError, "affine must be a bool"),
    # slice(True) once returned a (1, 3, 3) array, slice(1.0) failed inside numpy
    "slice-bool": (lambda: MODEL.slice(True), InvalidHyperparameterError, "k must be an integer"),
    "slice-float": (lambda: MODEL.slice(1.0), InvalidHyperparameterError, "k must be an integer"),
    "slice-above": (lambda: MODEL.slice(5), InvalidHyperparameterError, "need 0 <= k <= 4"),
    # effective_rank("0.1") once raised TypeError
    "rank-fraction-str": (lambda: MODEL.effective_rank("0.1"), InvalidHyperparameterError, "real number"),
    "rank-fraction-bool": (lambda: MODEL.effective_rank(True), InvalidHyperparameterError, "real number"),
    "rank-fraction-nan": (lambda: MODEL.effective_rank(np.nan), NonFiniteError, "threshold_fraction"),
    "rank-fraction-1": (lambda: MODEL.effective_rank(1.0), InvalidHyperparameterError, "< 1"),
    # WindowedEstimate.left and .right; NaN once raised a plain ValueError
    "estimate-left-2d": (lambda: WindowedEstimate(LEFT[0], LEFT), ShapeMismatchError, "left must be 3-D"),
    "estimate-left-nan": (lambda: WindowedEstimate(with_entry(LEFT, np.nan), LEFT), NonFiniteError, "left"),
    "estimate-right-inf": (lambda: WindowedEstimate(LEFT, with_entry(LEFT, np.inf)), NonFiniteError, "right"),
    "estimate-windows": (lambda: WindowedEstimate(LEFT, LEFT[:3]), ShapeMismatchError, "windows or rank"),
    # estimate_rmse, truth_window_average and operator_norm_error on windows or shapes that disagree
    "rmse-windows": (lambda: estimate_rmse(WindowedEstimate(LEFT, LEFT), SnapshotPair(X[:, :, :3], Y[:, :, :3])),
                     ShapeMismatchError, "4 estimate windows vs 3 data windows"),
    "truth-windows-beyond": (lambda: truth_window_average(TRUTH, 5, 3), ShapeMismatchError,
                             "5 windows of 3 transitions exceed the 10 available"),
    "opnorm-shapes": (lambda: operator_norm_error(WindowedEstimate(np.ones((5, 2, 2)), np.ones((5, 3, 2))), TRUTH),
                      ShapeMismatchError, r"estimate \(5, 2, 3\) vs truth \(5, 3, 3\)"),
    # GroundTruth.left and .right, which accepted NaN, and matrix_index
    "truth-right-2d": (lambda: GroundTruth(TRUTH.series, TRUTH.left, TRUTH.right[0], TRUTH.matrix_index),
                       ShapeMismatchError, "right must be 3-D"),
    "truth-left-nan": (lambda: GroundTruth(TRUTH.series, with_entry(TRUTH.left, np.nan), TRUTH.right,
                                           TRUTH.matrix_index), NonFiniteError, "left contains"),
    "truth-right-inf": (lambda: GroundTruth(TRUTH.series, TRUTH.left, with_entry(TRUTH.right, np.inf),
                                            TRUTH.matrix_index), NonFiniteError, "right contains"),
    "truth-index-float": (lambda: GroundTruth(TRUTH.series, TRUTH.left, TRUTH.right, TRUTH.matrix_index * 1.0),
                          ShapeMismatchError, "must hold integers"),
    # cluster_temporal_modes: a 1-D U3 once raised IndexError, a NaN row numpy's "Probabilities contain NaN"
    "cluster-1d": (lambda: cluster_temporal_modes(U3[:, 0], k=2), ShapeMismatchError, "U3 must be 2-D"),
    "cluster-nan-row": (lambda: cluster_temporal_modes(with_entry(U3, np.nan, 4), k=2), NonFiniteError, "U3"),
    "cluster-inf": (lambda: cluster_temporal_modes(with_entry(U3, np.inf), k=2), NonFiniteError, "U3"),
    "cluster-k-bool": (lambda: cluster_temporal_modes(U3, k=True), InvalidHyperparameterError, "k must be"),
    "cluster-k-float": (lambda: cluster_temporal_modes(U3, k=2.0), InvalidHyperparameterError, "k must be"),
    # tv_prox_columns once raised a bare ValueError for these
    "prox-1d": (lambda: tv_prox_columns(np.ones(3), 0.5, np.ones(3)), ShapeMismatchError, "V must be 2-D"),
    "prox-ragged": (lambda: tv_prox_columns([[1.0], [2.0, 3.0]], 0.5, np.ones((2, 1))), ShapeMismatchError,
                    "V must be a rectangular array"),
    "prox-strings": (lambda: tv_prox_columns([["a"], ["b"]], 0.5, np.ones((2, 1))), ShapeMismatchError,
                     "V must be a rectangular array"),
    "prox-weights-ragged": (lambda: tv_prox_columns(np.ones((2, 1)), 0.5, [[1.0], [2.0, 3.0]]), ShapeMismatchError,
                            "weight matrix must be a rectangular array"),
    "prox-weights-nan": (lambda: tv_prox_columns(np.ones((2, 1)), 0.5, [[1.0], [np.nan]]), NonFiniteError,
                         "^weight matrix contains non-finite entries$"),
    # independent_fit's rank-truncated fit of lagged or affine data
    "indep-rank-affine": (lambda: independent_fit(affine_pair(), rank=1), InvalidHyperparameterError,
                          "need P=1, non-affine data"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_a_named_error(case):
    build, error, message = CASES[case]
    with pytest.raises(error, match=message) as info:
        build()
    assert isinstance(info.value, LrtvarError)


class TestReadFromTheArrays:
    """What the arrays already say is not an argument: a SnapshotPair reads
    M, T and P from its tensors and a FitReport counts its outer iterations."""

    def test_pair_takes_no_shape_arguments(self):
        assert [f.name for f in dataclasses.fields(SnapshotPair)] == ["X", "Y", "affine", "dropped"]
        for name in ("M", "T", "P"):
            with pytest.raises(TypeError):
                SnapshotPair(X, Y, **{name: 3})

    def test_report_iterations_is_the_length_of_outer(self):
        data = SnapshotPair(X + np.arange(24.0).reshape(2, 3, 4), Y)
        _, report = fit(data, Hyperparams(R=1, eta=1.0, max_outer_iters=3, rtol=0.0, atol=0.0))
        assert report.iterations == len(report.outer) == 3
        assert "iterations" not in [f.name for f in dataclasses.fields(report)]
        with pytest.raises(AttributeError):
            report.iterations = 5


class TestFiniteArray:
    def test_returns_the_float_array(self):
        a = np.arange(6.0).reshape(2, 3)
        assert finite_array("a", a, 2) is a  # a float array is not copied
        b = finite_array("b", [[1, 2], [3, 4]], 2)
        assert b.dtype == float and np.array_equal(b, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "value, ndim, error, message",
        [(np.ones(3), 2, ShapeMismatchError, r"^a must be 2-D, got shape \(3,\)$"),
         (np.float64(1.0), 1, ShapeMismatchError, r"^a must be 1-D, got shape \(\)$"),
         ([1.0, np.nan], 1, NonFiniteError, "^a contains non-finite entries$"),
         (np.full((2, 2), -np.inf), 2, NonFiniteError, "^a contains non-finite entries$"),
         ([[1.0, 2.0], [3.0]], 2, ShapeMismatchError, r"^a must be a rectangular array of real numbers \(setting"),
         ([["a", "b"]], 2, ShapeMismatchError, r"^a must be a rectangular array of real numbers \(could not"),
         ([{}], 1, ShapeMismatchError, r"^a must be a rectangular array of real numbers \(float\(\) argument")],
        ids=["ndim", "scalar", "nan", "inf", "ragged", "string", "dict"],
    )
    def test_rejections(self, value, ndim, error, message):
        with pytest.raises(error, match=message):
            finite_array("a", value, ndim)

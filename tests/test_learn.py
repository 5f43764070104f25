"""Model zoo: gradients, closed form, stumps, search, importance."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim import learn
from smosim.config import (
    CostTable,
    FeatureSpec,
    HyperParams,
    HyperSearchSpec,
    ModelKind,
    SplitSpec,
)
from smosim.errors import (
    EmptyEvalSet,
    EmptySearchSpace,
    EmptyTrainSet,
    NonFiniteUpdate,
    SimulationError,
    SingularSystem,
    UnsupportedKind,
)
from smosim.learn import (
    LinearParams,
    StumpParams,
    TrainResult,
    _trial_results,
    enumerate_grid,
    epoch_orders,
    evaluate,
    fit,
    fit_standardized,
    incremental_update,
    loss_gradient,
    loss_value,
    predict_score,
    primary_metric,
    ridge_closed_form,
    sample_random,
    search,
    train,
    zero_params,
)
from smosim.pipeline import ScalingParams, SplitDataset, TransformedDataset


def _td(X, y) -> TransformedDataset:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = [f"f{i}" for i in range(X.shape[1])]
    return TransformedDataset(
        feature_names=names, X=X, y=y,
        scaler=ScalingParams("none", names, np.zeros(X.shape[1]), np.ones(X.shape[1])),
        record_ids=list(range(len(y))),
    )


def _split(Xtr, ytr, Xv=None, yv=None, Xte=None, yte=None) -> SplitDataset:
    Xv = Xv if Xv is not None else Xtr
    yv = yv if yv is not None else ytr
    Xte = Xte if Xte is not None else Xv
    yte = yte if yte is not None else yv
    n = len(ytr)
    return SplitDataset(
        spec=SplitSpec(1.0, 0.0, 0.0, 0),
        train=_td(Xtr, ytr), val=_td(Xv, yv), test=_td(Xte, yte),
        train_idx=np.arange(n), val_idx=np.arange(len(yv)), test_idx=np.arange(len(yte)),
    )


def _ridge_objective(params: LinearParams, X, y, l2_lambda: float) -> float:
    """Sum-of-squares ridge objective, which the closed form minimizes."""
    resid = X @ params.weights + params.bias - y
    return float(resid @ resid) + l2_lambda * float(params.weights @ params.weights)


def _finite_difference(kind, params, X, y, lam, h=1e-6):
    gw = np.zeros_like(params.weights)
    for j in range(len(params.weights)):
        up = LinearParams(params.weights.copy(), params.bias)
        up.weights[j] += h
        dn = LinearParams(params.weights.copy(), params.bias)
        dn.weights[j] -= h
        gw[j] = (loss_value(kind, up, X, y, lam) - loss_value(kind, dn, X, y, lam)) / (2 * h)
    up = LinearParams(params.weights.copy(), params.bias + h)
    dn = LinearParams(params.weights.copy(), params.bias - h)
    gb = (loss_value(kind, up, X, y, lam) - loss_value(kind, dn, X, y, lam)) / (2 * h)
    return gw, gb


class TestSgdStep:
    """One incremental_update on a single sample is one SGD step."""

    def test_hand_example_with_finite_difference_oracle(self):
        params = zero_params(1)
        x, y = np.array([1.0]), 1.0
        out = incremental_update(params, x[None, :], np.array([y]),
                                 HyperParams(learning_rate=0.1, l2_lambda=0.0))
        assert out.weights[0] == pytest.approx(0.2)
        assert out.bias == pytest.approx(0.2)
        gw, gb = _finite_difference(ModelKind.LINEAR_SGD, params,
                                    x[None, :], np.array([y]), 0.0)
        assert gw[0] == pytest.approx(-2.0, rel=1e-6)
        assert gb == pytest.approx(-2.0, rel=1e-6)

    def test_perfect_fit_is_fixed_point(self):
        params = LinearParams(np.array([2.0]), 1.0)
        out = incremental_update(params, np.array([[3.0]]), np.array([7.0]),
                                 HyperParams(learning_rate=0.1))
        assert out.weights[0] == params.weights[0]
        assert out.bias == params.bias

    def test_l2_decay_term(self):
        params = LinearParams(np.array([1.0]), 0.0)
        # perfect fit for the sample, so only the 2*lambda*w decay acts
        out = incremental_update(params, np.array([[1.0]]), np.array([1.0]),
                                 HyperParams(learning_rate=0.1, l2_lambda=1.0))
        assert out.weights[0] == pytest.approx(0.8)

    def test_divergence_raises_non_finite(self):
        params = LinearParams(np.array([1e308]), 0.0)
        with pytest.raises(NonFiniteUpdate):
            incremental_update(params, np.array([[1e308]]), np.array([0.0]),
                               HyperParams(learning_rate=1e300))


class TestGradientCheck:
    @pytest.mark.parametrize("kind", [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_analytic_matches_central_differences(self, kind, lam):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            params = LinearParams(rng.normal(scale=0.8, size=d), float(rng.normal()))
            X = rng.normal(scale=1.2, size=(n, d))
            y = (rng.integers(0, 2, size=n).astype(float)
                 if kind is ModelKind.LOGISTIC_SGD else rng.normal(size=n))
            gw, gb = loss_gradient(kind, params, X, y, lam)
            fw, fb = _finite_difference(kind, params, X, y, lam)
            scale = max(1.0, float(np.max(np.abs(fw))), abs(fb))
            assert np.max(np.abs(gw - fw)) / scale < 1e-5
            assert abs(gb - fb) / scale < 1e-5


class TestRidge:
    def test_recovers_noiseless_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(60, 3))
        w_true = np.array([2.0, -1.0, 0.5])
        y = X @ w_true + 0.7
        params = ridge_closed_form(X, y, l2_lambda=0.0)
        assert params.weights == pytest.approx(w_true, abs=1e-6)
        assert params.bias == pytest.approx(0.7, abs=1e-6)

    def test_singular_system_detected(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # collinear
        with pytest.raises(SingularSystem):
            ridge_closed_form(X, np.array([1.0, 2.0, 3.0]), l2_lambda=0.0)

    def test_recovers_coefficients_at_d200(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(1000, 200))
        w_true = rng.uniform(-2, 2, size=200)
        y = X @ w_true - 1.5
        params = ridge_closed_form(X, y, l2_lambda=0.0)
        assert params.weights == pytest.approx(w_true, abs=1e-9)
        assert params.bias == pytest.approx(-1.5, abs=1e-9)

    def test_lambda_regularizes_but_spares_bias(self):
        X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = 3.0 * X[:, 0] + 10.0
        tight = ridge_closed_form(X, y, l2_lambda=0.0)
        loose = ridge_closed_form(X, y, l2_lambda=100.0)
        assert abs(loose.weights[0]) < abs(tight.weights[0])
        assert loose.bias == pytest.approx(10.0, abs=1e-9)

    def test_closed_form_objective_below_any_sgd_iterate(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(50, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(scale=0.2, size=50)
        for lam in (0.0, 0.5, 5.0):
            star = ridge_closed_form(X, y, lam)
            best = _ridge_objective(star, X, y, lam)
            params = zero_params(2)
            for i in range(200):
                row = slice(i % 50, i % 50 + 1)
                params = incremental_update(params, X[row], y[row],
                                            HyperParams(learning_rate=0.05, l2_lambda=lam))
                assert _ridge_objective(params, X, y, lam) >= best - 1e-9


class TestTrain:
    def test_ridge_interpolates_noiseless_data(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(40, 2))
        y = X @ np.array([1.5, -0.5]) + 0.25
        result = train(ModelKind.RIDGE_CLOSED_FORM, _split(X, y), HyperParams(), seed=0)
        assert result.params.weights == pytest.approx([1.5, -0.5], abs=1e-6)
        assert result.metrics.mse == pytest.approx(0.0, abs=1e-12)

    def test_empty_train_set(self):
        X = np.empty((0, 2))
        y = np.empty((0,))
        with pytest.raises(EmptyTrainSet):
            train(ModelKind.LINEAR_SGD, _split(X, y, Xv=np.ones((1, 2)), yv=np.ones(1)),
                  HyperParams(), seed=0)

    def test_sgd_approaches_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = X @ np.array([1.0, 2.0]) + 0.5
        sd = _split(X, y)
        oracle = train(ModelKind.RIDGE_CLOSED_FORM, sd, HyperParams(), seed=0)
        hp = HyperParams(learning_rate=0.1, epochs=200, batch_size=16)
        sgd = train(ModelKind.LINEAR_SGD, sd, hp, seed=0)
        assert abs(sgd.metrics.mse - oracle.metrics.mse) < 1e-3

    def test_train_ticks_from_cost_table(self):
        X = np.ones((10, 1))
        y = np.ones(10)
        hp = HyperParams(epochs=5, batch_size=4, learning_rate=0.01)
        result = train(ModelKind.LINEAR_SGD, _split(X * 0.5, y), hp, seed=0,
                       costs=CostTable(train_tick_per_record=3))
        assert result.metrics.train_ticks == 5 * 10 * 3

    def test_logistic_learns_separable_data(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(300, 1))
        y = (X[:, 0] > 0).astype(float)
        hp = HyperParams(learning_rate=0.5, epochs=80, batch_size=16)
        result = train(ModelKind.LOGISTIC_SGD, _split(X, y), hp, seed=0)
        assert result.metrics.accuracy > 0.95


class TestStump:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=d, max_size=d), st.integers(0, 1)),
        min_size=1, max_size=12)))
    def test_split_minimises_misclassifications_over_every_candidate(self, rows):
        """The split is the first (feature, midpoint between distinct values)
        in that order to misclassify the fewest labels, with majority leaves."""
        X = np.array([x for x, _ in rows], float)
        y = np.array([label for _, label in rows], float)
        stump = learn._fit_stump(X, y)

        def majority(labels):
            return 1.0 if 2 * labels.sum() > len(labels) else 0.0

        def errors(j, thr):
            sides = (y[X[:, j] <= thr], y[X[:, j] > thr])
            return sum(int(np.sum(side != majority(side))) for side in sides)

        candidates = [(j, (a + b) / 2) for j in range(X.shape[1])
                      for values in [np.unique(X[:, j])]
                      for a, b in zip(values[:-1], values[1:])]
        if not candidates:
            assert stump.left == stump.right == majority(y)
            return
        counts = [errors(j, thr) for j, thr in candidates]
        feature, threshold = candidates[counts.index(min(counts))]
        assert (stump.feature, stump.threshold) == (feature, threshold)
        left = X[:, feature] <= threshold
        assert (stump.left, stump.right) == (majority(y[left]), majority(y[~left]))

    def test_classification_majority_leaves(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        result = train(ModelKind.DECISION_STUMP, _split(X, y), HyperParams(), seed=0)
        stump = result.params
        assert isinstance(stump, StumpParams)
        assert stump.threshold == pytest.approx(1.5)
        assert (stump.left, stump.right) == (0.0, 1.0)
        assert result.metrics.accuracy == 1.0

    def test_constant_features_fall_back_to_pooled_output(self):
        X = np.ones((6, 2))
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 1.0])
        result = train(ModelKind.DECISION_STUMP, _split(X, y), HyperParams(), seed=0)
        assert result.params.left == result.params.right == 1.0


class TestLabels:
    """A classifier kind fits the labels of its targets at ``hp.threshold``,
    labelled once, at each fit entry point."""

    @pytest.mark.parametrize("kind", [ModelKind.LOGISTIC_SGD, ModelKind.DECISION_STUMP])
    def test_each_entry_point_fits_the_labels_at_its_threshold(self, kind):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(40, 2))
        y = 3.0 * X[:, 0] + rng.normal(scale=0.3, size=40)
        hp = HyperParams(learning_rate=0.5, epochs=5, batch_size=8, threshold=1.5)
        ones = learn.labels(y, 1.5)
        assert 0 < ones.sum() < len(ones)  # labelling them again at 1.5 would give none
        on_labels = hp.replace(threshold=0.5)  # at which the labels are their own labels
        spec = HyperSearchSpec(mode="grid", grid={"learning_rate": (0.5,)})
        entries = {"fit": lambda y, hp: fit(kind, X, y, hp, 3)[0],
                   "search": lambda y, hp: search(kind, _split(X, y), spec, hp, 3)
                   .best_result.params}
        if kind.is_sgd:
            entries["incremental_update"] = lambda y, hp: incremental_update(
                zero_params(2), X, y, hp, kind)
        for entry, call in entries.items():
            assert np.array_equal(call(y, hp).to_list(), call(ones, on_labels).to_list()), entry

    @pytest.mark.parametrize("kind", [ModelKind.LOGISTIC_SGD, ModelKind.DECISION_STUMP])
    def test_a_separating_fit_scores_full_accuracy_above_a_threshold_of_one(self, kind):
        # its scores are classes or P(class 1), so they are cut at 0.5, not at 1.5
        X = np.concatenate([np.linspace(0.0, 0.4, 20), np.linspace(0.6, 1.0, 20)])[:, None]
        y = 3.0 * X[:, 0]  # its labels at 1.5 are 1 exactly where x > 0.5
        hp = HyperParams(learning_rate=0.5, epochs=200, batch_size=8, threshold=1.5)
        params, _ = fit(kind, X, y, hp, 3)
        assert evaluate(params, kind, X, y, 1.5).accuracy == 1.0


class TestIncrementalUpdate:
    def test_empty_sample_set_is_identity(self):
        params = LinearParams(np.array([1.0, 2.0]), 3.0)
        out = incremental_update(params, np.empty((0, 2)), np.empty(0),
                                 HyperParams(learning_rate=0.1))
        assert np.array_equal(out.weights, params.weights) and out.bias == params.bias

    def test_single_sample_equals_one_gradient_step(self):
        params = LinearParams(np.array([0.5, -0.5]), 0.1)
        x = np.array([1.0, 2.0])
        a = incremental_update(params, x[None, :], np.array([3.0]),
                               HyperParams(learning_rate=0.05, l2_lambda=0.01))
        gw, gb = loss_gradient(ModelKind.LINEAR_SGD, params, x[None, :], np.array([3.0]), 0.01)
        assert np.array_equal(a.weights, params.weights - 0.05 * gw)
        assert a.bias == params.bias - 0.05 * gb

    def test_streamed_pass_equals_batch_epoch_exactly(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(scale=0.1, size=40)
        hp = HyperParams(learning_rate=0.05, epochs=1, batch_size=1, l2_lambda=0.01)
        batch = train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=17)
        order = next(epoch_orders(40, seed=17, epochs=1))
        streamed = incremental_update(zero_params(3), X[order], y[order], hp)
        assert np.array_equal(batch.params.weights, streamed.weights)
        assert batch.params.bias == streamed.bias

    def test_stump_rejected(self):
        with pytest.raises(UnsupportedKind):
            incremental_update(LinearParams(np.zeros(1), 0.0), np.ones((1, 1)),
                               np.ones(1), HyperParams(learning_rate=0.1),
                               ModelKind.DECISION_STUMP)


def _loop_sgd(kind, X, y, orders, batch_size, lr, lam, init):
    """Reference minibatch SGD: a plain loop over loss_gradient, no checks.

    Also returns the 1-based step after which a parameter first went
    non-finite, or None.
    """
    params, first_bad, step = init.copy(), None, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for order in orders:
            for start in range(0, len(order), batch_size):
                idx = order[start:start + batch_size]
                gw, gb = loss_gradient(kind, params, X[idx], y[idx], lam)
                params = LinearParams(params.weights - lr * gw, params.bias - lr * gb)
                step += 1
                finite = np.isfinite(params.weights).all() and np.isfinite(params.bias)
                if first_bad is None and not finite:
                    first_bad = step
    return params, first_bad


def _random_problem(rng, kind, n, d):
    X = rng.normal(size=(n, d))
    if kind is ModelKind.LOGISTIC_SGD:
        y = (X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n) > 0).astype(float)
    else:
        y = X @ rng.normal(size=d) + rng.normal(scale=0.3, size=n)
    return X, y


class TestSgdKernel:
    """train and incremental_update equal a loop over loss_gradient bit for bit."""

    KINDS = [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("warm", [False, True])
    def test_train_equals_loss_gradient_loop(self, kind, lam, warm):
        rng = np.random.default_rng(int(100 + 10 * lam + warm))
        partial_last_batch = 0
        for case in range(20):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 7))
            X, y = _random_problem(rng, kind, n, d)
            hp = HyperParams(learning_rate=float(rng.uniform(0.01, 0.05)),
                             epochs=int(rng.integers(1, 4)),
                             batch_size=int(rng.integers(1, 20)), l2_lambda=lam)
            init = (LinearParams(rng.normal(size=d), float(rng.normal()))
                    if warm else None)
            got = train(kind, _split(X, y), hp, seed=case, init=init).params
            want, _ = _loop_sgd(kind, X, y, epoch_orders(n, case, hp.epochs),
                                hp.batch_size, hp.learning_rate, lam,
                                init if warm else zero_params(d))
            assert np.array_equal(got.weights, want.weights)
            assert got.bias == want.bias
            partial_last_batch += n % hp.batch_size != 0
        assert partial_last_batch > 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_incremental_update_equals_loss_gradient_loop(self, kind, lam):
        rng = np.random.default_rng(200 + int(10 * lam))
        for _ in range(20):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 7))
            X, y = _random_problem(rng, kind, n, d)
            init = LinearParams(rng.normal(size=d), float(rng.normal()))
            lr = float(rng.uniform(0.01, 0.05))
            got = incremental_update(init, X, y, HyperParams(learning_rate=lr, l2_lambda=lam),
                                     kind)
            want, _ = _loop_sgd(kind, X, y, [np.arange(n)], 1, lr, lam, init)
            assert np.array_equal(got.weights, want.weights)
            assert got.bias == want.bias

    @pytest.mark.parametrize("kind", KINDS)
    def test_incremental_update_past_one_gathered_block_equals_the_loop(self, kind):
        # at batch 1: two full gathered blocks of _GATHER_STEPS samples, and 5 more
        n = 2 * learn._GATHER_STEPS + 5
        rng = np.random.default_rng(210)
        X, y = _random_problem(rng, kind, n, 3)
        init = LinearParams(rng.normal(size=3), float(rng.normal()))
        got = incremental_update(init, X, y, HyperParams(learning_rate=0.02, l2_lambda=0.1),
                                 kind)
        want, first_bad = _loop_sgd(kind, X, y, [np.arange(n)], 1, 0.02, 0.1, init)
        assert first_bad is None
        assert np.array_equal(got.weights, want.weights)
        assert got.bias == want.bias

    # (n, d, batch_size, epochs, l2_lambda, layout of X)
    SHAPES = {
        "federated_rounds": (1200, 6, 16, 5, 0.0, "C"),
        "batch_over_n": (10, 3, 32, 3, 0.2, "C"),
        "fortran": (101, 4, 16, 3, 0.2, "F"),
        "column_slice": (101, 4, 16, 3, 0.0, "strided"),
        "gathers_with_ragged_tail": (1000, 3, 7, 2, 0.2, "C"),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_shapes_and_layouts_equal_loss_gradient_loop(self, kind, shape):
        n, d, batch_size, epochs, lam, layout = self.SHAPES[shape]
        rng = np.random.default_rng(300)
        X, y = _random_problem(rng, kind, n, 2 * d if layout == "strided" else d)
        if layout == "F":
            X = np.asfortranarray(X)
            assert not X.flags.c_contiguous
        elif layout == "strided":
            X = X[:, ::2]
            assert not (X.flags.c_contiguous or X.flags.f_contiguous)
        init = LinearParams(rng.normal(size=d), float(rng.normal()))
        hp = HyperParams(learning_rate=0.05, epochs=epochs, batch_size=batch_size,
                         l2_lambda=lam)
        got, processed = fit(kind, X, y, hp, 11, init)
        want, first_bad = _loop_sgd(kind, X, y, epoch_orders(n, 11, epochs), batch_size,
                                    hp.learning_rate, lam, init)
        assert first_bad is None and processed == epochs * n
        assert np.array_equal(got.weights, want.weights)
        assert got.bias == want.bias

    def test_divergence_on_the_first_step_of_an_epoch_raises(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(40, 2))
        y = X[:, 0].copy()
        hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=8)
        orders = list(epoch_orders(40, 0, hp.epochs))
        X[orders[0][0]] = [1e200, 1e200]  # in the first of five batches
        init = LinearParams(np.ones(2), 0.0)
        loop, first_bad = _loop_sgd(ModelKind.LINEAR_SGD, X, y, orders,
                                    hp.batch_size, hp.learning_rate, 0.0, init)
        # the parameters stay non-finite through every later step
        assert first_bad == 1 and not np.isfinite(loop.weights).all()
        with pytest.raises(NonFiniteUpdate):
            fit(ModelKind.LINEAR_SGD, X, y, hp, 0, init)

    def test_warm_start_is_not_modified(self):
        init = LinearParams(np.array([0.5, -0.5]), 0.25)
        X = np.random.default_rng(3).normal(size=(10, 2))
        hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=3)
        train(ModelKind.LINEAR_SGD, _split(X, X[:, 0]), hp, seed=0, init=init)
        incremental_update(init, X, X[:, 0], HyperParams(learning_rate=0.1))
        assert np.array_equal(init.weights, [0.5, -0.5]) and init.bias == 0.25

    def test_divergence_partway_through_an_epoch_raises(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(40, 2))
        y = X[:, 0].copy()
        hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=8)
        orders = list(epoch_orders(40, 0, hp.epochs))
        X[orders[0][20]] = [1e200, 1e200]  # in the third of five batches
        _, first_bad = _loop_sgd(ModelKind.LINEAR_SGD, X, y, orders,
                                 hp.batch_size, hp.learning_rate, 0.0, zero_params(2))
        assert first_bad == 3
        with pytest.raises(NonFiniteUpdate):
            train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=0)

    def test_finite_but_exploding_run_raises(self):
        # lr 0.9 on x in [0, 1] is past the stability limit: the weights grow
        # geometrically to ~1e50 and never overflow
        rng = np.random.default_rng(23)
        X = rng.uniform(0, 1, size=(140, 1))
        y = 2.0 * X[:, 0] + rng.normal(scale=0.05, size=140)
        hp = HyperParams(learning_rate=0.9, epochs=30, batch_size=8)
        loop, first_bad = _loop_sgd(ModelKind.LINEAR_SGD, X, y,
                                    epoch_orders(140, 0, hp.epochs), hp.batch_size,
                                    hp.learning_rate, 0.0, zero_params(1))
        assert first_bad is None and abs(loop.bias) > 1e30
        with pytest.raises(NonFiniteUpdate):
            train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=0)
        stable = train(ModelKind.LINEAR_SGD, _split(X, y),
                       hp.replace(learning_rate=0.2), seed=0)
        assert abs(stable.params.weights[0] - 2.0) < 0.2


class TestEpochOrders:
    def test_orders_are_drawn_one_epoch_at_a_time(self):
        tracemalloc.start()
        try:
            first = next(epoch_orders(240, 0, 10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.sort(first), np.arange(240))
        assert peak < 64 * 1024  # one order of 240 rows is 1.9 KB

    def test_orders_equal_successive_permutations_of_one_generator(self):
        rng = np.random.default_rng(5)
        want = [rng.permutation(37) for _ in range(6)]
        got = list(epoch_orders(37, 5, 6))
        assert len(got) == 6
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestLockstep:
    """Fits stacked in one kernel call on one train partition, each from its
    init at its learning rate, equal a loop over loss_gradient, and their own
    train calls, bit for bit."""

    KINDS = [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD]
    SIZES = (37, 64, 65, 200)  # at batch 16: 2, 4, 4 and 12 full minibatches
    RATES = (0.05, 0.01, 0.03, 0.05)

    @staticmethod
    def _problem(kind, seed, n, count, d=3):
        """A split of n rows and ``count`` inits."""
        rng = np.random.default_rng(seed)
        split = _split(*_random_problem(rng, kind, n, d))
        return split, [LinearParams(rng.normal(size=d), float(rng.normal()))
                       for _ in range(count)]

    @staticmethod
    def _fit_all(kind, split, inits, rates, hp, seed=7):
        """Each (init, rate) fitted on ``split`` in one stacked call."""
        X, y = split.train.X, split.train.y
        return learn._sgd(kind, X, y, epoch_orders(len(X), seed, hp.epochs),
                          list(zip(inits, rates)), hp.batch_size, hp.l2_lambda)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_each_stacked_fit_equals_the_loss_gradient_loop(self, kind, lam):
        hp = HyperParams(epochs=3, batch_size=16, l2_lambda=lam)
        for n in self.SIZES:
            split, inits = self._problem(kind, 400 + int(10 * lam) + n, n, len(self.RATES))
            before = [init.copy() for init in inits]
            results = self._fit_all(kind, split, inits, self.RATES, hp)
            assert len(results) == len(self.RATES)
            X, y = split.train.X, split.train.y
            for init, rate, got in zip(inits, self.RATES, results):
                want, first_bad = _loop_sgd(kind, X, y, epoch_orders(n, 7, hp.epochs),
                                            hp.batch_size, rate, lam, init)
                assert first_bad is None
                alone = train(kind, split, hp.replace(learning_rate=rate), 7, init=init)
                for other in (want, alone.params):
                    assert np.array_equal(got.weights, other.weights)
                    assert got.bias == other.bias
                assert alone.records_processed == hp.epochs * n
            for init, kept in zip(inits, before):
                assert np.array_equal(init.weights, kept.weights) and init.bias == kept.bias

    # fit 1's rate overflows its parameters; fit 3's keeps them finite, and
    # its loss ends past _DIVERGED_LOSS_RATIO
    @pytest.mark.parametrize("bad", [{1: 1e200}, {3: 1e9}, {1: 1e200, 3: 1e9}])
    def test_a_diverging_fit_fails_alone(self, bad):
        kind = ModelKind.LINEAR_SGD
        hp = HyperParams(epochs=2, batch_size=16)
        split, inits = self._problem(kind, 420, 200, len(self.RATES))
        rates = [bad.get(f, rate) for f, rate in enumerate(self.RATES)]
        results = self._fit_all(kind, split, inits, rates, hp)
        for f, (init, rate, got) in enumerate(zip(inits, rates, results)):
            own = hp.replace(learning_rate=rate)
            if f in bad:
                assert isinstance(got, NonFiniteUpdate)
                _, first_bad = _loop_sgd(kind, split.train.X, split.train.y,
                                         epoch_orders(200, 7, hp.epochs), hp.batch_size,
                                         rate, 0.0, init)
                assert (first_bad is None) == (rate == 1e9)
                with pytest.raises(NonFiniteUpdate):  # its own call raises its error
                    train(kind, split, own, 7, init=init)
            else:
                alone = train(kind, split, own, 7, init=init)
                assert np.array_equal(got.weights, alone.params.weights)
                assert got.bias == alone.params.bias

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(KINDS), lam=st.sampled_from([0.0, 0.2]),
           n=st.integers(1, 80), count=st.integers(1, 5),
           batch_size=st.integers(1, 20), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_every_fit_of_a_call_equals_the_loss_gradient_loop(self, kind, lam, n, count,
                                                                batch_size, epochs, seed):
        split, inits = self._problem(kind, seed, n, count)
        rates = np.random.default_rng(seed).uniform(0.005, 0.05, count).tolist()
        hp = HyperParams(epochs=epochs, batch_size=batch_size, l2_lambda=lam)
        X, y = split.train.X, split.train.y
        for init, rate, got in zip(inits, rates, self._fit_all(kind, split, inits, rates, hp,
                                                               seed)):
            want, first_bad = _loop_sgd(kind, X, y, epoch_orders(n, seed, epochs),
                                        batch_size, rate, lam, init)
            assert first_bad is None
            assert np.array_equal(got.weights, want.weights)
            assert got.bias == want.bias

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_past_one_gathered_block_equal_each_rate_alone(self, kind):
        """Three rates stacked on rows that span two full gathered blocks of
        _GATHER_STEPS minibatches and a third of one ragged minibatch."""
        batch_size = 8
        n = 2 * learn._GATHER_STEPS * batch_size + 5
        rng = np.random.default_rng(450)
        X, y = _random_problem(rng, kind, n + 40, 3)
        split = _split(X[:n], y[:n], X[n:], y[n:])
        hp = HyperParams(epochs=2, batch_size=batch_size, l2_lambda=0.1)
        rates = [0.002, 0.01, 0.005]
        got = learn._fit_rates(kind, split, hp, 7, rates, CostTable())
        for rate, result in zip(rates, got, strict=True):
            alone = train(kind, split, hp.replace(learning_rate=rate), 7)
            assert _same_outcome(result, alone)
            want, first_bad = _loop_sgd(kind, split.train.X, split.train.y,
                                        epoch_orders(n, 7, hp.epochs), batch_size, rate,
                                        hp.l2_lambda, zero_params(3))
            assert first_bad is None
            assert np.array_equal(result.params.weights, want.weights)
            assert result.params.bias == want.bias


def _vector(params: LinearParams) -> np.ndarray:
    return np.append(params.weights, params.bias)


class TestAffineFit:
    """A LinearSgd fit's map of its init equals stepping from that init: to
    rounding in general, and bit for bit from the zero init."""

    LINEAR = ModelKind.LINEAR_SGD

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 80), min_size=1, max_size=4),
           batch_size=st.integers(1, 20), epochs=st.integers(1, 3),
           lam=st.sampled_from([0.0, 0.2]), d=st.integers(1, 4),
           scale=st.sampled_from([1.0, 1e3]), seed=st.integers(0, 2**16))
    def test_the_map_of_an_init_equals_stepping_from_it(self, sizes, batch_size, epochs, lam,
                                                         d, scale, seed):
        # ragged sizes, most of them not a multiple of the batch size
        rng = np.random.default_rng(seed)
        hp = HyperParams(learning_rate=float(rng.uniform(0.005, 0.05)), epochs=epochs,
                         batch_size=batch_size, l2_lambda=lam)
        for n in sizes:
            split = _split(*_random_problem(rng, self.LINEAR, n, d))
            fitted = learn.affine_fit(split, hp, seed)
            stepped = train(self.LINEAR, split, hp, seed).params
            assert _vector(fitted.apply(zero_params(d))).tobytes() \
                == _vector(stepped).tobytes() == fitted.offset.tobytes()
            for _ in range(3):
                init = LinearParams(rng.normal(scale=scale, size=d),
                                    float(rng.normal(scale=scale)))
                got = _vector(fitted.apply(init))
                want = _vector(train(self.LINEAR, split, hp, seed, init=init).params)
                assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(_vector(init)).max())

    def test_the_map_is_built_in_one_train_call(self, monkeypatch):
        split = _split(*_random_problem(np.random.default_rng(5), self.LINEAR, 50, 3))
        calls, real = [], learn.train

        def spy(*args, **kwargs):
            calls.append(kwargs.get("init"))
            return real(*args, **kwargs)

        monkeypatch.setattr(learn, "train", spy)
        fitted = learn.affine_fit(split, HyperParams(epochs=2), 3)
        assert calls == [None]  # the zero init's fit; the matrix is composed
        assert fitted.matrix.shape == (4, 4)

    @staticmethod
    def _peer_built(split, hp, seed) -> np.ndarray:
        """The map's matrix as stepped: column j the fit from the unit vector
        e_j less the fit from zero, each of its own train call."""
        d = split.train.X.shape[1]
        zero = _vector(train(ModelKind.LINEAR_SGD, split, hp, seed).params)
        return np.column_stack([
            _vector(train(ModelKind.LINEAR_SGD, split, hp, seed,
                          init=LinearParams(e[:d].copy(), float(e[d]))).params)
            for e in np.eye(d + 1)]) - zero[:, None]

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 80), min_size=1, max_size=4),
           batch_size=st.integers(1, 20), epochs=st.integers(1, 3),
           lam=st.sampled_from([0.0, 0.2]), d=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_the_composed_matrix_equals_the_stepped_one(self, sizes, batch_size, epochs, lam,
                                                        d, seed):
        rng = np.random.default_rng(seed)
        hp = HyperParams(learning_rate=float(rng.uniform(0.005, 0.05)), epochs=epochs,
                         batch_size=batch_size, l2_lambda=lam)
        for n in sizes:
            split = _split(*_random_problem(rng, self.LINEAR, n, d))
            got = learn.affine_fit(split, hp, seed).matrix
            # each column is the map of a unit vector, an init of size 1
            assert np.abs(got - self._peer_built(split, hp, seed)).max() <= 1e-12 * (1 + 1)

    @pytest.mark.parametrize("count", [1, 2, 3, 74, 75])
    def test_the_pairwise_chain_equals_a_left_fold(self, count):
        rng = np.random.default_rng(count)
        steps = np.eye(5) - 0.05 * rng.normal(size=(count, 5, 5))
        want = steps[0]
        for step in steps[1:]:
            want = step @ want
        np.testing.assert_allclose(learn._chain(steps), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("rate, lam", [(0.05, 0.0), (0.05, 0.2), (0.9, 0.0)])
    def test_a_map_refuses_exactly_what_the_stepped_check_refuses(self, rate, lam):
        # more rows than the check reads, so both read only the first _CHECK_ROWS
        X, y = _random_problem(np.random.default_rng(7), self.LINEAR, learn._CHECK_ROWS + 100, 2)
        hp = HyperParams(learning_rate=rate, epochs=1, batch_size=64, l2_lambda=lam)
        fitted = learn.affine_fit(_split(X, y), hp, 3)
        rng = np.random.default_rng(8)
        inits = [rng.normal(scale=scale, size=3) for scale in 10.0 ** np.arange(-3, 201, 7)]
        for value, k in itertools.product([np.inf, -np.inf, np.nan], range(3)):
            inits.append(np.array([0.5, -0.5, 0.25]))
            inits[-1][k] = value
        outcomes = []
        for start in inits:
            init = LinearParams(start[:2], float(start[2]))
            with np.errstate(over="ignore", invalid="ignore"):
                p = fitted.matrix @ start + fitted.offset
                refused = not np.isfinite(p).all() or isinstance(
                    learn._checked(self.LINEAR, X, y, init, LinearParams(p[:2], float(p[2])),
                                   lam), SimulationError)
            got = fitted.apply(init)
            assert (got is None) == refused, start
            if got is not None:
                assert _vector(got).tobytes() == p.tobytes()
            outcomes.append(refused)
        assert any(outcomes) and not all(outcomes)

    def test_a_map_refuses_what_stepping_must_decide(self):
        X, y = _random_problem(np.random.default_rng(6), self.LINEAR, 60, 2)
        split = _split(X, y)
        hp = HyperParams(learning_rate=0.05, epochs=2, batch_size=8)
        fitted = learn.affine_fit(split, hp, 3)
        assert fitted.apply(zero_params(3)) is None  # another width
        assert fitted.apply(LinearParams(np.array([1e200, 0.0]), 0.0)) is None  # diverged
        assert fitted.apply(LinearParams(np.array([np.inf, 0.0]), 0.0)) is None
        X[0] = 1e200  # every fit diverges, so the build raises
        with pytest.raises(NonFiniteUpdate):
            learn.affine_fit(split, hp, 3)


class TestFitStandardized:
    HP = HyperParams(learning_rate=0.2, epochs=30, batch_size=8)

    def test_refit_on_a_raw_window_reaches_least_squares(self):
        # refinement windows: 20 unscaled rows on [0, 1] after a drift 2x -> 5x + 2
        init = LinearParams(np.array([2.0]), 0.0)
        refit_gaps, raw_gaps = [], []
        for window in range(10):
            rng = np.random.default_rng(window)
            X = rng.uniform(0.0, 1.0, size=(20, 1))
            y = 5.0 * X[:, 0] + 2.0 + rng.normal(scale=0.05, size=20)
            oracle = ridge_closed_form(X, y, 0.0)
            refit, processed = fit_standardized(ModelKind.LINEAR_SGD, X, y, self.HP, 0, init)
            raw, _ = fit(ModelKind.LINEAR_SGD, X, y, self.HP, 0, init)
            assert processed == 30 * 20
            assert abs(refit.bias - oracle.bias) < 0.06
            refit_gaps.append(abs(refit.weights[0] - oracle.weights[0]))
            raw_gaps.append(abs(raw.weights[0] - oracle.weights[0]))
        assert max(refit_gaps) < 0.06
        # the same epochs on the raw column stop further from the optimum
        assert all(raw > refit for raw, refit in zip(raw_gaps, refit_gaps))
        assert np.mean(raw_gaps) > 3 * np.mean(refit_gaps)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD])
    def test_predicts_as_the_fit_on_standardised_columns(self, kind):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.uniform(10.0, 12.0, 30), np.full(30, 3.0),
                             rng.normal(size=30)])
        y = X @ np.array([1.0, -2.0, 0.5]) - 5.0
        if kind is ModelKind.LOGISTIC_SGD:
            y = (y > np.median(y)).astype(float)
        init = LinearParams(np.array([0.5, 0.1, -0.2]), 0.3)
        mean, std = X.mean(axis=0), np.array([X[:, 0].std(), 1.0, X[:, 2].std()])
        Z = (X - mean) / std  # the constant column is only centred
        start = LinearParams(init.weights * std, init.bias + init.weights @ mean)
        assert np.allclose(Z @ start.weights + start.bias, X @ init.weights + init.bias)
        refit, _ = fit_standardized(kind, X, y, self.HP, 3, init)
        on_z, _ = fit(kind, Z, y, self.HP, 3, start)
        np.testing.assert_allclose(predict_score(refit, kind, X),
                                   predict_score(on_z, kind, Z), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kind", [ModelKind.RIDGE_CLOSED_FORM, ModelKind.DECISION_STUMP])
    def test_other_kinds_fit_as_fit(self, kind):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 1.0, size=(25, 2))
        y = X @ np.array([3.0, -1.0]) + 0.5
        init = LinearParams(np.zeros(2), 0.0)
        assert repr(fit_standardized(kind, X, y, self.HP, 0, init)) == \
            repr(fit(kind, X, y, self.HP, 0, init))

    def test_empty_window(self):
        with pytest.raises(EmptyTrainSet):
            fit_standardized(ModelKind.LINEAR_SGD, np.ones((0, 2)), np.ones(0), self.HP, 0,
                             zero_params(2))


class TestEvaluate:
    def test_perfect_predictions(self):
        params = LinearParams(np.array([1.0]), 0.0)
        X = np.array([[1.0], [2.0]])
        m = evaluate(params, ModelKind.LINEAR_SGD, X, np.array([1.0, 2.0]))
        assert m.mse == 0.0 and m.rmse == 0.0 and m.accuracy == 1.0

    def test_hand_example_half_right(self):
        # scores {0, 1} against actuals {1, 1}
        params = StumpParams(0, 0.5, 0.0, 1.0)
        X = np.array([[0.0], [1.0]])
        m = evaluate(params, ModelKind.DECISION_STUMP, X, np.array([1.0, 1.0]),
                     threshold=0.5)
        assert m.mse == pytest.approx(0.5)
        assert m.accuracy == pytest.approx(0.5)
        assert m.rmse == pytest.approx(np.sqrt(0.5))

    def test_empty_partition(self):
        with pytest.raises(EmptyEvalSet):
            evaluate(zero_params(1), ModelKind.LINEAR_SGD, np.empty((0, 1)), np.empty(0))


class TestSearch:
    def _data(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = X @ np.array([1.0, -0.5]) + rng.normal(scale=0.05, size=80)
        return _split(X[:60], y[:60], X[60:], y[60:])

    def test_grid_equals_brute_force(self):
        sd = self._data()
        spec = HyperSearchSpec(mode="grid", grid={
            "learning_rate": (0.01, 0.1), "epochs": (10, 40)})
        result = search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(), seed=0)
        # independent exhaustive enumeration
        combos = [dict(zip(("learning_rate", "epochs"), vals))
                  for vals in itertools.product((0.01, 0.1), (10, 40))]
        oracle = []
        for combo in combos:
            hp = HyperParams().replace(**combo)
            oracle.append(train(ModelKind.LINEAR_SGD, sd, hp, seed=0).metrics.mse)
        assert result.best_index == int(np.argmin(oracle))
        assert len(result.trials) == 4

    def test_single_point_grid(self):
        sd = self._data()
        spec = HyperSearchSpec(mode="grid", grid={"epochs": (7,)})
        result = search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(), seed=0)
        assert result.best.epochs == 7

    def test_empty_grid(self):
        sd = self._data()
        spec = HyperSearchSpec(mode="grid", grid={})
        with pytest.raises(EmptySearchSpace):
            search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(), seed=0)

    def test_random_mode_respects_budget_and_seed(self):
        sd = self._data()
        spec = HyperSearchSpec(mode="random", ranges={
            "learning_rate": (0.01, 0.2), "epochs": (5, 20)}, budget=6, seed=5)
        a = search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(), seed=0)
        b = search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(), seed=0)
        assert len(a.trials) == 6
        assert [t.hyperparams for t in a.trials] == [t.hyperparams for t in b.trials]

    def test_divergent_trials_recorded_not_fatal(self):
        sd = self._data()
        spec = HyperSearchSpec(mode="grid", grid={"learning_rate": (1e6, 0.05)})
        result = search(ModelKind.LINEAR_SGD, sd, spec, HyperParams(epochs=40), seed=0)
        assert result.trials[0].failed
        assert result.best.learning_rate == 0.05

    def test_ties_break_by_trial_order(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        sd = _split(X, y)
        spec = HyperSearchSpec(mode="grid", grid={"l2_lambda": (0.0, 0.0)})
        result = search(ModelKind.RIDGE_CLOSED_FORM, sd, spec, HyperParams(), seed=0)
        assert result.best_index == 0


def _loop_trials(kind, split, spec, base, seed):
    """Reference search outcomes: one train call per trial, in candidate order,
    each its TrainResult or the SimulationError it raised."""
    combos = enumerate_grid(spec) if spec.mode == "grid" else sample_random(spec)
    hps = [base.replace(**combo) for combo in combos]
    outcomes = []
    for hp in hps:
        try:
            outcomes.append(train(kind, split, hp, seed))
        except SimulationError as exc:
            outcomes.append(exc)
    return hps, outcomes


def _same_params(a, b) -> bool:
    if isinstance(a, LinearParams):
        return np.array_equal(a.weights, b.weights) and a.bias == b.bias
    return a == b


def _same_outcome(got, want) -> bool:
    if isinstance(want, SimulationError):
        return type(got) is type(want) and str(got) == str(want)
    return (isinstance(got, TrainResult) and _same_params(got.params, want.params)
            and got.metrics == want.metrics
            and got.records_processed == want.records_processed)


def _assert_search_equals_loop(kind, split, spec, base, seed=3):
    hps, want = _loop_trials(kind, split, spec, base, seed)
    got = _trial_results(kind, split, hps, seed, None)
    assert all(_same_outcome(g, w) for g, w in zip(got, want, strict=True))
    raised = [w for w in want if isinstance(w, SimulationError)
              and not isinstance(w, NonFiniteUpdate)]
    ok = [(primary_metric(kind, w.metrics), i) for i, w in enumerate(want)
          if isinstance(w, TrainResult)]
    if raised or not ok:
        with pytest.raises(type(raised[0]) if raised else NonFiniteUpdate) as info:
            search(kind, split, spec, base, seed)
        if raised:
            assert str(info.value) == str(raised[0])
        return
    result = search(kind, split, spec, base, seed)
    best_index = -1
    best_value = float("inf")
    for value, i in ok:
        if value < best_value:
            best_value, best_index = value, i
    assert result.best_index == best_index and result.best == hps[best_index]
    assert [t.failed for t in result.trials] == [isinstance(w, NonFiniteUpdate) for w in want]
    assert [t.metrics for t in result.trials] == \
        [None if isinstance(w, NonFiniteUpdate) else w.metrics for w in want]
    assert _same_outcome(result.best_result, want[best_index])
    assert result.total_train_ticks == sum(w.metrics.train_ticks for w in want
                                           if isinstance(w, TrainResult))


@st.composite
def _search_cases(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    if draw(st.booleans()):
        grid = {"learning_rate": tuple(draw(st.lists(
                    st.sampled_from([0.005, 0.02, 0.05, 0.2, 1e9]), min_size=1, max_size=4))),
                "batch_size": tuple(draw(st.lists(st.integers(1, 24), min_size=1,
                                                  max_size=2)))}
        if draw(st.booleans()):
            grid["l2_lambda"] = (0.0, 0.1)
        spec = HyperSearchSpec(mode="grid", grid=grid)
    else:
        ranges = {"learning_rate": (0.01, draw(st.sampled_from([0.3, 1e9])))}
        if draw(st.booleans()):
            ranges["batch_size"] = (3, 5)
        spec = HyperSearchSpec(mode="random", ranges=ranges, budget=draw(st.integers(1, 12)),
                               seed=draw(st.integers(0, 50)))
    n, d = draw(st.integers(1, 50)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X, y = _random_problem(rng, ModelKind.LOGISTIC_SGD if not kind.is_regression
                           else ModelKind.LINEAR_SGD, n + 10, d)
    base = HyperParams(epochs=draw(st.integers(1, 4)))
    return kind, _split(X[:n], y[:n], X[n:], y[n:]), spec, base


class TestGroupedSearch:
    """A search fits the trials that differ only in learning rate together,
    and each trial's result equals a train call of its own bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_search_cases())
    def test_search_equals_a_train_call_per_trial(self, case):
        kind, split, spec, base = case
        _assert_search_equals_loop(kind, split, spec, base)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD])
    def test_a_diverging_rate_fails_only_its_own_trial(self, kind):
        rng = np.random.default_rng(12)
        X, y = _random_problem(rng, kind, 90, 3)
        split = _split(X[:70], y[:70], X[70:], y[70:])
        spec = HyperSearchSpec(mode="grid", grid={"learning_rate": (0.05, 1e9, 0.02),
                                                  "batch_size": (4, 7)})
        base = HyperParams(epochs=3)
        _, want = _loop_trials(kind, split, spec, base, 3)
        assert sum(isinstance(w, NonFiniteUpdate) for w in want) == 2
        _assert_search_equals_loop(kind, split, spec, base)

    def test_a_call_stacks_at_most_stack_fits_trials(self, monkeypatch):
        rng = np.random.default_rng(14)
        X, y = _random_problem(rng, ModelKind.LINEAR_SGD, 80, 3)
        split = _split(X[:60], y[:60], X[60:], y[60:])
        spec = HyperSearchSpec(mode="random", ranges={"learning_rate": (0.01, 0.1)},
                               budget=7, seed=2)
        monkeypatch.setattr(learn, "_STACK_FITS", 3)
        stacked, real_lockstep = [], learn._lockstep

        def counting(kind, X, y, orders, starts, *args):
            stacked.append(len(starts))
            return real_lockstep(kind, X, y, orders, starts, *args)

        monkeypatch.setattr(learn, "_lockstep", counting)
        _assert_search_equals_loop(ModelKind.LINEAR_SGD, split, spec, HyperParams(epochs=2))
        # the reference loop's 7 lone fits, each a kernel call of one; then 7
        # trials of one group: 3 + 3 stacked and the last alone, in
        # _trial_results, then in search
        assert stacked == [1] * 7 + [3, 3, 1] * 2

    def test_an_empty_validation_partition_raises_before_any_fit(self, monkeypatch):
        X = np.random.default_rng(15).normal(size=(20, 2))
        split = _split(X, X[:, 0], np.empty((0, 2)), np.empty(0))
        # no trial may be fitted: SGD trials fit through _sgd, not train
        monkeypatch.setattr(learn, "train", None)
        monkeypatch.setattr(learn, "_sgd", None)
        spec = HyperSearchSpec(mode="grid", grid={"learning_rate": (0.05, 0.1)})
        with pytest.raises(EmptyEvalSet):
            search(ModelKind.LINEAR_SGD, split, spec, HyperParams(), 0)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR_SGD, ModelKind.LOGISTIC_SGD])
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_lockstep_with_a_rate_per_fit_equals_each_fit_alone(self, kind, lam):
        rates = [0.01, 0.05, 0.2, 0.05]
        for n in TestLockstep.SIZES:
            split, inits = TestLockstep._problem(kind, 430 + int(10 * lam) + n, n, len(rates))
            X, y = split.train.X, split.train.y
            orders = list(epoch_orders(n, 7, 3))
            starts = list(zip(inits, rates))
            got = learn._lockstep(kind, X, y, orders, starts, 16, lam)
            for (init, rate), params in zip(starts, got, strict=True):
                (alone,) = learn._lockstep(kind, X, y, orders, [(init, rate)], 16, lam)
                want, first_bad = _loop_sgd(kind, X, y, orders, 16, rate, lam, init)
                assert first_bad is None
                for other in (alone, want):
                    assert np.array_equal(params.weights, other.weights)
                    assert params.bias == other.bias


class TestDeterminism:
    def test_train_is_pure_function_of_inputs(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(50, 2))
        y = X @ np.array([0.5, 0.5])
        hp = HyperParams(learning_rate=0.1, epochs=5, batch_size=4)
        a = train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=3)
        b = train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=3)
        assert np.array_equal(a.params.weights, b.params.weights)
        assert a.params.bias == b.params.bias

    def test_predictions_reproducible_anywhere(self):
        params = LinearParams(np.array([1.0, -1.0]), 0.25)
        X = np.random.default_rng(11).uniform(size=(20, 2))
        p1 = predict_score(params, ModelKind.LINEAR_SGD, X)
        p2 = predict_score(params.copy(), ModelKind.LINEAR_SGD, X.copy())
        assert np.array_equal(p1, p2)

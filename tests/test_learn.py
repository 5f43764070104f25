"""Model zoo: gradients, closed form, stumps, search, importance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

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
    SchemaMismatch,
    SingularSystem,
    UnsupportedKind,
)
from smosim.learn import (
    LinearParams,
    StumpParams,
    epoch_orders,
    evaluate,
    feature_importance,
    fit,
    fit_standardized,
    incremental_update,
    loss_gradient,
    loss_value,
    predict_score,
    ridge_closed_form,
    search,
    sgd_step,
    train,
    training_objective,
    zero_params,
)
from smosim.pipeline import ScalingParams, SplitDataset, TransformedDataset, Provenance


def _td(X, y) -> TransformedDataset:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = [f"f{i}" for i in range(X.shape[1])]
    return TransformedDataset(
        feature_names=names, X=X, y=y,
        scaler=ScalingParams("none", names, np.zeros(X.shape[1]), np.ones(X.shape[1])),
        provenance=Provenance(("test",), (0, 0), "h"),
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
    def test_hand_example_with_finite_difference_oracle(self):
        params = zero_params(1)
        x, y = np.array([1.0]), 1.0
        out = sgd_step(params, x, y, learning_rate=0.1, l2_lambda=0.0)
        assert out.weights[0] == pytest.approx(0.2)
        assert out.bias == pytest.approx(0.2)
        gw, gb = _finite_difference(ModelKind.LINEAR_SGD, params,
                                    x[None, :], np.array([y]), 0.0)
        assert gw[0] == pytest.approx(-2.0, rel=1e-6)
        assert gb == pytest.approx(-2.0, rel=1e-6)

    def test_perfect_fit_is_fixed_point(self):
        params = LinearParams(np.array([2.0]), 1.0)
        out = sgd_step(params, np.array([3.0]), 7.0, 0.1, 0.0)
        assert out.weights[0] == params.weights[0]
        assert out.bias == params.bias

    def test_l2_decay_term(self):
        params = LinearParams(np.array([1.0]), 0.0)
        # perfect fit for the sample, so only the 2*lambda*w decay acts
        out = sgd_step(params, np.array([1.0]), 1.0, 0.1, l2_lambda=1.0)
        assert out.weights[0] == pytest.approx(0.8)

    def test_divergence_raises_non_finite(self):
        params = LinearParams(np.array([1e308]), 0.0)
        with pytest.raises(NonFiniteUpdate):
            sgd_step(params, np.array([1e308]), 0.0, 1e300, 0.0)


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
            best = training_objective(star, X, y, lam)
            params = zero_params(2)
            for i in range(200):
                params = sgd_step(params, X[i % 50], float(y[i % 50]), 0.05, lam)
                assert training_objective(params, X, y, lam) >= best - 1e-9


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
    def test_matches_brute_force_on_small_regression(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(24, 3))
        y = np.where(X[:, 1] > 0.6, 4.0, 1.0) + rng.normal(scale=0.05, size=24)
        from smosim.learn import _fit_stump

        stump = _fit_stump(X, y, classification=False)

        def sse_of(j, thr):
            left, right = y[X[:, j] <= thr], y[X[:, j] > thr]
            out = 0.0
            for part in (left, right):
                if len(part):
                    out += float(np.sum((part - part.mean()) ** 2))
            return out

        best = min(
            (sse_of(j, (xs[k] + xs[k + 1]) / 2), j)
            for j in range(3)
            for xs in [np.sort(X[:, j])]
            for k in range(23) if xs[k] < xs[k + 1]
        )
        assert sse_of(stump.feature, stump.threshold) == pytest.approx(best[0], abs=1e-9)
        assert stump.feature == 1

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


class TestIncrementalUpdate:
    def test_empty_sample_set_is_identity(self):
        params = LinearParams(np.array([1.0, 2.0]), 3.0)
        out = incremental_update(params, np.empty((0, 2)), np.empty(0), 0.1, 0.0)
        assert np.array_equal(out.weights, params.weights) and out.bias == params.bias

    def test_single_sample_equals_sgd_step(self):
        params = LinearParams(np.array([0.5, -0.5]), 0.1)
        x = np.array([1.0, 2.0])
        a = incremental_update(params, x[None, :], np.array([3.0]), 0.05, 0.01)
        b = sgd_step(params, x, 3.0, 0.05, 0.01)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_streamed_pass_equals_batch_epoch_exactly(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(scale=0.1, size=40)
        hp = HyperParams(learning_rate=0.05, epochs=1, batch_size=1, l2_lambda=0.01)
        batch = train(ModelKind.LINEAR_SGD, _split(X, y), hp, seed=17)
        order = epoch_orders(40, seed=17, epochs=1)[0]
        streamed = incremental_update(zero_params(3), X[order], y[order],
                                      hp.learning_rate, hp.l2_lambda)
        assert np.array_equal(batch.params.weights, streamed.weights)
        assert batch.params.bias == streamed.bias

    def test_stump_rejected(self):
        with pytest.raises(UnsupportedKind):
            incremental_update(LinearParams(np.zeros(1), 0.0), np.ones((1, 1)),
                               np.ones(1), 0.1, 0.0, ModelKind.DECISION_STUMP)


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
            got = incremental_update(init, X, y, lr, lam, kind)
            want, _ = _loop_sgd(kind, X, y, [np.arange(n)], 1, lr, lam, init)
            assert np.array_equal(got.weights, want.weights)
            assert got.bias == want.bias

    def test_warm_start_is_not_modified(self):
        init = LinearParams(np.array([0.5, -0.5]), 0.25)
        X = np.random.default_rng(3).normal(size=(10, 2))
        hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=3)
        train(ModelKind.LINEAR_SGD, _split(X, X[:, 0]), hp, seed=0, init=init)
        incremental_update(init, X, X[:, 0], 0.1, 0.0)
        assert np.array_equal(init.weights, [0.5, -0.5]) and init.bias == 0.25

    def test_divergence_partway_through_an_epoch_raises(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(40, 2))
        y = X[:, 0].copy()
        hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=8)
        orders = epoch_orders(40, 0, hp.epochs)
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


class TestFeatureImportance:
    def test_largest_weight_ranks_first_with_equal_spread(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.0, 0.0]])
        params = LinearParams(np.array([0.0, 5.0]), 0.0)
        ranked = feature_importance(params, ModelKind.LINEAR_SGD, X, ["a", "b"])
        assert ranked[0][0] == "b"

    def test_all_zero_weights_keep_index_order(self):
        X = np.random.default_rng(1).uniform(size=(10, 3))
        ranked = feature_importance(zero_params(3), ModelKind.LINEAR_SGD, X,
                                    ["a", "b", "c"])
        assert [n for n, _ in ranked] == ["a", "b", "c"]
        assert all(v == 0.0 for _, v in ranked)

    def test_weight_times_sigma_hand_example(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1.0, size=4000)
        b = rng.normal(0, 3.0, size=4000)
        X = np.column_stack([a, b])
        params = LinearParams(np.array([2.0, 1.0]), 0.0)
        ranked = feature_importance(params, ModelKind.LINEAR_SGD, X, ["a", "b"])
        values = dict(ranked)
        assert values["a"] == pytest.approx(2.0, rel=0.1)
        assert values["b"] == pytest.approx(3.0, rel=0.1)
        assert ranked[0][0] == "b"

    def test_stump_indicator(self):
        stump = StumpParams(1, 0.5, 0.0, 1.0)
        ranked = feature_importance(stump, ModelKind.DECISION_STUMP,
                                    np.zeros((2, 3)), ["a", "b", "c"])
        assert ranked[0] == ("b", 1.0)
        assert ranked[1:] == [("a", 0.0), ("c", 0.0)]

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            feature_importance(zero_params(2), ModelKind.LINEAR_SGD,
                               np.zeros((2, 3)), ["a", "b", "c"])


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

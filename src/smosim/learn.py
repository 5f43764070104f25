"""Model zoo and training: SGD linear/logistic models, closed-form ridge,
depth-1 decision stumps, hyperparameter search, evaluation, importance.

Everything is deterministic given (data, hyperparams, seed); ties anywhere
break by enumeration order. Training cost is simulated: records processed
times a configured per-record tick cost, never wall clock.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .config import CostTable, HyperParams, HyperSearchSpec, ModelKind
from .errors import (
    EmptyEvalSet,
    EmptySearchSpace,
    EmptyTrainSet,
    NonFiniteUpdate,
    SchemaMismatch,
    SingularSystem,
    UnsupportedKind,
)
from .pipeline import SplitDataset


@dataclass
class LinearParams:
    weights: np.ndarray
    bias: float

    def copy(self) -> "LinearParams":
        return LinearParams(self.weights.copy(), self.bias)

    def to_list(self) -> list[float]:
        return [float(v) for v in self.weights] + [float(self.bias)]

    @property
    def param_count(self) -> int:
        return len(self.weights) + 1


@dataclass
class StumpParams:
    feature: int
    threshold: float
    left: float
    right: float

    def to_list(self) -> list[float]:
        return [float(self.feature), self.threshold, self.left, self.right]

    @property
    def param_count(self) -> int:
        return 4


ModelParameters = LinearParams | StumpParams


def zero_params(width: int) -> LinearParams:
    return LinearParams(np.zeros(width), 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict_score(params: ModelParameters, kind: ModelKind, X: np.ndarray) -> np.ndarray:
    """Raw model output: regression value or positive-class probability."""
    if isinstance(params, StumpParams):
        return np.where(X[:, params.feature] <= params.threshold,
                        params.left, params.right)
    z = X @ params.weights + params.bias
    if kind is ModelKind.LOGISTIC_SGD:
        return _sigmoid(z)
    return z


# -- gradients -----------------------------------------------------------------


def loss_value(kind: ModelKind, params: LinearParams, X: np.ndarray, y: np.ndarray,
               l2_lambda: float) -> float:
    """Mean per-sample loss plus L2 penalty on the weights (bias excluded)."""
    z = X @ params.weights + params.bias
    if kind is ModelKind.LOGISTIC_SGD:
        per_sample = np.logaddexp(0.0, z) - y * z
    else:
        per_sample = (z - y) ** 2
    reg = l2_lambda * float(params.weights @ params.weights)
    return float(np.mean(per_sample)) + reg


def loss_gradient(kind: ModelKind, params: LinearParams, X: np.ndarray, y: np.ndarray,
                  l2_lambda: float) -> tuple[np.ndarray, float]:
    """Batch-averaged gradient of loss_value; bias never regularized."""
    n = X.shape[0]
    z = X @ params.weights + params.bias
    if kind is ModelKind.LOGISTIC_SGD:
        diff = _sigmoid(z) - y
        gw = np.sum(diff[:, None] * X, axis=0) / n
        gb = float(np.sum(diff)) / n
    else:
        err = z - y
        gw = (2.0 / n) * np.sum(err[:, None] * X, axis=0)
        gb = (2.0 / n) * float(np.sum(err))
    gw = gw + 2.0 * l2_lambda * params.weights
    return gw, gb


def sgd_step(params: LinearParams, x: np.ndarray, y: float, learning_rate: float,
             l2_lambda: float, kind: ModelKind = ModelKind.LINEAR_SGD) -> LinearParams:
    """One stochastic update from a single sample."""
    return incremental_update(params, np.asarray(x, dtype=float)[None, :],
                              np.array([y], dtype=float), learning_rate, l2_lambda, kind)


def incremental_update(params: LinearParams, X: np.ndarray, y: np.ndarray,
                       learning_rate: float, l2_lambda: float,
                       kind: ModelKind = ModelKind.LINEAR_SGD) -> LinearParams:
    """Per-sample SGD over new samples in arrival order."""
    if not kind.is_sgd:
        raise UnsupportedKind(f"{kind.value} cannot be updated incrementally")
    return _sgd(kind, X, y, [np.arange(X.shape[0])], 1, learning_rate, l2_lambda, params)


# A run whose loss ends this many times above both its starting model's and
# the zero model's has diverged, even while its parameters are still finite.
# The losses are taken on the first _CHECK_ROWS rows, which bounds the check's
# time and memory on large train sets.
_DIVERGED_LOSS_RATIO = 1e6
_CHECK_ROWS = 1024


def _sgd(kind: ModelKind, X: np.ndarray, y: np.ndarray, orders: Iterable[np.ndarray],
         batch_size: int, learning_rate: float, l2_lambda: float,
         init: LinearParams) -> LinearParams:
    """Minibatch SGD from ``init``, one step per ``batch_size`` rows of each order.

    Every SGD path runs through here. A step does :func:`loss_gradient`'s
    arithmetic in its order, so results equal a loop over it bit for bit
    (``X.T @ err`` would sum in another order). Raises NonFiniteUpdate when a
    step leaves a parameter non-finite or the run ends diverged.
    """
    if len(init.weights) != X.shape[1]:
        raise SchemaMismatch("warm-start width differs from data width")
    w, b = init.weights.copy(), float(init.bias)
    logistic = kind is ModelKind.LOGISTIC_SGD
    decay = 2.0 * l2_lambda
    with np.errstate(over="ignore", invalid="ignore"):
        for order in orders:
            for start in range(0, len(order), batch_size):
                idx = order[start:start + batch_size]
                n = len(idx)
                xb = X.take(idx, axis=0)
                z = xb @ w + b
                if logistic:
                    diff = _sigmoid(z) - y.take(idx)
                    gw = (diff[:, None] * xb).sum(axis=0) / n
                    gb = float(diff.sum()) / n
                else:
                    err = z - y.take(idx)
                    gw = (2.0 / n) * (err[:, None] * xb).sum(axis=0)
                    gb = (2.0 / n) * float(err.sum())
                if l2_lambda:
                    gw = gw + decay * w
                w = w - learning_rate * gw
                b = b - learning_rate * gb
                if not (np.isfinite(w).all() and math.isfinite(b)):
                    raise NonFiniteUpdate("parameters diverged; lower the learning rate")
        out = LinearParams(w, b)
        if X.shape[0]:
            Xc, yc = X[:_CHECK_ROWS], y[:_CHECK_ROWS]
            start_loss = max(loss_value(kind, init, Xc, yc, l2_lambda),
                             loss_value(kind, zero_params(X.shape[1]), Xc, yc, l2_lambda))
            if not loss_value(kind, out, Xc, yc, l2_lambda) <= _DIVERGED_LOSS_RATIO * start_loss:
                raise NonFiniteUpdate("parameters diverged; lower the learning rate")
    return out


def epoch_orders(n: int, seed: int, epochs: int) -> list[np.ndarray]:
    """The seeded per-epoch shuffles used by SGD training."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(n) for _ in range(epochs)]


# -- evaluation --------------------------------------------------------------------


@dataclass
class EvalMetrics:
    mse: float
    rmse: float
    accuracy: float
    train_ticks: int = 0
    inference_ticks: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "mse": self.mse,
            "rmse": self.rmse,
            "accuracy": self.accuracy,
            "train_ticks": self.train_ticks,
            "inference_ticks": self.inference_ticks,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "EvalMetrics":
        return EvalMetrics(mse=float(d["mse"]), rmse=float(d["rmse"]),
                           accuracy=float(d["accuracy"]),
                           train_ticks=int(d.get("train_ticks", 0)),
                           inference_ticks=int(d.get("inference_ticks", 0)))


def evaluate(params: ModelParameters, kind: ModelKind, X: np.ndarray, y: np.ndarray,
             threshold: float = 0.5) -> EvalMetrics:
    """MSE/RMSE on raw scores plus accuracy of thresholded scores vs labels.

    Actuals are thresholded too, so 0/1 targets compare as classes and the
    accuracy of a perfect predictor is 1 regardless of task type.
    """
    if X.shape[0] == 0:
        raise EmptyEvalSet("evaluation partition is empty")
    scores = predict_score(params, kind, X)
    mse = float(np.mean((scores - y) ** 2))
    labels = (scores >= threshold)
    actual_labels = (y >= threshold)
    accuracy = float(np.mean(labels == actual_labels))
    return EvalMetrics(mse=mse, rmse=float(np.sqrt(mse)), accuracy=accuracy)


def primary_metric(kind: ModelKind, metrics: EvalMetrics) -> float:
    """Value minimized by model selection (accuracy is negated)."""
    return metrics.mse if kind.is_regression else -metrics.accuracy


# -- training ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParameters
    metrics: EvalMetrics
    records_processed: int


def ridge_closed_form(X: np.ndarray, y: np.ndarray, l2_lambda: float,
                      pivot_tol: float = 1e-10) -> LinearParams:
    """Solve (A^T A + lambda D) theta = A^T y with a bias column, D sparing it."""
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A
    for j in range(d):
        G[j, j] += l2_lambda
    rhs = A.T @ y
    theta = _solve_partial_pivot(G, rhs, pivot_tol)
    return LinearParams(theta[:-1], float(theta[-1]))


def _solve_partial_pivot(G: np.ndarray, rhs: np.ndarray, pivot_tol: float) -> np.ndarray:
    """Gaussian elimination with partial pivoting and an explicit pivot floor."""
    m = G.shape[0]
    M = np.hstack([G.astype(float), rhs.reshape(-1, 1).astype(float)])
    for col in range(m):
        pivot_row = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[pivot_row, col]) < pivot_tol:
            raise SingularSystem(f"pivot {M[pivot_row, col]:.3e} below tolerance")
        if pivot_row != col:
            M[[col, pivot_row]] = M[[pivot_row, col]]
        M[col] = M[col] / M[col, col]
        for row in range(m):
            if row != col and M[row, col] != 0.0:
                M[row] = M[row] - M[row, col] * M[col]
    return M[:, -1]


def _fit_stump(X: np.ndarray, y: np.ndarray, classification: bool) -> StumpParams:
    """Exhaustive best single split; ties break by (feature, candidate) order."""
    n, d = X.shape
    best: tuple[float, int, int] | None = None  # (error, feature, candidate index)
    best_stump: StumpParams | None = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        # candidate split after position k: boundaries between distinct values
        distinct = np.nonzero(xs[:-1] < xs[1:])[0]
        if len(distinct) == 0:
            continue
        if classification:
            ones = np.cumsum(ys)
            total_ones = ones[-1]
            for c_idx, k in enumerate(distinct):
                left_n, left_ones = k + 1, ones[k]
                right_n, right_ones = n - left_n, total_ones - ones[k]
                err = (min(left_ones, left_n - left_ones)
                       + min(right_ones, right_n - right_ones))
                if best is None or (err, j, c_idx) < best:
                    thr = (xs[k] + xs[k + 1]) / 2.0
                    left = 1.0 if left_ones * 2 > left_n else 0.0
                    right = 1.0 if right_ones * 2 > right_n else 0.0
                    best = (float(err), j, c_idx)
                    best_stump = StumpParams(j, float(thr), left, right)
        else:
            s = np.cumsum(ys)
            s2 = np.cumsum(ys ** 2)
            total_s, total_s2 = s[-1], s2[-1]
            for c_idx, k in enumerate(distinct):
                ln = k + 1
                rn = n - ln
                sse_l = s2[k] - s[k] ** 2 / ln
                sse_r = (total_s2 - s2[k]) - (total_s - s[k]) ** 2 / rn
                err = sse_l + sse_r
                if best is None or (err, j, c_idx) < best:
                    thr = (xs[k] + xs[k + 1]) / 2.0
                    best = (float(err), j, c_idx)
                    best_stump = StumpParams(j, float(thr), float(s[k] / ln),
                                             float((total_s - s[k]) / rn))
    if best_stump is None:
        # every feature constant: predict the pooled output everywhere
        if classification:
            out = 1.0 if float(np.sum(y)) * 2 > n else 0.0
        else:
            out = float(np.mean(y))
        best_stump = StumpParams(0, float(X[0, 0]) if d else 0.0, out, out)
    return best_stump


def fit(kind: ModelKind, X: np.ndarray, y: np.ndarray, hp: HyperParams, seed: int,
        init: LinearParams | None = None) -> tuple[ModelParameters, int]:
    """Fit one model on (X, y); returns it and the number of records processed.

    SGD kinds run ``hp.epochs`` seeded shuffles from ``init`` (zeros if None);
    the closed form and the stump ignore ``init`` and fit afresh.
    """
    n = X.shape[0]
    if n == 0:
        raise EmptyTrainSet("train split is empty")
    if kind is ModelKind.RIDGE_CLOSED_FORM:
        return ridge_closed_form(X, y, hp.l2_lambda), n
    if not kind.is_sgd:
        return _fit_stump(X, y, classification=not kind.is_regression), n
    init = init if init is not None else zero_params(X.shape[1])
    return _sgd(kind, X, y, epoch_orders(n, seed, hp.epochs), hp.batch_size,
                hp.learning_rate, hp.l2_lambda, init), hp.epochs * n


def fit_standardized(kind: ModelKind, X: np.ndarray, y: np.ndarray, hp: HyperParams,
                     seed: int, init: LinearParams) -> tuple[ModelParameters, int]:
    """:func:`fit` with SGD on X's columns standardised to mean 0 and variance 1
    (a constant column is only centred), from ``init`` mapped onto them, and
    the fit mapped back to X's units. On raw columns, such as an unscaled
    feature on [0, 1], bias and weights are coupled, and ``hp.epochs`` over a
    window of a few rows stop far short of the optimum. With l2_lambda > 0 the
    penalty applies to the standardised weights. Other kinds fit as ``fit``.
    """
    if not kind.is_sgd or not len(X):
        return fit(kind, X, y, hp, seed, init)
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0] = 1.0
    start = LinearParams(init.weights * std, float(init.bias + init.weights @ mean))
    fitted, processed = fit(kind, (X - mean) / std, y, hp, seed, start)
    weights = fitted.weights / std
    return LinearParams(weights, float(fitted.bias - weights @ mean)), processed


def train(kind: ModelKind, split: SplitDataset, hp: HyperParams, seed: int,
          init: LinearParams | None = None,
          costs: CostTable | None = None) -> TrainResult:
    """Fit one model on the train partition and score it on validation."""
    params, processed = fit(kind, split.train.X, split.train.y, hp, seed, init)
    metrics = evaluate(params, kind, split.val.X, split.val.y, hp.threshold) \
        if len(split.val) else EvalMetrics(float("nan"), float("nan"), float("nan"))
    costs = costs or CostTable()
    metrics.train_ticks = processed * costs.train_tick_per_record
    metrics.inference_ticks = len(split.val) * costs.inference_tick_per_record
    return TrainResult(params=params, metrics=metrics, records_processed=processed)


# -- hyperparameter search -----------------------------------------------------------------


@dataclass
class Trial:
    index: int
    hyperparams: HyperParams
    metrics: EvalMetrics | None
    failed: bool = False
    error: str | None = None


@dataclass
class SearchResult:
    best: HyperParams
    best_index: int
    trials: list[Trial]
    total_train_ticks: int


def enumerate_grid(spec: HyperSearchSpec) -> list[dict[str, Any]]:
    if not spec.grid:
        return []
    names = list(spec.grid.keys())
    combos = []
    for values in itertools.product(*(spec.grid[n] for n in names)):
        combos.append(dict(zip(names, values)))
    return combos


def sample_random(spec: HyperSearchSpec) -> list[dict[str, Any]]:
    rng = np.random.default_rng(spec.seed)
    names = list(spec.ranges.keys())
    is_int = {n: HyperParams.__dataclass_fields__[n].type is int for n in names}
    combos = []
    for _ in range(spec.budget):
        combo: dict[str, Any] = {}
        for n in names:
            lo, hi = spec.ranges[n]
            if is_int[n]:
                combo[n] = int(rng.integers(int(lo), int(hi) + 1))
            else:
                combo[n] = float(rng.uniform(lo, hi))
        combos.append(combo)
    return combos


def search(kind: ModelKind, split: SplitDataset, spec: HyperSearchSpec,
           base: HyperParams, seed: int,
           costs: CostTable | None = None) -> SearchResult:
    """Evaluate every candidate; best by validation metric, ties by order."""
    combos = enumerate_grid(spec) if spec.mode == "grid" else sample_random(spec)
    if not combos:
        raise EmptySearchSpace("no hyperparameter combinations to try")
    trials: list[Trial] = []
    total_ticks = 0
    best_value = float("inf")
    best_index = -1
    for i, combo in enumerate(combos):
        hp = base.replace(**combo)
        try:
            result = train(kind, split, hp, seed, costs=costs)
        except NonFiniteUpdate as exc:
            trials.append(Trial(i, hp, None, failed=True, error=str(exc)))
            continue
        total_ticks += result.metrics.train_ticks
        trials.append(Trial(i, hp, result.metrics))
        value = primary_metric(kind, result.metrics)
        if value < best_value:
            best_value = value
            best_index = i
    if best_index < 0:
        raise NonFiniteUpdate("every search trial diverged")
    return SearchResult(best=trials[best_index].hyperparams, best_index=best_index,
                        trials=trials, total_train_ticks=total_ticks)


def trials_to_csv(result: SearchResult) -> str:
    header = ["trial", "learning_rate", "epochs", "batch_size", "l2_lambda",
              "threshold", "val_mse", "val_accuracy", "train_ticks", "failed"]
    lines = [",".join(header)]
    for t in result.trials:
        hp = t.hyperparams
        m = t.metrics
        lines.append(",".join([
            str(t.index), repr(hp.learning_rate), str(hp.epochs), str(hp.batch_size),
            repr(hp.l2_lambda), repr(hp.threshold),
            repr(m.mse) if m else "", repr(m.accuracy) if m else "",
            str(m.train_ticks) if m else "", str(t.failed).lower(),
        ]))
    return "\n".join(lines) + "\n"


# -- interpretation ---------------------------------------------------------------------------


def feature_importance(params: ModelParameters, kind: ModelKind, X: np.ndarray,
                       feature_names: list[str]) -> list[tuple[str, float]]:
    """|weight| x column std for linear kinds; indicator for stumps.

    Descending by importance, ties by feature index.
    """
    if isinstance(params, StumpParams):
        if params.feature >= len(feature_names):
            raise SchemaMismatch("stump feature index outside the schema")
        scores = [1.0 if j == params.feature else 0.0
                  for j in range(len(feature_names))]
    else:
        if len(params.weights) != len(feature_names) or X.shape[1] != len(feature_names):
            raise SchemaMismatch("parameter width differs from the dataset schema")
        sigma = np.std(X, axis=0)
        scores = [float(abs(w) * s) for w, s in zip(params.weights, sigma)]
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return [(feature_names[j], scores[j]) for j in order]


def training_objective(params: LinearParams, X: np.ndarray, y: np.ndarray,
                       l2_lambda: float) -> float:
    """Sum-of-squares ridge objective minimized by the closed form."""
    resid = X @ params.weights + params.bias - y
    return float(resid @ resid) + l2_lambda * float(params.weights @ params.weights)


def params_from_list(kind: ModelKind, values: Iterable[float]) -> ModelParameters:
    vals = [float(v) for v in values]
    if kind is ModelKind.DECISION_STUMP:
        if len(vals) != 4:
            raise SchemaMismatch("stump parameters must have 4 entries")
        return StumpParams(int(vals[0]), vals[1], vals[2], vals[3])
    if not vals:
        raise SchemaMismatch("parameter list is empty")
    return LinearParams(np.array(vals[:-1], dtype=float), vals[-1])

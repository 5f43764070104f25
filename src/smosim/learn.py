"""Model zoo and training: SGD linear/logistic models, closed-form ridge,
depth-1 decision stumps, hyperparameter search and evaluation.

:func:`labels` decides what a class is: a target at or above the threshold is
a 1. The classifier kinds (LogisticSgd, DecisionStump) fit the labels at
``hp.threshold``, labelled once at the fit entry points (:func:`fit`,
:func:`_fit_rates`, :func:`incremental_update`), and the regression kinds fit
raw targets. :func:`evaluate` scores predicted classes against the labels.

Everything is deterministic given (data, hyperparams, seed); ties anywhere
break by enumeration order. Training cost is simulated: records processed
times a configured per-record tick cost, never wall clock.

The linear models live on A = [X | 1] with parameters p = [w, b], so that a
minibatch's scores are one product ``A @ p`` and its gradient another,
``(z - y) @ A``. Every SGD fit runs through one kernel, :func:`_lockstep`,
whose steps equal a loop over :func:`loss_gradient` bit for bit. A kernel
call fits F >= 1 models on one train partition and one set of epoch orders,
each from its init at its learning rate: it stacks them on a leading fit
axis and steps every fit on every minibatch, and a lone fit is a stack of
one. Stacked ``np.matmul`` runs the BLAS call per fit that the 2-D product
runs (numpy 2.4.6 with its bundled OpenBLAS), and a per-fit rate is the same
multiply per element as a shared one, so each stacked fit equals a fit of
its own. :func:`train` is one fit; :func:`search` fits the trials that
differ only in learning rate together, and keeps the winning trial's result,
so a searched model deploys as its trial fitted it.

A LinearSgd fit is an affine map of its init, p -> M p + v, since every
squared-loss step is. :func:`affine_fit` builds it for one train partition:
v is one :func:`train` call's fit from the zero init, and M the product of
the fit's step matrices, one per minibatch, which are not stepped but
multiplied pairwise in log depth (:func:`_chain`), a batched matmul a level.
:class:`AffineFit` applies the map: a refit of the same rows, seed and
hyperparameters from another init, as in each scenario C share-models
round, is then a matrix-vector product, not SGD's sequential steps, and its
divergence check a quadratic form on a stored Gram matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .config import CostTable, HyperParams, HyperSearchSpec, ModelKind
from .errors import (
    EmptyEvalSet,
    EmptySearchSpace,
    EmptyTrainSet,
    NonFiniteUpdate,
    SchemaMismatch,
    SimulationError,
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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``z``, into ``out`` if given (``z`` itself may
    be ``out``: each element is read before it is written)."""
    out = np.empty_like(z, dtype=float) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    neg = ~pos
    ez = np.exp(z[neg])
    out[neg] = ez / (1.0 + ez)
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
    """Batch-averaged gradient of loss_value; bias never regularized.

    On A = [X | 1] and p = [w, b]: ``z = A @ p``, and the gradient is
    ``((z - y) @ A) * (2 / n)``, or ``((sigmoid(z) - y) @ A) / n`` for the
    logistic loss, with ``2 * l2_lambda * w`` added to its weight part. A is
    C-ordered, as the kernel's buffers are, so both products run the BLAS
    call the kernel runs.
    """
    n, d = X.shape
    A = np.ones((n, d + 1), X.dtype)
    A[:, :d] = X
    z = A @ np.append(params.weights, params.bias)
    if kind is ModelKind.LOGISTIC_SGD:
        g = ((_sigmoid(z) - y) @ A) / n
    else:
        g = ((z - y) @ A) * (2.0 / n)
    return g[:d] + 2.0 * l2_lambda * params.weights, float(g[d])


def labels(y: np.ndarray, threshold: float) -> np.ndarray:
    """The classes of ``y`` at ``threshold``: 1.0 where y >= threshold, else 0.0."""
    return (y >= threshold).astype(float)


def _targets(kind: ModelKind, y: np.ndarray, hp: HyperParams) -> np.ndarray:
    """What ``kind`` fits: a classifier the labels at ``hp.threshold``, else ``y``."""
    return y if kind.is_regression else labels(y, hp.threshold)


def incremental_update(params: LinearParams, X: np.ndarray, y: np.ndarray, hp: HyperParams,
                       kind: ModelKind = ModelKind.LINEAR_SGD) -> LinearParams:
    """Per-sample SGD over new samples in arrival order, at ``hp``'s learning
    rate and L2 weight; LogisticSgd steps on the labels of ``y``."""
    if not kind.is_sgd:
        raise UnsupportedKind(f"{kind.value} cannot be updated incrementally")
    return _raised(_sgd(kind, X, _targets(kind, y, hp), [np.arange(X.shape[0])],
                        [(params, hp.learning_rate)], 1, hp.l2_lambda)[0])


def _raised(outcome):
    """A fit's outcome, raising it if it is the error the fit raised."""
    if isinstance(outcome, SimulationError):
        raise outcome
    return outcome


# A run whose loss ends this many times above both its starting model's and
# the zero model's has diverged, even while its parameters are still finite.
# The losses are taken on the first _CHECK_ROWS rows, which bounds the check's
# time and memory on large train sets.
_DIVERGED_LOSS_RATIO = 1e6
_CHECK_ROWS = 1024
# Minibatches whose rows one take gathers: a gather's cost is shared by many
# steps, and the buffers stay small however large the train set.
_GATHER_STEPS = 64
# Fits that one kernel call stacks at most: its buffers hold up to
# _GATHER_STEPS minibatches of rows per fit, so a search of many trials
# steps them in lockstep this many at a time.
_STACK_FITS = 16


def _sgd(kind: ModelKind, X: np.ndarray, y: np.ndarray, orders: Iterable[np.ndarray],
         starts: Sequence[tuple[LinearParams, float]], batch_size: int,
         l2_lambda: float) -> list[LinearParams | NonFiniteUpdate]:
    """Minibatch SGD on (X, y) of each fit in ``starts``, from its init at its
    learning rate, one step per ``batch_size`` rows of each order; per fit,
    its parameters or the error it raised.

    Every SGD path runs through here, and all the fits of a call through one
    call of the kernel, :func:`_lockstep`, whose steps equal a loop over
    :func:`loss_gradient` bit for bit: the fits share their train partition
    and orders, and differ only in init and learning rate. An init of another
    width than X raises SchemaMismatch.

    A fit's error is a NonFiniteUpdate when an order leaves a parameter
    non-finite or the run ends diverged; it stops that fit alone. Checking
    once per order finds exactly the fits a per-step check would: a
    non-finite parameter stays non-finite under every later step (inf minus
    anything is inf or NaN, and NaN propagates).
    """
    if any(len(init.weights) != X.shape[1] for init, _ in starts):
        raise SchemaMismatch("warm-start width differs from data width")
    with np.errstate(over="ignore", invalid="ignore"):
        return [params if isinstance(params, NonFiniteUpdate)
                else _checked(kind, X, y, init, params, l2_lambda)
                for (init, _), params in zip(starts, _lockstep(kind, X, y, orders, starts,
                                                               batch_size, l2_lambda))]


def _diverged_error() -> NonFiniteUpdate:
    return NonFiniteUpdate("parameters diverged; lower the learning rate")


def _checked(kind: ModelKind, X: np.ndarray, y: np.ndarray, init: LinearParams,
             out: LinearParams, l2_lambda: float) -> LinearParams | NonFiniteUpdate:
    """``out``, or the error of a run that ended diverged (see _DIVERGED_LOSS_RATIO)."""
    if X.shape[0]:
        Xc, yc = X[:_CHECK_ROWS], y[:_CHECK_ROWS]
        start_loss = max(loss_value(kind, init, Xc, yc, l2_lambda),
                         loss_value(kind, zero_params(X.shape[1]), Xc, yc, l2_lambda))
        if not loss_value(kind, out, Xc, yc, l2_lambda) <= _DIVERGED_LOSS_RATIO * start_loss:
            return _diverged_error()
    return out


def _lockstep(kind: ModelKind, X: np.ndarray, y: np.ndarray, orders: Iterable[np.ndarray],
              starts: Sequence[tuple[LinearParams, float]], batch_size: int,
              l2_lambda: float) -> list[LinearParams | NonFiniteUpdate]:
    """The SGD kernel: F >= 1 fits on (X, y) in lockstep, one epoch order at a
    time, each from its init at its learning rate.

    Each block of _GATHER_STEPS minibatches of an order is gathered once
    into fit 0's slice of a buffer of (F, rows, d + 1) whose last column
    holds ones, filled once, so that the buffer is [X | 1], and copied to the
    other fits' slices; the fits' parameters are the rows of P (F, d + 1). A
    step on the fits' minibatches ``Ab`` is ``z = Ab @ P`` (one stacked
    ``np.matmul``), the logistic function for the logistic loss, ``z -= y``,
    ``G = z @ Ab`` (a second), the scale of :func:`loss_gradient`, the L2
    term on the weight slice, then ``P -= rate * G``. Stacked ``np.matmul``
    runs the BLAS call per fit that :func:`loss_gradient`'s 2-D products
    run, on the same strides, so each fit's parameters equal a loop over it
    bit for bit (checked on numpy 2.4.6 with its bundled OpenBLAS). Each fit
    has a copy of the rows, not a broadcast view of fit 0's, so that its
    operands have the strides of a lone fit's.

    A fit whose parameters go non-finite is a NonFiniteUpdate. Its rows go
    on being stepped until every fit has failed, and the other fits never
    read them.
    """
    count, (n, d) = len(starts), X.shape
    block = _GATHER_STEPS * batch_size
    A = np.ones((count, min(block, n), d + 1), X.dtype)
    Y = np.empty(A.shape[:2], y.dtype)
    P = np.array([np.append(init.weights, init.bias) for init, _ in starts], float)
    # each fit's rate in its row: an (F, d + 1) operand multiplies as fast as
    # a 0-d one, where broadcasting an (F, 1) one costs about 1 us more a step
    lr = np.repeat(np.array([rate for _, rate in starts], float), d + 1).reshape(P.shape)
    Z = np.empty((count, batch_size, 1))  # scores
    G = np.empty((count, 1, d + 1))  # gradients
    decayed = np.empty((count, d))
    # scalar operands as 0-d arrays: a ufunc takes them faster than Python
    # floats, and the float64 arithmetic is the same
    decay = np.array(2.0 * l2_lambda)
    logistic = kind is ModelKind.LOGISTIC_SGD
    scale = np.true_divide if logistic else np.multiply
    matmul, add, multiply, subtract = np.matmul, np.add, np.multiply, np.subtract
    P3, G3, Gf, Pw, Gw = P[:, :, None], G, G[:, 0], P[:, :d], G[:, 0, :d]
    views: dict[int, list[tuple]] = {}

    def minibatches(rows: int) -> list[tuple]:
        """(rows, targets, scores as (F, n, 1), (F, n) and (F, 1, n), scale) of
        each minibatch in the first ``rows`` gathered rows."""
        if rows not in views:
            views[rows] = []
            for s in range(0, rows, batch_size):
                m = min(batch_size, rows - s)
                z3 = Z[:, :m]
                views[rows].append((A[:, s:s + m], Y[:, s:s + m], z3, z3[:, :, 0],
                                    z3.transpose(0, 2, 1),
                                    np.array(float(m) if logistic else 2.0 / m)))
        return views[rows]

    finite = np.ones(count, bool)
    for order in orders:
        for first in range(0, n, block):
            idx = order[first:first + block]
            rows = len(idx)
            # a take into the strided A[0, :, :d] would fill a contiguous copy
            # of it and write that back; taking first and assigning is faster
            A[0, :rows, :d] = X.take(idx, 0)
            # indices from a permutation never wrap, and "wrap" skips the copy
            # that "raise" makes when it writes to ``out``
            y.take(idx, 0, Y[0, :rows], "wrap")
            A[1:, :rows] = A[0, :rows]
            Y[1:, :rows] = Y[0, :rows]
            for Ab, yb, z3, z, zT, c in minibatches(rows):
                matmul(Ab, P3, z3)
                if logistic:
                    _sigmoid(z, z)
                subtract(z, yb, z)
                matmul(zT, Ab, G3)
                scale(Gf, c, Gf)
                if l2_lambda:
                    multiply(Pw, decay, decayed)
                    add(Gw, decayed, Gw)
                multiply(Gf, lr, Gf)
                subtract(P, Gf, P)
        finite &= np.isfinite(P).all(axis=1)
        if not finite.any():
            break
    return [LinearParams(P[f, :d].copy(), float(P[f, d])) if finite[f] else _diverged_error()
            for f in range(count)]


def epoch_orders(n: int, seed: int, epochs: int) -> Iterator[np.ndarray]:
    """The seeded per-epoch shuffles used by SGD training, one epoch at a time
    from one generator, so they take O(n) memory however many epochs."""
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        yield rng.permutation(n)


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
                           train_ticks=whole(d.get("train_ticks", 0)),
                           inference_ticks=whole(d.get("inference_ticks", 0)))


def whole(value: Any) -> int:
    """``value``, an int or an integral float, as an int >= 0; else ValueError."""
    if type(value) not in (int, float) or value < 0 or value != int(value):
        raise ValueError(f"{value!r} is not a whole number >= 0")
    return int(value)


def evaluate(params: ModelParameters, kind: ModelKind, X: np.ndarray, y: np.ndarray,
             threshold: float = 0.5) -> EvalMetrics:
    """MSE/RMSE of the raw scores against ``y``, and accuracy of the predicted
    classes against ``y``'s :func:`labels` at ``threshold``: a regression
    score's label at ``threshold``, a classifier's (a class or P(class 1)) at
    0.5. A perfect predictor's accuracy is 1 regardless of task type."""
    if X.shape[0] == 0:
        raise EmptyEvalSet("evaluation partition is empty")
    scores = predict_score(params, kind, X)
    mse = float(np.mean((scores - y) ** 2))
    cut = threshold if kind.is_regression else 0.5
    accuracy = float(np.mean(labels(scores, cut) == labels(y, threshold)))
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


def ridge_closed_form(X: np.ndarray, y: np.ndarray, l2_lambda: float) -> LinearParams:
    """Solve (A^T A + lambda D) theta = A^T y with a bias column, D sparing it.

    Raises SingularSystem when the system's smallest singular value is below
    m * eps times its largest (m unknowns), where a solve would return noise.
    """
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ A
    for j in range(d):
        G[j, j] += l2_lambda
    rhs = A.T @ y
    try:
        # G is symmetric, so its singular values are its eigenvalues' magnitudes
        sigma = np.abs(np.linalg.eigvalsh(G))
        floor = len(G) * np.finfo(float).eps * sigma.max()
        if not sigma.min() > floor:
            raise SingularSystem(f"smallest singular value {sigma.min():.3e} "
                                 f"not above {floor:.3e}")
        theta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return LinearParams(theta[:-1], float(theta[-1]))


def _fit_stump(X: np.ndarray, y: np.ndarray) -> StumpParams:
    """The split of (X, 0/1 labels y) with the fewest misclassified rows and
    majority leaves (0 on a tie); ties break by (feature, candidate) order."""
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
    if best_stump is None:
        # every feature constant: predict the majority label everywhere
        out = 1.0 if float(np.sum(y)) * 2 > n else 0.0
        best_stump = StumpParams(0, float(X[0, 0]) if d else 0.0, out, out)
    return best_stump


def fit(kind: ModelKind, X: np.ndarray, y: np.ndarray, hp: HyperParams, seed: int,
        init: LinearParams | None = None) -> tuple[ModelParameters, int]:
    """Fit one model on (X, y); returns it and the number of records processed.

    SGD kinds run ``hp.epochs`` seeded shuffles from ``init`` (zeros if None),
    one :func:`_sgd` fit; the closed form and the stump ignore ``init`` and
    fit afresh. Classifiers fit the :func:`labels` of ``y`` at ``hp.threshold``.
    """
    n = X.shape[0]
    if n == 0:
        raise EmptyTrainSet("train split is empty")
    y = _targets(kind, y, hp)
    if kind is ModelKind.RIDGE_CLOSED_FORM:
        return ridge_closed_form(X, y, hp.l2_lambda), n
    if not kind.is_sgd:
        return _fit_stump(X, y), n
    start = init if init is not None else zero_params(X.shape[1])
    return _raised(_sgd(kind, X, y, epoch_orders(n, seed, hp.epochs), [(start, hp.learning_rate)],
                        hp.batch_size, hp.l2_lambda)[0]), hp.epochs * n


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
    """Fit one model on the train partition, as :func:`fit`, and score it on
    validation."""
    return scored(kind, split, hp, costs or CostTable(),
                  fit(kind, split.train.X, split.train.y, hp, seed, init))


def scored(kind: ModelKind, split: SplitDataset, hp: HyperParams, costs: CostTable,
           fitted: tuple[ModelParameters, int]) -> TrainResult:
    """A fit's (parameters, records processed), scored on validation (NaN if empty)."""
    params, processed = fitted
    metrics = evaluate(params, kind, split.val.X, split.val.y, hp.threshold) \
        if len(split.val) else EvalMetrics(float("nan"), float("nan"), float("nan"))
    metrics.train_ticks = processed * costs.train_tick_per_record
    metrics.inference_ticks = len(split.val) * costs.inference_tick_per_record
    return TrainResult(params=params, metrics=metrics, records_processed=processed)


# -- affine fits ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffineFit:
    """A LinearSgd fit on one train partition as the affine map of its init
    that it is: on p = [w, b], the fit from p is ``matrix @ p + offset``.

    A squared-loss step on a minibatch Ab of n rows of A = [X | 1] is
    ``p - rate * (2/n * (Ab @ p - y) @ Ab + 2 lambda D p)``, with D the
    identity on the weights, so it is ``S @ p + c`` with the step matrix
    ``S = I - rate * (2/n * Ab^T Ab + 2 lambda D)``. A run of such steps over
    fixed rows, orders and hyperparameters is affine in p too, and its linear
    part is the product of its step matrices, later on the left: that is
    ``matrix``. In exact arithmetic ``matrix @ p + offset`` is then the fit
    from p; in floating point the two differ only by the roundings of the
    steps and of the products, which stay small wherever stepping converges,
    since the step matrices then do not expand them. ``offset`` is the
    stepped fit from the zero init, so the map applied at zero gives it bit
    for bit.

    ``gram`` is the Gram matrix of [A | -y] over the first _CHECK_ROWS train
    rows, divided by their count, and ``zero_loss`` the zero init's
    :func:`loss_value` there: :meth:`apply` takes the losses of its init and
    result as quadratic forms on it, so it checks for divergence as
    :func:`_checked` does without keeping or reading the rows.
    """

    matrix: np.ndarray
    offset: np.ndarray
    gram: np.ndarray = field(repr=False)
    l2_lambda: float
    zero_loss: float

    def _loss(self, p: np.ndarray) -> float:
        """:func:`loss_value` of p = [w, b] on the check rows."""
        q = np.append(p, 1.0)
        return float(q @ self.gram @ q) + self.l2_lambda * float(p[:-1] @ p[:-1])

    def apply(self, init: LinearParams) -> LinearParams | None:
        """The fit from ``init``, or None where stepping must stand in: an init
        of another width, or a result that is non-finite or fails
        :func:`_checked`'s divergence test."""
        if len(init.weights) + 1 != len(self.offset):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            start = np.append(init.weights, init.bias)
            p = self.matrix @ start + self.offset
            start_loss = max(self._loss(start), self.zero_loss)
            if not (np.isfinite(p).all() and self._loss(p) <= _DIVERGED_LOSS_RATIO * start_loss):
                return None
        return LinearParams(p[:-1], float(p[-1]))


def _step_matrices(A: np.ndarray, hp: HyperParams) -> np.ndarray:
    """The step matrices of one epoch over the rows of A = [X | 1] in their
    order, one per minibatch of ``hp.batch_size`` rows (see
    :class:`AffineFit`): the full minibatches' Gram matrices in one batched
    matmul, and the ragged last one's on its own."""
    n, m = A.shape
    b = hp.batch_size
    full = n // b
    S = np.empty((-(-n // b), m, m))
    blocks = A[:full * b].reshape(full, b, m)
    np.matmul(blocks.transpose(0, 2, 1), blocks, S[:full])
    S[:full] *= -hp.learning_rate * 2.0 / b
    if full < len(S):
        rest = A[full * b:]
        np.matmul(rest.T, rest, S[full])
        S[full] *= -hp.learning_rate * 2.0 / len(rest)
    diagonals = S.reshape(len(S), m * m)[:, ::m + 1]
    diagonals[:, :-1] -= hp.learning_rate * 2.0 * hp.l2_lambda
    diagonals += 1.0
    return S


def _chain(S: np.ndarray) -> np.ndarray:
    """The product ``S[-1] @ ... @ S[0]`` of a stack of K >= 1 square
    matrices, pairwise in ceil(log2 K) levels: each level multiplies the later
    matrix of each pair onto the earlier in one batched matmul, and an odd
    last matrix waits for the next level."""
    while len(S) > 1:
        even = len(S) // 2 * 2
        paired = np.matmul(S[1:even:2], S[0:even:2])
        S = paired if even == len(S) else np.concatenate([paired, S[even:]])
    return S[0]


def affine_fit(split: SplitDataset, hp: HyperParams, seed: int) -> AffineFit:
    """The :class:`AffineFit` of a LinearSgd :func:`train` on ``split`` with
    ``hp`` and ``seed``. Its offset is one train call's fit from the zero
    init. Its matrix is composed, not stepped: per epoch order, the step
    matrices of the rows in that order chained into the epoch's map, and the
    epochs' maps chained in turn. That is the product of the same step
    matrices that stepping applies one by one, in the same order, so it
    equals stepping to rounding (see :class:`AffineFit`), and it takes about
    log2 of the step count in batched products, not one step after another.
    Raises the error the zero init's fit raised, and NonFiniteUpdate for a
    map with a non-finite entry."""
    X, y = split.train.X, split.train.y
    own = train(ModelKind.LINEAR_SGD, split, hp, seed).params
    n, d = X.shape
    A = np.ones((n, d + 1))
    A[:, :d] = X
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _chain(np.array([_chain(_step_matrices(A.take(order, 0), hp))
                                  for order in epoch_orders(n, seed, hp.epochs)]))
    if not np.isfinite(matrix).all():
        raise NonFiniteUpdate("the fit's affine map is not finite")
    B = np.column_stack([A[:_CHECK_ROWS], -y[:_CHECK_ROWS]])
    return AffineFit(matrix, np.append(own.weights, own.bias), B.T @ B / len(B), hp.l2_lambda,
                     loss_value(ModelKind.LINEAR_SGD, zero_params(d), X[:_CHECK_ROWS],
                                y[:_CHECK_ROWS], hp.l2_lambda))


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
    """The trials of a search in candidate order, and its winner: its
    hyperparameters, its index and its TrainResult, which is the result a
    :func:`train` call of the winning hyperparameters returns bit for bit."""

    best: HyperParams
    best_index: int
    trials: list[Trial]
    total_train_ticks: int
    best_result: TrainResult


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
    """Evaluate every candidate; best by validation metric, ties by order.

    Each trial's result equals a :func:`train` call of its own bit for bit,
    though SGD trials whose hyperparameters differ only in learning rate fit
    together on ``split``'s one train partition, not through :func:`train`
    (see :func:`_trial_results`). A trial whose fit raises
    NonFiniteUpdate fails alone; any other error raises, the one the first
    trial in candidate order to raise it raised. An empty validation
    partition raises EmptyEvalSet before any fit, as no trial could be scored.
    """
    combos = enumerate_grid(spec) if spec.mode == "grid" else sample_random(spec)
    if not combos:
        raise EmptySearchSpace("no hyperparameter combinations to try")
    if not len(split.val):
        raise EmptyEvalSet("validation partition is empty, so no trial can be scored")
    hps = [base.replace(**combo) for combo in combos]
    results = _trial_results(kind, split, hps, seed, costs)
    trials: list[Trial] = []
    total_ticks = 0
    best_value = float("inf")
    best_index = -1
    for i, (hp, result) in enumerate(zip(hps, results)):
        if isinstance(result, NonFiniteUpdate):
            trials.append(Trial(i, hp, None, failed=True, error=str(result)))
            continue
        result = _raised(result)
        total_ticks += result.metrics.train_ticks
        trials.append(Trial(i, hp, result.metrics))
        value = primary_metric(kind, result.metrics)
        if value < best_value:
            best_value = value
            best_index = i
    if best_index < 0:
        raise NonFiniteUpdate("every search trial diverged")
    return SearchResult(best=trials[best_index].hyperparams, best_index=best_index,
                        trials=trials, total_train_ticks=total_ticks,
                        best_result=results[best_index])  # type: ignore[arg-type]


def _trial_results(kind: ModelKind, split: SplitDataset, hps: Sequence[HyperParams],
                   seed: int, costs: CostTable | None) -> list[TrainResult | SimulationError]:
    """Per hyperparameter set, the result of training on ``split`` with it,
    or the SimulationError its fit raised.

    SGD sets that differ only in learning rate share their train partition,
    batch size and epoch orders, so each such group fits in one
    :func:`_fit_rates` call. Other kinds fit one set per call.
    """
    groups: dict[Any, list[int]] = {}
    for i, hp in enumerate(hps):
        key = hp.replace(learning_rate=hps[0].learning_rate) if kind.is_sgd else i
        groups.setdefault(key, []).append(i)
    out: list[TrainResult | SimulationError | None] = [None] * len(hps)
    for members in groups.values():
        results = _fit_rates(kind, split, hps[members[0]], seed,
                             [hps[i].learning_rate for i in members], costs or CostTable())
        for i, result in zip(members, results):
            out[i] = result
    return out  # type: ignore[return-value]


def _fit_rates(kind: ModelKind, split: SplitDataset, hp: HyperParams, seed: int,
               rates: Sequence[float], costs: CostTable) -> list[TrainResult | SimulationError]:
    """Per learning rate, the result of a :func:`train` call on ``split`` with
    ``hp`` at that rate, or the SimulationError its fit raised.

    An SGD kind's fits from the zero init share the partition and its epoch
    orders, so up to _STACK_FITS of them step in one :func:`_sgd` call, a
    kernel call with a learning rate per fit, and each equals its own call
    bit for bit. An empty partition, or another kind, fits once per rate.
    """
    X = split.train.X
    if not (kind.is_sgd and len(X)):
        out: list[TrainResult | SimulationError] = []
        for rate in rates:
            try:
                out.append(train(kind, split, hp.replace(learning_rate=rate), seed, costs=costs))
            except SimulationError as exc:
                out.append(exc)
        return out
    n, zero, y = len(X), zero_params(X.shape[1]), _targets(kind, split.train.y, hp)
    fitted: list[LinearParams | NonFiniteUpdate] = []
    for first in range(0, len(rates), _STACK_FITS):
        fitted += _sgd(kind, X, y, epoch_orders(n, seed, hp.epochs),
                       [(zero, rate) for rate in rates[first:first + _STACK_FITS]],
                       hp.batch_size, hp.l2_lambda)
    return [params if isinstance(params, NonFiniteUpdate)
            else scored(kind, split, hp, costs, (params, hp.epochs * n)) for params in fitted]


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


def params_from_list(kind: ModelKind, values: Iterable[float]) -> ModelParameters:
    vals = [float(v) for v in values]
    if kind is ModelKind.DECISION_STUMP:
        if len(vals) != 4:
            raise SchemaMismatch("stump parameters must have 4 entries")
        if not vals[0].is_integer():
            raise SchemaMismatch(f"stump split feature {vals[0]!r} is not a whole number")
        return StumpParams(int(vals[0]), vals[1], vals[2], vals[3])
    if not vals:
        raise SchemaMismatch("parameter list is empty")
    return LinearParams(np.array(vals[:-1], dtype=float), vals[-1])

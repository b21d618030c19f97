"""Reference GBDT boosting and per-tree prediction.

:func:`predict` is the loop :meth:`repro.ml.gbdt.GBDTRegressor.predict`
ran before the ensemble was packed into flat arrays: one
``predict_binned`` walk per tree, accumulated in tree order into a
running sum that starts at the base score.

:func:`fit` and :func:`fit_more` are the boosting loop the package ran
as ``mode="reference"``: every stage grows its tree with the per-feature
reference grower (:mod:`oracles.tree`) and advances the training
predictions with a fresh ``predict_binned`` walk over the whole binned
matrix.  They fill a :class:`~repro.ml.gbdt.GBDTRegressor`'s fitted
state, so its trees, scores and training predictions can be compared
with the package's byte for byte.
"""

from __future__ import annotations

import numpy as np

from oracles import tree as tree_oracle
from repro.ml.gbdt import GBDTParams, GBDTRegressor
from repro.ml.tree import Binner, TreeParams


def predict(model, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
    """``model.predict(X, n_trees)`` computed tree by tree."""
    if model.binner_ is None:
        raise RuntimeError("model not fitted")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    Xb = model.binner_.transform(X)
    if n_trees is None:
        n_trees = (
            model.best_iteration_ + 1
            if model.best_iteration_ is not None
            else len(model.trees_)
        )
    return _predict_binned(model, Xb, n_trees)


def _predict_binned(model, Xb: np.ndarray, n_trees: int) -> np.ndarray:
    out = np.full(Xb.shape[0], model.base_score_)
    lr = model.params.learning_rate
    for tree in model.trees_[:n_trees]:
        out += lr * tree.predict_binned(Xb)
    return out


def fit(
    params: GBDTParams | None,
    X: np.ndarray,
    y: np.ndarray,
    eval_set: tuple[np.ndarray, np.ndarray] | None = None,
) -> GBDTRegressor:
    """``GBDTRegressor(params).fit(X, y, eval_set)`` by the reference loop."""
    model = GBDTRegressor(params)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X/y shape mismatch")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    p = model.params
    rng = np.random.default_rng(p.random_state)

    model.binner_ = Binner(max_bins=p.max_bins)
    Xb = model.binner_.fit_transform(X)
    model.base_score_ = float(y.mean())
    pred = np.full(y.shape[0], model.base_score_)

    Xb_val = yv = pred_val = None
    if eval_set is not None:
        Xv, yv = eval_set
        Xb_val = model.binner_.transform(np.asarray(Xv, dtype=float))
        yv = np.asarray(yv, dtype=float)
        pred_val = np.full(yv.shape[0], model.base_score_)

    tree_params = TreeParams(
        max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf
    )
    best_val = np.inf
    best_iter = 0
    n_bins = model.binner_.n_bins

    for it in range(p.n_estimators):
        tree = _boost_round(model, Xb, y, pred, rng, tree_params, n_bins)

        if pred_val is not None:
            pred_val += p.learning_rate * tree.predict_binned(Xb_val)
            val_mse = float(np.mean((yv - pred_val) ** 2))
            model.valid_scores_.append(val_mse)
            if val_mse < best_val - 1e-12:
                best_val = val_mse
                best_iter = it
            elif (
                p.early_stopping_rounds is not None
                and it - best_iter >= p.early_stopping_rounds
            ):
                break
    model.best_iteration_ = (
        best_iter if (eval_set is not None and model.valid_scores_) else None
    )
    model._Xb_train = Xb
    model._y_train = y
    model._pred_train = pred
    model._rng = rng
    return model


def fit_more(
    model: GBDTRegressor, X_new: np.ndarray, y_new: np.ndarray, n_more: int
) -> GBDTRegressor:
    """``model.fit_more(X_new, y_new, n_more)`` by the reference loop."""
    if model.binner_ is None or model._Xb_train is None:
        raise RuntimeError("model not fitted; call fit() before fit_more()")
    if model.best_iteration_ is not None:
        raise RuntimeError("cannot continue an early-stopped fit")
    p = model.params
    X_new = np.asarray(X_new, dtype=float)
    y_new = np.asarray(y_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new.reshape(1, -1)
    if X_new.shape[0]:
        Xb_new = model.binner_.transform(X_new)
        pred_new = _predict_binned(model, Xb_new, len(model.trees_))
        model._Xb_train = np.vstack([model._Xb_train, Xb_new])
        model._y_train = np.concatenate([model._y_train, y_new])
        model._pred_train = np.concatenate([model._pred_train, pred_new])

    Xb, y, pred = model._Xb_train, model._y_train, model._pred_train
    tree_params = TreeParams(
        max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf
    )
    n_bins = model.binner_.n_bins
    for _ in range(n_more):
        _boost_round(model, Xb, y, pred, model._rng, tree_params, n_bins)
    return model


def _boost_round(model, Xb, y, pred, rng, tree_params, n_bins):
    p = model.params
    n = y.shape[0]
    residual = y - pred
    idx = None
    if p.subsample < 1.0:
        k = max(1, int(round(p.subsample * n)))
        idx = rng.choice(n, size=k, replace=False)
    tree = tree_oracle.fit(
        tree_params, Xb, residual, sample_indices=idx, n_bins=n_bins
    )
    pred += p.learning_rate * tree.predict_binned(Xb)
    model.trees_.append(tree)
    model.train_scores_.append(float(np.mean((y - pred) ** 2)))
    return tree

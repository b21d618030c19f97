"""Per-tree GBDT ensemble prediction: the oracle for the packed walk.

This is the loop :meth:`repro.ml.gbdt.GBDTRegressor.predict` ran before
the ensemble was packed into flat arrays: one ``predict_binned`` walk per
tree, accumulated in tree order into a running sum that starts at the
base score.
"""

from __future__ import annotations

import numpy as np


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
    out = np.full(X.shape[0], model.base_score_)
    lr = model.params.learning_rate
    for tree in model.trees_[:n_trees]:
        out += lr * tree.predict_binned(Xb)
    return out

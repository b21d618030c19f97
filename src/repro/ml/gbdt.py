"""Gradient-Boosted Decision Trees for regression (squared loss).

Scratch numpy implementation of the model class the paper uses for both
services (LightGBM [42] in the original): histogram trees, shrinkage,
stochastic row subsampling, and optional early stopping on a validation
split.  For squared loss the negative gradient is simply the residual, so
each stage fits a :class:`~repro.ml.tree.RegressionTree` to residuals.

Every stage grows its tree with the one grower of :mod:`repro.ml.tree`
over a :class:`~repro.ml.tree.HistogramCache` built once per fit from the
frozen binned matrix (ragged: each feature gets only as many histogram
cells as the binner gave it bins) and reused by every stage, extended
when :meth:`GBDTRegressor.fit_more` appends rows.  When no rows are
subsampled, the stage advances the training predictions with the leaf
values of the leaves the fit already routed each row to, instead of
walking the new tree again.  The cache is derived state: never pickled,
rebuilt on the first ``fit_more`` after unpickling.  The reference
boosting loop (per-feature grower, per-stage tree walk) is the
test-side oracle in ``tests/oracles/gbdt.py``.

Prediction has one path, a *packed ensemble walk*.  Every tree's flat
arrays are concatenated (node ids shifted by per-tree offsets) into one
:class:`_PackedEnsemble`, with each leaf made a self-loop (``left ==
right == self``, ``feature == 0``).  A ``(rows, trees)`` node matrix then
advances ``max_depth`` vectorized steps — rows that reach a leaf early
just stay there — so a call costs ~``max_depth`` numpy dispatches instead
of ``max_depth`` per tree.  The gathered leaf values are scaled by the
learning rate and reduced with ``np.cumsum`` along the tree axis, the
base score in column 0.  ``cumsum`` adds strictly left to right, which is
exactly the order of the per-tree ``out += lr * tree.predict_binned(Xb)``
loop, so the result is bit-identical to it; ``np.sum`` would not be (its
pairwise summation regroups the additions).  The pack is derived state:
built lazily, extended when :meth:`GBDTRegressor.fit_more` appends trees,
and never pickled.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .tree import Binner, HistogramCache, RegressionTree, TreeParams

__all__ = ["GBDTParams", "GBDTRegressor", "keep_training_state"]

#: nesting depth of :func:`keep_training_state` contexts
_KEEP_TRAINING_STATE = 0


@contextmanager
def keep_training_state():
    """Make GBDT pickles carry their ``fit_more`` continuation buffers.

    By default :meth:`GBDTRegressor.__getstate__` strips the binned
    training matrix (it dominates the object's footprint and is useless
    for plain prediction across a process boundary).  A crash-recovery
    checkpoint is the exception: a restored serving shard must be able
    to *continue incremental boosting* exactly where the dead one
    stopped, so the serving layer pickles its model snapshots inside
    this context.
    """
    global _KEEP_TRAINING_STATE
    _KEEP_TRAINING_STATE += 1
    try:
        yield
    finally:
        _KEEP_TRAINING_STATE -= 1

#: node cells (rows × trees) one chunk of the packed walk holds at most;
#: bounds the walk's working set on large batch predictions
_WALK_CELLS = 1 << 18


class _PackedEnsemble:
    """Every tree's flat node arrays concatenated for one vectorized walk.

    Leaves are self-loops (``left == right == self``, ``feature == 0``),
    so a row that reaches its leaf before the last step stays on it.
    Immutable: :meth:`extended` returns a new pack, so a reader never
    sees a half-appended one.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "roots")

    def __init__(self, feature, threshold, left, right, value, roots) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots

    @classmethod
    def empty(cls) -> "_PackedEnsemble":
        e = np.empty(0, np.intp)
        return cls(e, np.empty(0, np.int32), e, e, np.empty(0), e)

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    def extended(self, trees: list[RegressionTree]) -> "_PackedEnsemble":
        """A pack holding this one's trees followed by ``trees``."""
        feature, threshold, left, right, value, roots = (
            [self.feature], [self.threshold], [self.left], [self.right],
            [self.value], [self.roots],
        )
        offset = self.value.size
        for tree in trees:
            t = tree._tree
            leaf = t.is_leaf
            ids = np.arange(offset, offset + leaf.size)
            feature.append(np.where(leaf, 0, t.feature))
            threshold.append(t.threshold_bin)
            left.append(np.where(leaf, ids, t.left + offset))
            right.append(np.where(leaf, ids, t.right + offset))
            value.append(t.value)
            roots.append(np.array([offset], np.intp))
            offset += leaf.size
        return _PackedEnsemble(*(
            np.concatenate(parts)
            for parts in (feature, threshold, left, right, value, roots)
        ))

    def walk(self, Xb: np.ndarray, n_trees: int, base: float, lr: float,
             steps: int) -> np.ndarray:
        """``base + Σ lr · leaf`` over the first ``n_trees`` trees, summed
        tree by tree in order (bit-identical to the per-tree loop)."""
        roots = self.roots[:n_trees]
        k = roots.size
        n, m = Xb.shape
        out = np.empty(n)
        chunk = max(1, _WALK_CELLS // max(1, k))
        for lo in range(0, n, chunk):
            xflat = Xb[lo:lo + chunk].ravel()
            r = min(chunk, n - lo)
            row_base = (np.arange(r) * m)[:, None]
            node = np.repeat(roots[None, :], r, axis=0)
            for _ in range(steps):
                go_left = xflat[row_base + self.feature[node]] <= self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
            terms = np.empty((r, k + 1))
            terms[:, 0] = base
            np.multiply(self.value[node], lr, out=terms[:, 1:])
            out[lo:lo + r] = np.cumsum(terms, axis=1)[:, -1]
        return out


@dataclass(frozen=True)
class GBDTParams:
    """Boosting hyper-parameters."""

    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: int = 20
    subsample: float = 1.0
    max_bins: int = 256
    early_stopping_rounds: int | None = None
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


class GBDTRegressor:
    """Boosted regression ensemble.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(500, 3))
    >>> y = X[:, 0] ** 2 + X[:, 1]
    >>> model = GBDTRegressor(GBDTParams(n_estimators=50)).fit(X, y)
    >>> float(np.mean((model.predict(X) - y) ** 2)) < 0.2
    True
    """

    def __init__(self, params: GBDTParams | None = None) -> None:
        self.params = params or GBDTParams()
        self.binner_: Binner | None = None
        self.base_score_: float = 0.0
        self.trees_: list[RegressionTree] = []
        self.train_scores_: list[float] = []
        self.valid_scores_: list[float] = []
        self.best_iteration_: int | None = None
        # Training state kept for fit_more (continued boosting): the
        # binned training matrix, targets, current ensemble predictions
        # on those rows, and the subsampling RNG.
        self._Xb_train: np.ndarray | None = None
        self._y_train: np.ndarray | None = None
        self._pred_train: np.ndarray | None = None
        self._rng: np.random.Generator | None = None
        # Histogram keys over the frozen binned matrix: built once per fit,
        # reused by every boosting stage, never pickled.
        self._hist_cache: HistogramCache | None = None
        # Packed ensemble for prediction: derived from trees_, built
        # lazily, never pickled (see _walk).
        self._pack: _PackedEnsemble | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GBDTRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X/y shape mismatch")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        p = self.params
        rng = np.random.default_rng(p.random_state)

        self.binner_ = Binner(max_bins=p.max_bins)
        Xb = self.binner_.fit_transform(X)
        self.base_score_ = float(y.mean())
        pred = np.full(y.shape[0], self.base_score_)

        Xb_val = yv = pred_val = None
        if eval_set is not None:
            Xv, yv = eval_set
            Xb_val = self.binner_.transform(np.asarray(Xv, dtype=float))
            yv = np.asarray(yv, dtype=float)
            pred_val = np.full(yv.shape[0], self.base_score_)

        tree_params = TreeParams(
            max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf
        )
        self.trees_ = []
        self._pack = None
        self.train_scores_ = []
        self.valid_scores_ = []
        best_val = np.inf
        best_iter = 0
        self._hist_cache = HistogramCache(Xb, self.binner_.widths)

        for it in range(p.n_estimators):
            tree = self._boost_round(Xb, y, pred, rng, tree_params)

            if pred_val is not None:
                pred_val += p.learning_rate * tree.predict_binned(Xb_val)
                val_mse = float(np.mean((yv - pred_val) ** 2))
                self.valid_scores_.append(val_mse)
                if val_mse < best_val - 1e-12:
                    best_val = val_mse
                    best_iter = it
                elif (
                    p.early_stopping_rounds is not None
                    and it - best_iter >= p.early_stopping_rounds
                ):
                    break
        self.best_iteration_ = (
            best_iter if (eval_set is not None and self.valid_scores_) else None
        )
        self._Xb_train = Xb
        self._y_train = y
        self._pred_train = pred
        self._rng = rng
        return self

    def _boost_round(
        self,
        Xb: np.ndarray,
        y: np.ndarray,
        pred: np.ndarray,
        rng: np.random.Generator,
        tree_params: TreeParams,
    ) -> RegressionTree:
        """One boosting stage, shared by :meth:`fit` and :meth:`fit_more`:
        fit a tree to the residuals (optionally row-subsampled), advance
        ``pred`` in place, record the tree and its training MSE.

        Without subsampling every row was routed to its leaf by the fit,
        so ``value[leaf]`` is exactly what ``predict_binned(Xb)`` would
        return; a subsampled fit saw only some rows, so the new tree is
        walked over all of them."""
        p = self.params
        n = y.shape[0]
        residual = y - pred
        idx = None
        if p.subsample < 1.0:
            k = max(1, int(round(p.subsample * n)))
            idx = rng.choice(n, size=k, replace=False)
        tree = RegressionTree(tree_params)
        leaf = tree.grow(Xb, residual, sample_indices=idx, cache=self._hist_cache)
        step = tree._tree.value[leaf] if idx is None else tree.predict_binned(Xb)
        pred += p.learning_rate * step
        self.trees_.append(tree)
        self.train_scores_.append(float(np.mean((y - pred) ** 2)))
        return tree

    def __getstate__(self) -> dict:
        """Drop the fit_more continuation buffers when pickling.

        The binned training matrix / targets / running predictions exist
        only so an *in-process* model can continue boosting cheaply; they
        are the bulk of the object's footprint and are never useful
        across a process boundary (orchestrator precursor shipping,
        artifact payloads).  An unpickled model predicts normally but
        refuses ``fit_more`` until re-fitted.  Inside a
        :func:`keep_training_state` context (serving checkpoints) the
        buffers are kept, so a restored model continues boosting.
        """
        state = self.__dict__.copy()
        # Derived state, rebuilt on demand: the pack from trees_, the
        # histogram cache from _Xb_train and the binner.  Pickles
        # (checkpoints, artifacts) are the same bytes whether or not
        # predict ran, and checkpoints do not carry the cache.
        state.pop("_pack", None)
        state["_hist_cache"] = None
        if not _KEEP_TRAINING_STATE:
            state["_Xb_train"] = None
            state["_y_train"] = None
            state["_pred_train"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        state.pop("mode", None)  # older pickles still name a fit mode
        self.__dict__.update(state)
        self._pack = None
        # An older pickle's cache may have another key layout; fit_more
        # rebuilds it from _Xb_train.
        self._hist_cache = None

    # ------------------------------------------------------------------
    def fit_more(
        self,
        X_new: np.ndarray,
        y_new: np.ndarray,
        n_more: int,
    ) -> "GBDTRegressor":
        """Continue boosting: append rows, then fit ``n_more`` new stages.

        The new rows are binned with the *frozen* :class:`Binner` from the
        initial fit, routed through the existing ensemble once to seed
        their predictions, and the boosting recursion resumes on the full
        grown matrix — so an incremental stage costs the same as a stage
        of the original fit, and no feature re-binning of old rows ever
        happens.  Used by the rolling-origin evaluation engine to advance
        the GBDT comparator by one fold in O(n_more · n_rows) instead of
        re-running the whole boosting schedule.

        Not available after an early-stopped fit (the truncated ensemble
        would disagree with the cached training predictions).
        """
        if self.binner_ is None or self._Xb_train is None:
            raise RuntimeError("model not fitted; call fit() before fit_more()")
        if self.best_iteration_ is not None:
            raise RuntimeError("cannot continue an early-stopped fit")
        if n_more < 0:
            raise ValueError("n_more must be >= 0")
        p = self.params
        X_new = np.asarray(X_new, dtype=float)
        y_new = np.asarray(y_new, dtype=float)
        if X_new.ndim == 1:
            X_new = X_new.reshape(1, -1)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("X/y shape mismatch")
        if X_new.shape[0]:
            Xb_new = self.binner_.transform(X_new)
            pred_new = self._walk(Xb_new, len(self.trees_))
            self._Xb_train = np.vstack([self._Xb_train, Xb_new])
            if self._hist_cache is not None:
                self._hist_cache.append(Xb_new)
            self._y_train = np.concatenate([self._y_train, y_new])
            self._pred_train = np.concatenate([self._pred_train, pred_new])
        if self._hist_cache is None:  # unpickled: rebuild the derived keys
            self._hist_cache = HistogramCache(self._Xb_train, self.binner_.widths)

        Xb, y, pred = self._Xb_train, self._y_train, self._pred_train
        tree_params = TreeParams(
            max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf
        )
        for _ in range(n_more):
            self._boost_round(Xb, y, pred, self._rng, tree_params)
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
        """Predict; optionally truncate the ensemble to ``n_trees`` stages.

        When early stopping selected a best iteration, prediction uses the
        ensemble up to that iteration by default.
        """
        if self.binner_ is None:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        Xb = self.binner_.transform(X)
        if n_trees is None:
            n_trees = (
                self.best_iteration_ + 1
                if self.best_iteration_ is not None
                else len(self.trees_)
            )
        return self._walk(Xb, n_trees)

    def _walk(self, Xb: np.ndarray, n_trees: int) -> np.ndarray:
        """Ensemble prediction over the first ``n_trees`` stages (slice
        semantics, like ``trees_[:n_trees]``) of a binned matrix."""
        pack = self._pack
        if pack is None or pack.n_trees > len(self.trees_):
            pack = _PackedEnsemble.empty()
        if pack.n_trees < len(self.trees_):
            pack = pack.extended(self.trees_[pack.n_trees:])
        self._pack = pack
        return pack.walk(
            Xb, n_trees, self.base_score_, self.params.learning_rate,
            self.params.max_depth,
        )

    def staged_mse(self) -> list[float]:
        """Training MSE after each boosting stage (monotone check hook)."""
        return list(self.train_scores_)

    def feature_importances(self) -> np.ndarray:
        """Gain-based importances, normalized to sum to 1.

        When early stopping selected a best iteration, only the trees
        :meth:`predict` actually uses (up to and including that
        iteration) contribute — gains from stages past the truncation
        point would describe an ensemble that never predicts.
        """
        if not self.trees_:
            raise RuntimeError("model not fitted")
        n_trees = (
            self.best_iteration_ + 1
            if self.best_iteration_ is not None
            else len(self.trees_)
        )
        total = np.zeros(self.trees_[0].n_features_)
        for tree in self.trees_[:n_trees]:
            total += tree.feature_gains()
        s = total.sum()
        return total / s if s > 0 else total

"""Tests for the GBDT regressor."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gbdt as oracle
from repro.ml import GBDTParams, GBDTRegressor
from repro.ml.gbdt import keep_training_state


@pytest.fixture(scope="module")
def friedman():
    """Nonlinear regression problem (Friedman #1 style)."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(1200, 5))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(0, 0.5, 1200)
    )
    return X, y


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GBDTParams(n_estimators=0)
        with pytest.raises(ValueError):
            GBDTParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GBDTParams(subsample=1.5)


class TestFit:
    def test_training_loss_decreases(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=40, max_depth=4)).fit(X, y)
        losses = model.staged_mse()
        assert losses[-1] < losses[0] * 0.2
        # monotone non-increasing (squared loss + full data per stage)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_beats_mean_baseline(self, friedman):
        X, y = friedman
        train, test = X[:800], X[800:]
        yt, yv = y[:800], y[800:]
        model = GBDTRegressor(GBDTParams(n_estimators=120, max_depth=4)).fit(train, yt)
        pred = model.predict(test)
        mse_model = np.mean((pred - yv) ** 2)
        mse_mean = np.mean((yt.mean() - yv) ** 2)
        assert mse_model < 0.15 * mse_mean

    def test_subsample_still_learns(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=60, subsample=0.5, random_state=1)
        ).fit(X, y)
        pred = model.predict(X)
        assert np.mean((pred - y) ** 2) < 0.3 * np.var(y)

    def test_deterministic_given_seed(self, friedman):
        X, y = friedman
        p = GBDTParams(n_estimators=10, subsample=0.7, random_state=42)
        m1 = GBDTRegressor(p).fit(X, y)
        m2 = GBDTRegressor(p).fit(X, y)
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            GBDTRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GBDTRegressor().fit(np.zeros((3, 2)), np.zeros(4))


class TestEarlyStopping:
    def test_early_stop_halts(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=500, early_stopping_rounds=5, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        assert len(model.trees_) < 500
        assert model.best_iteration_ is not None

    def test_predict_uses_best_iteration(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=200, early_stopping_rounds=10, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        best = model.best_iteration_
        full = model.predict(X[600:], n_trees=len(model.trees_))
        best_pred = model.predict(X[600:])
        trunc = model.predict(X[600:], n_trees=best + 1)
        np.testing.assert_array_equal(best_pred, trunc)
        # best-iteration predictions shouldn't be much worse than full
        yv = y[600:]
        assert np.mean((best_pred - yv) ** 2) <= np.mean((full - yv) ** 2) + 1e-6


class TestPredict:
    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().predict(np.zeros((1, 2)))

    def test_predict_1d_input(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=5)).fit(X, y)
        out = model.predict(X[0])
        assert out.shape == (1,)

    def test_feature_importances(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=30, max_depth=4)).fit(X, y)
        imp = model.feature_importances()
        assert imp.shape == (5,)
        assert imp.sum() == pytest.approx(1.0)
        # features 0,1,3 carry the most signal in Friedman #1
        assert imp[:2].sum() + imp[3] > imp[4]

    def test_importances_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().feature_importances()

    def test_importances_respect_early_stopping_truncation(self, friedman):
        """Regression: importances summed gains over *all* trees even when
        early stopping truncated prediction to ``best_iteration_`` — they
        must describe the ensemble ``predict`` actually uses."""
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=500, early_stopping_rounds=5, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        best = model.best_iteration_
        assert best is not None and best + 1 < len(model.trees_)
        imp = model.feature_importances()
        used = np.zeros(5)
        for tree in model.trees_[: best + 1]:
            used += tree.feature_gains()
        np.testing.assert_array_equal(imp, used / used.sum())
        over = np.zeros(5)
        for tree in model.trees_:
            over += tree.feature_gains()
        assert not np.array_equal(imp, over / over.sum())


class TestModes:
    """The package's one boosting loop against the reference loop
    (``tests/oracles/gbdt.py``)."""

    @pytest.mark.parametrize(
        "params",
        [
            GBDTParams(n_estimators=15, max_depth=4),
            GBDTParams(n_estimators=20, max_depth=6, subsample=0.6, random_state=3),
        ],
        ids=["full-rows", "subsampled"],
    )
    def test_fast_is_byte_identical_to_reference(self, friedman, params):
        X, y = friedman
        fast = GBDTRegressor(params).fit(X, y)
        ref = oracle.fit(params, X, y)
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
        assert fast.staged_mse() == ref.staged_mse()
        np.testing.assert_array_equal(
            fast.feature_importances(), ref.feature_importances()
        )

    def test_early_stopping_parity(self, friedman):
        X, y = friedman
        p = GBDTParams(n_estimators=100, early_stopping_rounds=5, max_depth=3)
        fast = GBDTRegressor(p).fit(
            X[:600], y[:600], eval_set=(X[600:], y[600:])
        )
        ref = oracle.fit(p, X[:600], y[:600], eval_set=(X[600:], y[600:]))
        assert fast.best_iteration_ == ref.best_iteration_
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))


def _noisy(rng, n, m, nan_frac):
    X = rng.normal(size=(n, m))
    X[rng.random((n, m)) < nan_frac] = np.nan
    return X


class TestPackedWalkParity:
    """The packed ensemble walk is byte-identical to the per-tree loop
    (``tests/oracles/gbdt.py``) on every shape ``predict`` accepts."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 8),
        n_estimators=st.integers(1, 25),
        subsample=st.sampled_from([1.0, 0.6]),
        nan_frac=st.sampled_from([0.0, 0.15]),
        early_stop=st.booleans(),
        growth=st.lists(st.integers(0, 4), max_size=3),
    )
    def test_matches_per_tree_oracle(
        self, seed, depth, n_estimators, subsample, nan_frac, early_stop, growth
    ):
        rng = np.random.default_rng(seed)
        n, m = 160, 3
        X = _noisy(rng, n, m, nan_frac)
        y = 2.0 * np.nan_to_num(X[:, 0]) + np.sin(np.nan_to_num(X[:, 1]))
        y += rng.normal(0, 0.1, n)
        params = GBDTParams(
            n_estimators=n_estimators, max_depth=depth, min_samples_leaf=5,
            subsample=subsample, random_state=seed,
            early_stopping_rounds=2 if early_stop else None,
        )
        model = GBDTRegressor(params)
        if early_stop:
            model.fit(X[:100], y[:100], eval_set=(X[100:], y[100:]))
        else:
            model.fit(X, y)
        Xt = _noisy(rng, 23, m, nan_frac)

        def check():
            cases = [(Xt, None), (Xt[:0], None), (Xt[0], None), (Xt, 1)]
            if model.best_iteration_ is not None:
                cases += [(Xt, model.best_iteration_ + 1),
                          (Xt, len(model.trees_))]
            for rows, n_trees in cases:
                got = model.predict(rows, n_trees=n_trees)
                want = oracle.predict(model, rows, n_trees=n_trees)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

        check()
        if early_stop:
            return  # fit_more refuses an early-stopped fit
        for k in growth:
            # New rows are seeded through the walk, then new trees are
            # appended: the next predict must see every one of them.
            model.fit_more(_noisy(rng, 7, m, nan_frac), rng.normal(size=7), k)
            check()

    def test_chunked_rows_match_oracle(self, friedman, monkeypatch):
        """A batch larger than one walk chunk stitches chunks in row
        order."""
        import repro.ml.gbdt as gbdt

        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=30)).fit(X, y)
        monkeypatch.setattr(gbdt, "_WALK_CELLS", 30 * 7)
        assert model.predict(X).tobytes() == oracle.predict(model, X).tobytes()


#: the attributes a model pickles, in order (the pack is never pickled)
_PICKLED_LAYOUT = [
    "params", "binner_", "base_score_", "trees_", "train_scores_",
    "valid_scores_", "best_iteration_", "_Xb_train", "_y_train",
    "_pred_train", "_rng", "_hist_cache",
]


class _LegacyPickle:
    """Pickles as a model did before the pack existed: the class plus a
    state dict with no pack attribute."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return GBDTRegressor.__new__, (GBDTRegressor,), self.state


class TestPicklePack:
    @pytest.fixture
    def model(self, friedman):
        X, y = friedman
        return GBDTRegressor(GBDTParams(n_estimators=15, max_depth=4)).fit(X, y)

    @pytest.mark.parametrize("keep", [False, True], ids=["plain", "keep-state"])
    def test_predict_never_changes_pickle_bytes(self, friedman, model, keep):
        X, _ = friedman

        def dump():
            if keep:
                with keep_training_state():
                    return pickle.dumps(model)
            return pickle.dumps(model)

        before = dump()
        model.predict(X[:50])
        assert model._pack is not None
        assert dump() == before
        assert list(model.__getstate__()) == _PICKLED_LAYOUT

    def test_legacy_layout_unpickles_and_predicts(self, friedman, model):
        X, _ = friedman
        want = model.predict(X)
        state = model.__dict__.copy()
        del state["_pack"]
        state["mode"] = "fast"  # pickled while models still had fit modes
        restored = pickle.loads(pickle.dumps(_LegacyPickle(state)))
        assert isinstance(restored, GBDTRegressor)
        assert restored._pack is None
        assert not hasattr(restored, "mode")
        assert restored.predict(X).tobytes() == want.tobytes()


def _assert_same_fit(model, ref):
    """Every tree array, score and training prediction, byte for byte."""
    assert len(model.trees_) == len(ref.trees_)
    for a, b in zip(model.trees_, ref.trees_):
        assert pickle.dumps(a) == pickle.dumps(b)
    assert model.train_scores_ == ref.train_scores_
    assert model.valid_scores_ == ref.valid_scores_
    assert model.best_iteration_ == ref.best_iteration_
    if ref._pred_train is not None:
        assert model._pred_train.tobytes() == ref._pred_train.tobytes()


class TestReferenceLoopParity:
    """The one-pass grower, the ragged cache and the leaf-reuse update
    against the reference loop (``tests/oracles/gbdt.py``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(30, 220),
        depth=st.integers(1, 7),
        n_estimators=st.integers(1, 12),
        min_samples_leaf=st.integers(1, 25),
        max_bins=st.sampled_from([2, 4, 16, 256]),
        subsample=st.sampled_from([1.0, 0.6]),
        growth=st.lists(st.integers(0, 12), max_size=3),
    )
    def test_matches_reference_loop(
        self, seed, n, depth, n_estimators, min_samples_leaf, max_bins,
        subsample, growth,
    ):
        rng = np.random.default_rng(seed)

        def rows(k):
            X = np.column_stack([
                np.full(k, 1.0),                            # constant
                np.full(k, np.nan),                         # all-NaN
                np.round(rng.normal(size=k)),               # coarse
                rng.normal(size=k),                         # fine
                np.where(rng.random(k) < 0.2, np.nan, rng.normal(size=k)),
            ])
            y = 2.0 * X[:, 2] + np.sin(X[:, 3]) + rng.normal(0, 0.1, k)
            return X, y

        X, y = rows(n)
        params = GBDTParams(
            n_estimators=n_estimators, max_depth=depth,
            min_samples_leaf=min_samples_leaf, max_bins=max_bins,
            subsample=subsample, random_state=seed,
        )
        model = GBDTRegressor(params).fit(X, y)
        ref = oracle.fit(params, X, y)
        _assert_same_fit(model, ref)
        for k in growth:
            X_new, y_new = rows(k)
            model.fit_more(X_new, y_new, 3)
            oracle.fit_more(ref, X_new, y_new, 3)
            _assert_same_fit(model, ref)

    def test_subsampled_stage_walks_the_tree(self, friedman, monkeypatch):
        """Only a subsampled stage walks its tree over the training rows;
        a full-row stage reuses the leaves its fit routed every row to."""
        from repro.ml.tree import RegressionTree

        X, y = friedman
        walks = []
        walk = RegressionTree.predict_binned

        def counting(self, Xb):
            walks.append(Xb.shape[0])
            return walk(self, Xb)

        monkeypatch.setattr(RegressionTree, "predict_binned", counting)
        full = GBDTParams(n_estimators=6, max_depth=4)
        _assert_same_fit(GBDTRegressor(full).fit(X, y), oracle.fit(full, X, y))
        assert walks.count(X.shape[0]) == 6  # the oracle's walks only
        walks.clear()
        sub = GBDTParams(n_estimators=6, max_depth=4, subsample=0.5)
        _assert_same_fit(GBDTRegressor(sub).fit(X, y), oracle.fit(sub, X, y))
        assert walks.count(X.shape[0]) == 12


class TestCheckpointCache:
    """Checkpoints leave the histogram cache out; ``fit_more`` rebuilds
    it, so a restored model keeps boosting byte-identically."""

    @pytest.fixture
    def model(self, friedman):
        X, y = friedman
        return GBDTRegressor(GBDTParams(n_estimators=10, max_depth=5)).fit(
            X[:900], y[:900]
        )

    def test_cache_never_pickled(self, model):
        assert model._hist_cache is not None
        with keep_training_state():
            state = pickle.loads(pickle.dumps(model)).__dict__
            assert model.__getstate__()["_hist_cache"] is None
        assert state["_hist_cache"] is None
        assert state["_Xb_train"] is not None

    def test_checkpoint_is_smaller_without_cache(self, model):
        with keep_training_state():
            lean = len(pickle.dumps(model))
            state = model.__getstate__()
        state["_hist_cache"] = model._hist_cache
        fat = len(pickle.dumps(_LegacyPickle(state)))
        assert fat - lean >= model._hist_cache.base.nbytes

    def test_restored_fit_more_matches_uninterrupted(self, friedman, model):
        X, y = friedman
        with keep_training_state():
            restored = pickle.loads(pickle.dumps(model))
        assert restored._hist_cache is None
        for X_new, y_new, k in ((X[900:1000], y[900:1000], 4),
                                (X[:0], y[:0], 3),
                                (X[1000:], y[1000:], 5)):
            model.fit_more(X_new, y_new, k)
            restored.fit_more(X_new, y_new, k)
            _assert_same_fit(restored, model)
        assert restored._hist_cache.base.tobytes() == model._hist_cache.base.tobytes()

"""Per-feature histogram tree growth: the oracle for the one-pass grower.

This is the grower :meth:`repro.ml.tree.RegressionTree.fit` ran as its
``mode="reference"`` before split search became a single pass over
ragged per-feature histograms: every tree level loops over the features
and builds two ``np.bincount`` histograms (counts and residual sums) per
feature, takes cumulative sums along the bin axis and keeps a feature's
best bin only when its gain is strictly greater than the best so far
(lowest feature, then lowest bin, wins a tie).  Leaf values are the mean
target of the rows that land in each leaf.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree, TreeParams


def fit(
    params: TreeParams | None,
    X_binned: np.ndarray,
    y: np.ndarray,
    sample_indices: np.ndarray | None = None,
    n_bins: int | None = None,
) -> RegressionTree:
    """A :class:`RegressionTree` grown by the per-feature reference loop."""
    tree = RegressionTree(params)
    X_binned = np.asarray(X_binned)
    y = np.asarray(y, dtype=float)
    if X_binned.ndim != 2 or X_binned.shape[0] != y.shape[0]:
        raise ValueError("X_binned/y shape mismatch")
    if sample_indices is not None:
        X_binned = X_binned[sample_indices]
        y = y[sample_indices]
    n, m = X_binned.shape
    tree.n_features_ = m
    if n_bins is None:
        n_bins = int(X_binned.max()) + 1 if n else 1
    p = tree.params

    # Growing arrays (python lists; appended per created node).
    feature: list[int] = [-1]
    thresh: list[int] = [-1]
    left: list[int] = [-1]
    right: list[int] = [-1]
    value: list[float] = [float(y.mean()) if n else 0.0]
    is_leaf: list[bool] = [True]

    if n == 0 or n_bins < 2:
        # No data, or every feature landed in a single bin: stump.
        tree._finalize(feature, thresh, left, right, value, is_leaf)
        return tree

    node_of = np.zeros(n, dtype=np.int64)
    frontier = [0]  # node ids eligible for splitting at current depth

    for _depth in range(p.max_depth):
        if not frontier:
            break
        frontier_arr = np.asarray(frontier)
        # Map node id -> dense slot for this level.
        slot_of = np.full(len(value), -1, dtype=np.int64)
        slot_of[frontier_arr] = np.arange(len(frontier_arr))
        active = slot_of[node_of] >= 0
        act_slots = slot_of[node_of[active]]
        act_y = y[active]
        k = len(frontier_arr)

        tot_cnt = np.bincount(act_slots, minlength=k).astype(float)
        tot_sum = np.bincount(act_slots, weights=act_y, minlength=k)

        best_gain, best_feat, best_bin = _best_splits_reference(
            p, X_binned, active, act_slots, act_y, k, m, n_bins,
            tot_cnt, tot_sum,
        )

        # Create children for nodes with a worthwhile split.
        split_mask = best_gain > p.min_gain
        next_frontier: list[int] = []
        child_left = np.full(k, -1, dtype=np.int64)
        for slot in np.flatnonzero(split_mask):
            node = int(frontier_arr[slot])
            lid, rid = len(value), len(value) + 1
            feature[node] = int(best_feat[slot])
            thresh[node] = int(best_bin[slot])
            left[node] = lid
            right[node] = rid
            is_leaf[node] = False
            tree.split_gains_[node] = float(best_gain[slot])
            for _ in range(2):
                feature.append(-1)
                thresh.append(-1)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
                is_leaf.append(True)
            child_left[slot] = lid
            next_frontier.extend((lid, rid))

        if not next_frontier:
            break

        # Route samples of split nodes to their children (vectorized).
        slots = slot_of[node_of]
        moving = (slots >= 0) & split_mask[np.clip(slots, 0, k - 1)]
        mv_slots = slots[moving]
        fvals = X_binned[moving, best_feat[mv_slots]]
        go_left = fvals <= best_bin[mv_slots]
        node_of[moving] = np.where(
            go_left, child_left[mv_slots], child_left[mv_slots] + 1
        )
        frontier = next_frontier

    # Leaf values = mean target of samples landing there.
    leaf_cnt = np.bincount(node_of, minlength=len(value)).astype(float)
    leaf_sum = np.bincount(node_of, weights=y, minlength=len(value))
    for nid in range(len(value)):
        if is_leaf[nid] and leaf_cnt[nid] > 0:
            value[nid] = leaf_sum[nid] / leaf_cnt[nid]
    tree._finalize(feature, thresh, left, right, value, is_leaf)
    return tree


def _best_splits_reference(
    p, X_binned, active, act_slots, act_y, k, m, n_bins, tot_cnt, tot_sum
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature histogram loop — the byte-parity oracle."""
    best_gain = np.full(k, -np.inf)
    best_feat = np.full(k, -1, dtype=np.int64)
    best_bin = np.full(k, -1, dtype=np.int64)

    for f in range(m):
        bins_f = X_binned[active, f].astype(np.int64)
        key = act_slots * n_bins + bins_f
        cnt = np.bincount(key, minlength=k * n_bins).reshape(k, n_bins)
        sm = np.bincount(
            key, weights=act_y, minlength=k * n_bins
        ).reshape(k, n_bins)
        lc = np.cumsum(cnt, axis=1)[:, :-1]  # left counts per threshold
        ls = np.cumsum(sm, axis=1)[:, :-1]
        rc = tot_cnt[:, None] - lc
        rs = tot_sum[:, None] - ls
        valid = (lc >= p.min_samples_leaf) & (rc >= p.min_samples_leaf)
        with np.errstate(invalid="ignore", divide="ignore"):
            gain = (
                ls * ls / np.maximum(lc, 1)
                + rs * rs / np.maximum(rc, 1)
                - (tot_sum * tot_sum / np.maximum(tot_cnt, 1))[:, None]
            )
        gain[~valid] = -np.inf
        f_best_bin = np.argmax(gain, axis=1)
        f_best_gain = gain[np.arange(k), f_best_bin]
        better = f_best_gain > best_gain
        best_gain[better] = f_best_gain[better]
        best_feat[better] = f
        best_bin[better] = f_best_bin[better]
    return best_gain, best_feat, best_bin

"""Histogram-based regression tree (the GBDT base learner).

This is the LightGBM-style design the paper's GBDT [42] relies on:

1. Features are pre-binned into at most ``max_bins`` quantile bins
   (:class:`Binner`), so split search scans bins, not raw values.
2. Trees grow level-by-level; at each level the candidate splits for *all*
   frontier nodes are evaluated from per-(node, feature, bin) histograms
   of sample counts and gradient sums.
3. For squared loss the optimal leaf value is the mean residual, and the
   split gain is the variance-reduction form
   ``S_l²/n_l + S_r²/n_r − S²/n``.

There is one grower.  Each tree level makes one pass over a
:class:`HistogramCache`, a key matrix built once per GBDT fit:

* **Ragged layout.**  Feature ``f`` owns ``width_f`` histogram cells (its
  own bin count, missing bin included) plus two guard cells, instead of
  every feature being padded to the widest one.  A row's key is
  ``slot · n_cells + start_f + bin``, where ``slot`` is its node's place
  in the level's frontier; rows of nodes outside the frontier share one
  trailing slot whose cells are thrown away, so a level gathers no rows.
  Two ``np.bincount`` calls build every count and residual-sum histogram
  of the level, each cell summing its rows in increasing row order.
* **Prefix sums that restart per feature.**  One ``np.cumsum`` runs along
  each node's whole row of cells.  The guard cells after each feature
  bring the running sum back to exactly zero before the next feature
  starts: counts get ``−n_node`` (integers, exact), residual sums get
  ``+G`` then ``−G`` for a power of two ``G`` so large that any running
  sum rounds away into it and ``G − G`` is exactly ``0``.  So every
  feature's prefix sums are the same floats a per-feature cumulative sum
  gives.  The last bin and the guard cells can never be valid thresholds
  (one side would be empty), so they score ``-inf``.
* **One flat arg-max** per node picks the best cell; its first-occurrence
  rule keeps the lowest-feature-then-lowest-bin tie-break.
* **Counts from the split.**  A child's row count is the chosen split's
  left/right count, so frontier nodes with fewer than
  ``2·min_samples_leaf`` rows (which cannot split) are dropped without
  recounting rows.
* :meth:`RegressionTree.grow` returns the leaf each fitted row ends in,
  so the boosting loop advances its training predictions with
  ``value[leaf]`` instead of walking the new tree again.

The per-feature loop this grower replaced lives on as the test-side
byte-parity oracle in ``tests/oracles/tree.py``.

The tree is stored as flat arrays so prediction is a vectorized walk.
:meth:`RegressionTree.predict_binned` walks one tree; ensemble prediction
in :mod:`repro.ml.gbdt` concatenates every tree's arrays into one pack and
walks all trees at once, summing the leaves in tree order with a
sequential ``np.cumsum`` (not the pairwise ``np.sum``) so the result is
bit-identical to adding the trees one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Binner", "HistogramCache", "TreeParams", "RegressionTree"]

#: guard value that resets a running residual sum to exactly zero: any
#: finite sum below 2**946 in magnitude rounds away when added to it
_GUARD = 2.0 ** 1000


class Binner:
    """Quantile binning of a float feature matrix.

    Bin semantics: value ``x`` falls in bin ``searchsorted(edges, x,
    'left')``; a split "bin <= t" therefore means ``x <= edges[t]`` on raw
    values.  Edges are per-feature interior quantile boundaries (at most
    ``max_bins - 1`` of them, deduplicated).

    NaN handling: quantile edges are computed over the non-NaN values,
    and every feature reserves a dedicated *missing-value bin* at index
    ``edges.size + 1`` — one past the highest regular bin — that NaN
    values are routed to deterministically.  Because the missing bin is
    the top index, a split "bin <= t" over regular thresholds always
    sends missing values right, and the threshold ``t == edges.size``
    isolates missing from every real value; split search needs no
    special casing.  The bin is reserved whether or not the fit data
    contained NaNs, so transform-time missing values never alias a real
    quantile bin.
    """

    def __init__(self, max_bins: int = 256) -> None:
        if not 2 <= max_bins <= 65_535:
            raise ValueError("max_bins must be in [2, 65535]")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "Binner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        qs = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        self.edges_ = []
        for j in range(X.shape[1]):
            col = X[:, j]
            col = col[~np.isnan(col)]
            if col.size == 0:
                self.edges_.append(np.empty(0))
                continue
            edges = np.unique(np.quantile(col, qs))
            self.edges_.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.edges_):
            col = X[:, j]
            if edges.size == 0:
                out[:, j] = 0
            else:
                out[:, j] = np.searchsorted(edges, col, side="left")
            nan = np.isnan(col)
            if nan.any():
                out[nan, j] = edges.size + 1
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def missing_bin(self, feature: int) -> int:
        """The reserved missing-value bin index of one feature."""
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return self.edges_[feature].size + 1

    @property
    def widths(self) -> np.ndarray:
        """Per-feature bin count (``edges.size + 2``), missing bin included."""
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return np.array([e.size + 2 for e in self.edges_], dtype=np.int64)

    @property
    def n_bins(self) -> int:
        """Upper bound of bin index + 1 across features.

        Includes each feature's reserved missing-value bin, so histogram
        widths sized from this cover NaN rows too.
        """
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return max((e.size + 2 for e in self.edges_), default=1)


class HistogramCache:
    """Ragged histogram keys of a frozen binned matrix, shared across trees.

    Feature ``f`` owns ``widths[f]`` cells for its bins followed by two
    guard cells, starting at cell ``starts[f]``; ``base[i, f] = starts[f]
    + X_binned[i, f]`` is row ``i``'s cell for feature ``f``.  A GBDT fit
    builds the cache once from the binned training matrix (``widths``
    from :attr:`Binner.widths`) and hands it to every boosting stage, so
    the key arithmetic and the int64 upcast of the whole matrix happen
    once per fit.  ``append`` extends it in step with ``fit_more``'s row
    growth.  ``widths`` may be one int for every feature.
    """

    def __init__(self, X_binned: np.ndarray, widths) -> None:
        X_binned = np.asarray(X_binned)
        if X_binned.ndim != 2:
            raise ValueError("X_binned must be 2-D")
        m = X_binned.shape[1]
        widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), (m,))
        if m and widths.min() < 1:
            raise ValueError("widths must be >= 1")
        span = widths + 2
        self.starts = np.cumsum(span) - span
        self.n_cells = int(span.sum())
        self.n_bins = int(widths.max()) if m else 1
        #: the first of each feature's two guard cells
        self.guard = self.starts + widths
        #: feature and bin of every cell, to decode the arg-max
        self.cell_feature = np.repeat(np.arange(m), span)
        self.cell_bin = np.arange(self.n_cells) - np.repeat(self.starts, span)
        self.base = X_binned.astype(np.int64) + self.starts

    @property
    def n_rows(self) -> int:
        return self.base.shape[0]

    @property
    def n_features(self) -> int:
        return self.base.shape[1]

    def append(self, X_binned_new: np.ndarray) -> None:
        """Extend the cache with freshly binned rows (continued boosting)."""
        X_binned_new = np.asarray(X_binned_new)
        if X_binned_new.ndim != 2 or X_binned_new.shape[1] != self.n_features:
            raise ValueError("appended rows must match the cached feature count")
        self.base = np.vstack(
            [self.base, X_binned_new.astype(np.int64) + self.starts]
        )


@dataclass(frozen=True)
class TreeParams:
    """Growth hyper-parameters for a single regression tree."""

    max_depth: int = 6
    min_samples_leaf: int = 20
    min_gain: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class _FlatTree:
    """Array-of-structs tree storage."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold_bin: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    is_leaf: np.ndarray = field(default_factory=lambda: np.empty(0, bool))


class RegressionTree:
    """Least-squares regression tree over pre-binned features.

    ``fit`` consumes the *binned* integer matrix produced by
    :class:`Binner`; ``predict_binned`` likewise.  The owning GBDT handles
    raw-value binning so the edges are shared across all trees.
    """

    def __init__(self, params: TreeParams | None = None) -> None:
        self.params = params or TreeParams()
        self._tree = _FlatTree()
        self.n_features_: int | None = None
        self.split_gains_: dict[int, float] = {}

    # ------------------------------------------------------------------
    def fit(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
        n_bins: int | None = None,
        cache: HistogramCache | None = None,
    ) -> "RegressionTree":
        """Grow the tree (see :meth:`grow`)."""
        self.grow(X_binned, y, sample_indices, n_bins, cache)
        return self

    def grow(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
        n_bins: int | None = None,
        cache: HistogramCache | None = None,
    ) -> np.ndarray:
        """Grow the tree; return the leaf id of every fitted row.

        ``cache`` supplies the :class:`HistogramCache` over the *full*
        (pre-``sample_indices``) matrix, which the boosting loop reuses
        across stages.  Without one, a cache is built with ``n_bins``
        cells per feature (any upper bound on bin index + 1, e.g.
        ``Binner.n_bins``), or each feature's own ``max + 1``.  The
        layout changes only which cells are scanned, never the tree.
        """
        X_binned = np.asarray(X_binned)
        y = np.asarray(y, dtype=float)
        if X_binned.ndim != 2 or X_binned.shape[0] != y.shape[0]:
            raise ValueError("X_binned/y shape mismatch")
        if cache is None:
            if sample_indices is not None:
                X_binned, y = X_binned[sample_indices], y[sample_indices]
                sample_indices = None
            if n_bins is None:
                n_bins = X_binned.max(axis=0) + 1 if X_binned.size else 1
            cache = HistogramCache(X_binned, n_bins)
        elif cache.base.shape != X_binned.shape:
            raise ValueError("cache does not match X_binned's shape")
        elif n_bins is not None and n_bins != cache.n_bins:
            raise ValueError("cache was built with a different n_bins")
        base = cache.base
        if sample_indices is not None:
            base, y = base[sample_indices], y[sample_indices]
        n, m = base.shape
        self.n_features_ = m
        self.split_gains_ = {}
        p = self.params
        leaf_of = np.zeros(n, dtype=np.intp)

        if n == 0 or cache.n_bins < 2:
            # No data, or every feature landed in a single bin: stump.
            value = [float(y.mean()) if n else 0.0]
            self._finalize([-1], [-1], [-1], [-1], value, [True])
            return leaf_of

        cap = 2 ** (p.max_depth + 1) - 1
        feature = np.full(cap, -1, dtype=np.int32)
        thresh = np.full(cap, -1, dtype=np.int32)
        left = np.full(cap, -1, dtype=np.int32)
        right = np.full(cap, -1, dtype=np.int32)
        value = np.zeros(cap)
        value[0] = y.mean()
        count = np.zeros(cap, dtype=np.int64)
        count[0] = n
        cut_cell = np.zeros(cap, dtype=np.int64)  # a split node's chosen cell
        n_nodes = 1

        n_cells = cache.n_cells
        weights = np.repeat(y, m)
        base_flat = base.ravel()
        row_off = np.arange(n) * m
        key = np.empty_like(base)
        frontier = np.zeros(1, dtype=np.intp)

        for depth in range(p.max_depth):
            frontier = frontier[count[frontier] >= 2 * p.min_samples_leaf]
            k = frontier.size
            if not k:
                break
            slot_of = np.full(n_nodes, k, dtype=np.intp)
            slot_of[frontier] = np.arange(k)
            row_slot = slot_of[leaf_of]
            level_key = base  # at the root every row is in slot 0
            if depth:
                level_key = np.add(base, (row_slot * n_cells)[:, None], out=key)
            gain, cell, lc = self._best_splits(
                cache, level_key, weights, row_slot, y, count[frontier]
            )

            split = np.flatnonzero(gain > p.min_gain)
            if not split.size:
                break
            nodes = frontier[split]
            cut = cell[split]
            lid = n_nodes + 2 * np.arange(split.size)
            feature[nodes] = cache.cell_feature[cut]
            thresh[nodes] = cache.cell_bin[cut]
            cut_cell[nodes] = cut
            left[nodes] = lid
            right[nodes] = lid + 1
            count[lid] = lc[split]
            count[lid + 1] = count[nodes] - lc[split]
            self.split_gains_.update(zip(nodes.tolist(), gain[split].tolist()))
            frontier = np.arange(n_nodes, n_nodes + 2 * split.size)
            n_nodes += 2 * split.size

            # Rows only ever sit in leaves, so a row whose node now has a
            # left child was just split: it goes left iff its cell for the
            # split feature is at or below the chosen cell.
            child = left[leaf_of]
            moving = child >= 0
            child += base_flat[row_off + feature[leaf_of]] > cut_cell[leaf_of]
            np.copyto(leaf_of, child, where=moving)

        # Leaf values = mean target of samples landing there (every leaf
        # holds at least min_samples_leaf rows, or is the root of n > 0).
        is_leaf = left[:n_nodes] < 0
        leaf_sum = np.bincount(leaf_of, weights=y, minlength=n_nodes)
        value[:n_nodes][is_leaf] = leaf_sum[is_leaf] / count[:n_nodes][is_leaf]
        self._tree = _FlatTree(
            feature=feature[:n_nodes].copy(),
            threshold_bin=thresh[:n_nodes].copy(),
            left=left[:n_nodes].copy(),
            right=right[:n_nodes].copy(),
            value=value[:n_nodes].copy(),
            is_leaf=is_leaf,
        )
        return leaf_of

    def _best_splits(
        self, cache, key, weights, row_slot, y, node_cnt
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best split of every frontier node from one histogram pass.

        Returns per node the gain, the chosen cell and its left count.
        Expressions and evaluation order match the per-feature reference
        scan (``tests/oracles/tree.py``), so every valid cell's gain is
        the same float; its ``np.maximum(·, 1)`` guards on the counts are
        dropped because they only change cells that score ``-inf``.
        """
        msl = self.params.min_samples_leaf
        k = node_cnt.size
        n_cells = cache.n_cells
        key = key.ravel()
        size = (k + 1) * n_cells
        tot_cnt = node_cnt.astype(float)
        tot_sum = np.bincount(row_slot, weights=y, minlength=k + 1)[:k]
        lc = np.bincount(key, minlength=size)[: k * n_cells].reshape(k, n_cells)
        ls = np.bincount(key, weights=weights, minlength=size)[: k * n_cells]
        ls = ls.reshape(k, n_cells)
        lc[:, cache.guard + 1] = -node_cnt[:, None]
        ls[:, cache.guard] = _GUARD
        ls[:, cache.guard + 1] = -_GUARD
        np.cumsum(lc, axis=1, out=lc)
        np.cumsum(ls, axis=1, out=ls)
        # Invalid cells (either side under min_samples_leaf, which covers
        # every last bin and guard cell) may divide by zero or overflow:
        # they are overwritten with -inf below.
        with np.errstate(all="ignore"):
            gain = ls * ls
            gain /= lc
            rs = tot_sum[:, None] - ls
            rs *= rs
            rs /= tot_cnt[:, None] - lc
            gain += rs
            gain -= (tot_sum * tot_sum / np.maximum(tot_cnt, 1))[:, None]
        invalid = lc < msl
        invalid |= lc > (node_cnt - msl)[:, None]
        gain[invalid] = -np.inf
        best = np.argmax(gain, axis=1)
        rows = np.arange(k)
        return gain[rows, best], best, lc[rows, best]

    def _finalize(self, feature, thresh, left, right, value, is_leaf) -> None:
        self._tree = _FlatTree(
            feature=np.asarray(feature, np.int32),
            threshold_bin=np.asarray(thresh, np.int32),
            left=np.asarray(left, np.int32),
            right=np.asarray(right, np.int32),
            value=np.asarray(value, np.float64),
            is_leaf=np.asarray(is_leaf, bool),
        )

    # ------------------------------------------------------------------
    def predict_binned(self, X_binned: np.ndarray) -> np.ndarray:
        """Predict from pre-binned features (vectorized tree walk)."""
        t = self._tree
        if t.value.size == 0:
            raise RuntimeError("tree not fitted")
        X_binned = np.asarray(X_binned)
        node = np.zeros(X_binned.shape[0], dtype=np.int64)
        # Depth-bounded loop: every iteration advances all non-leaf rows.
        for _ in range(self.params.max_depth + 1):
            active = ~t.is_leaf[node]
            if not np.any(active):
                break
            cur = node[active]
            fvals = X_binned[active, t.feature[cur]]
            go_left = fvals <= t.threshold_bin[cur]
            node[active] = np.where(go_left, t.left[cur], t.right[cur])
        return t.value[node]

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self._tree.value.size)

    @property
    def n_leaves(self) -> int:
        return int(self._tree.is_leaf.sum())

    @property
    def depth(self) -> int:
        """Actual depth reached (0 = stump that never split)."""
        t = self._tree
        depth = np.zeros(t.value.size, dtype=int)
        for nid in range(t.value.size):
            if not t.is_leaf[nid]:
                depth[t.left[nid]] = depth[nid] + 1
                depth[t.right[nid]] = depth[nid] + 1
        return int(depth.max()) if depth.size else 0

    def feature_gains(self) -> np.ndarray:
        """Total split gain attributed to each feature."""
        if self.n_features_ is None:
            raise RuntimeError("tree not fitted")
        gains = np.zeros(self.n_features_)
        t = self._tree
        for nid, g in self.split_gains_.items():
            gains[t.feature[nid]] += g
        return gains

"""Shuffled-epoch LSTM fine-tune: the oracle for the fold-batched update.

:meth:`LSTMForecaster.update` here is the schedule
:meth:`repro.ml.lstm.LSTMForecaster.update` ran as its
``mode="reference"``: ``update_epochs`` shuffled minibatch epochs over
*every* window of the grown series, with the shuffling RNG carried
forward.  ``fit`` and ``forecast`` are the package's.  The package's
fold-batched fine-tune is a different algorithm, so the two agree only
within the rolling-origin tolerance band, not byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.ml import lstm


class LSTMForecaster(lstm.LSTMForecaster):
    """The package's LSTM with the reference fine-tune schedule."""

    def update(self, new_points: np.ndarray) -> "LSTMForecaster":
        if self._weights is None or self._history is None:
            raise RuntimeError("model not fitted; call fit() before update()")
        new_points = np.asarray(new_points, dtype=float)
        if new_points.ndim != 1:
            raise ValueError("new_points must be 1-D")
        if new_points.size == 0:
            return self
        self._history = np.concatenate([self._history, new_points])
        self._train(self.params.update_epochs)
        return self

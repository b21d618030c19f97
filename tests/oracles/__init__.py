"""Test-side correctness oracles.

Each module keeps the straightforward implementation a shipped fast
path replaced, so parity tests can compare the package's one code path
against it — byte for byte where the two are meant to agree exactly,
within a tolerance band where they are different algorithms:

* :mod:`oracles.sim` — the per-job object replay loop behind
  :class:`repro.sim.Simulator`'s array-backed core, with its cluster
  ledger (:mod:`oracles.cluster`) and consolidated placement
  (:mod:`oracles.placement`); byte parity.
* :mod:`oracles.drs` — a per-case loop over the stepwise
  :func:`repro.energy.run_drs`, the oracle for the batched DRS engine;
  byte parity.
* :mod:`oracles.tree` and :mod:`oracles.gbdt` — the per-feature
  histogram grower and the tree-by-tree boosting and prediction loops;
  byte parity.
* :mod:`oracles.lstm` — the shuffled-epoch LSTM fine-tune; tolerance
  band.
* :mod:`oracles.rolling` — the rolling-origin walk with a scratch
  re-fit at every origin; exact for the bit-exact incremental models,
  a tolerance band for the rest.

The Model Update Engine's scratch-refit oracle needs no module: a
service whose ``supports_incremental`` is False always gets full
refits (``QSSFService.refit_mode = "scratch"`` for QSSF).
"""

"""Calibrated synthetic Helios workload generator.

The real Helios traces (3.36 M Slurm job logs) are not available offline,
so this module synthesizes workloads that reproduce every distribution
the paper reports — the exhibits therefore match the paper's shapes and
directions, not its exact values:

* per-cluster shapes from Table 1 (via :mod:`repro.traces.cluster`);
* duration mixtures with second-scale debug jobs through multi-day
  training runs (Figs 1a, 5) — GPU-job durations ~10× CPU-job durations;
* GPU-demand distributions dominated by single-GPU jobs by *count* and by
  large jobs by *GPU time* (Fig 6), with power-of-two sizes;
* final-status mixes where completion falls with GPU count (Fig 7) and
  failed jobs die early while canceled jobs run long (Fig 1b);
* heavy-tailed per-user activity with a small CPU-user subset (Fig 8);
* diurnal/weekly submission rhythms with noon/dinner dips (Fig 2b) and
  stable multi-GPU vs fluctuating single-GPU monthly volumes (Fig 3);
* imbalanced VCs: per-VC load factor, job-size tilt, and duration scale
  (Fig 4), which is what makes queuing co-exist with idle capacity.

Everything is driven by one integer seed and is fully vectorized.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

from ..frame import Table
from ..stats.distributions import LogNormal, LogNormalMixture
from .cluster import ClusterSpec, helios_cluster_specs
from .schema import (
    CANCELED,
    COMPLETED,
    DAYS_PER_MONTH,
    FAILED,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
)
from .users import UserPopulation

__all__ = [
    "SynthParams",
    "ClusterWorkloadModel",
    "HeliosTraceGenerator",
    "params_signature",
    "sequence_within_group",
    "synthesize_node_events",
]


def params_signature(params) -> str:
    """Short stable digest of a parameter dataclass (e.g. SynthParams).

    The experiment layer stamps artifact metadata with this so a cached
    exhibit records exactly which scenario generated it; two parameter
    sets collide only if every field is equal.
    """
    if not is_dataclass(params):
        raise TypeError(f"expected a params dataclass, got {type(params)!r}")
    canon = json.dumps(
        {"type": type(params).__name__, **asdict(params)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

# ----------------------------------------------------------------------
# Calibration constants (paper-reported targets; see module docstring)
# ----------------------------------------------------------------------

#: Diurnal submission-rate profile (Fig 2b): night trough, lunch/dinner dips.
DIURNAL_SUBMIT = np.array(
    [0.42, 0.36, 0.32, 0.30, 0.28, 0.30, 0.38, 0.52,  # 0-7  night/sunrise
     0.78, 0.98, 1.10, 1.12, 0.88, 1.05, 1.15, 1.15,  # 8-15 workday, lunch dip @12
     1.10, 1.05, 0.82, 0.95, 1.00, 0.90, 0.72, 0.55]  # 16-23 dinner dip @18
)
#: Weekday submission multipliers (research labs run weekends at ~70%).
WEEKLY_SUBMIT = np.array([1.0, 1.05, 1.05, 1.0, 0.95, 0.75, 0.68])

#: GPU counts requested in Helios are almost always powers of two (§3.2.2).
GPU_SIZES = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256])

#: Per-cluster base probability over GPU_SIZES (Earth is single-GPU heavy).
CLUSTER_GPU_PROBS = {
    "Venus": np.array([0.55, 0.13, 0.10, 0.12, 0.05, 0.03, 0.015, 0.004, 0.001]),
    "Earth": np.array([0.90, 0.040, 0.025, 0.020, 0.008, 0.004, 0.002, 0.0008, 0.0002]),
    "Saturn": np.array([0.54, 0.13, 0.10, 0.12, 0.055, 0.033, 0.015, 0.005, 0.002]),
    "Uranus": np.array([0.55, 0.11, 0.10, 0.13, 0.06, 0.03, 0.015, 0.003, 0.002]),
}

#: Final-status probabilities conditioned on GPU demand (Fig 7b): completion
#: falls with size, cancellation rises to ~70% for >=64-GPU jobs.
STATUS_BY_SIZE = {
    # size: (completed, canceled, failed)
    1: (0.64, 0.17, 0.19),
    2: (0.71, 0.15, 0.14),
    4: (0.58, 0.22, 0.20),
    8: (0.50, 0.30, 0.20),
    16: (0.42, 0.38, 0.20),
    32: (0.34, 0.46, 0.20),
    64: (0.23, 0.63, 0.14),
    128: (0.20, 0.66, 0.14),
    256: (0.18, 0.68, 0.14),
}

#: Template-median duration mixture for GPU jobs (seconds).
GPU_DURATION_MIX = LogNormalMixture(
    components=(
        LogNormal(median=120.0, sigma=1.0, low=2.0),
        LogNormal(median=1_500.0, sigma=1.0, low=30.0),
        LogNormal(median=25_000.0, sigma=1.2, low=600.0, high=50 * SECONDS_PER_DAY),
    ),
    weights=(0.45, 0.33, 0.22),
)

#: CPU-job duration mixtures; Earth is dominated by 1-second query jobs (§3.2.1).
CPU_DURATION_MIX = {
    "Earth": LogNormalMixture(
        components=(
            LogNormal(median=1.0, sigma=0.25, low=0.5, high=3.0),
            LogNormal(median=60.0, sigma=1.2, low=2.0),
            LogNormal(median=3_000.0, sigma=1.0, low=60.0, high=10 * SECONDS_PER_DAY),
        ),
        weights=(0.88, 0.10, 0.02),
    ),
    "default": LogNormalMixture(
        components=(
            LogNormal(median=1.5, sigma=0.5, low=0.5, high=10.0),
            LogNormal(median=100.0, sigma=1.2, low=2.0),
            LogNormal(median=2_500.0, sigma=1.2, low=60.0, high=10 * SECONDS_PER_DAY),
        ),
        weights=(0.50, 0.35, 0.15),
    ),
}

#: Target cluster utilization (Fig 2a: 65-90%, Saturn highest).
TARGET_UTILIZATION = {"Venus": 0.74, "Earth": 0.70, "Saturn": 0.82, "Uranus": 0.77}

#: CPU jobs per GPU job (Helios total is ~1.13 CPU jobs per GPU job,
#: concentrated in Earth where most jobs are short CPU queries).
CPU_JOBS_PER_GPU_JOB = {"Venus": 0.55, "Earth": 2.4, "Saturn": 0.85, "Uranus": 0.70}

#: Users per cluster (paper: 200-400 each).
USERS_PER_CLUSTER = {"Venus": 250, "Earth": 320, "Saturn": 400, "Uranus": 280}

CPUS_PER_GPU = 6  # Slurm default CPU allocation proportional to GPUs (§2.1)


@dataclass(frozen=True)
class SynthParams:
    """Top-level knobs for the synthetic Helios workload."""

    months: int = 6
    scale: float = 0.25
    seed: int = 0
    start_epoch: int = 0
    instance_sigma: float = 0.45  # per-job scatter around template medians
    max_duration: float = 50.0 * SECONDS_PER_DAY  # Table 2: Helios max 50 days
    #: Floor on a VC's expected GPU-time per job.  A small VC whose few
    #: users drew only short templates would otherwise need hundreds of
    #: thousands of jobs to fill its GPU-time budget, dwarfing every
    #: other VC's job count (real VCs run minutes-to-days jobs, not
    #: millions of second-scale ones).
    min_mean_gpu_time: float = 6_000.0

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def horizon_seconds(self) -> int:
        return self.months * DAYS_PER_MONTH * SECONDS_PER_DAY

    @property
    def horizon_hours(self) -> int:
        return self.months * DAYS_PER_MONTH * 24


def sequence_within_group(group_ids: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its group (vectorized).

    ``sequence_within_group([5, 3, 5, 5, 3]) == [0, 0, 1, 2, 1]``
    """
    ids = np.asarray(group_ids)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    # Index within each run of equal ids in the sorted layout.
    is_start = np.ones(len(ids), dtype=bool)
    is_start[1:] = sorted_ids[1:] != sorted_ids[:-1]
    run_starts = np.flatnonzero(is_start)
    offsets = np.arange(len(ids)) - np.repeat(run_starts, np.diff(np.append(run_starts, len(ids))))
    out = np.empty(len(ids), dtype=np.int64)
    out[order] = offsets
    return out


class ClusterWorkloadModel:
    """Per-cluster generator: VC profiles + users -> job table.

    The cluster's offered load is budgeted in GPU-seconds per VC
    (``vc_gpus × horizon × load_factor``); jobs are drawn from the VC's
    user/template pools until the budget is met, so the headline cluster
    utilization matches the Fig 2a targets by construction.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        params: SynthParams,
        target_utilization: float,
        cpu_ratio: float,
        n_users: int,
        gpu_size_probs: np.ndarray,
        seed: int,
    ) -> None:
        self.spec = spec
        self.params = params
        self.target_utilization = target_utilization
        self.cpu_ratio = cpu_ratio
        self.rng = np.random.default_rng(seed)
        self._build_vc_profiles(gpu_size_probs)
        whole_node_min = {
            vc.name: (vc.gpus_per_node if self.vc_class[vc.name] == "large" else 0)
            for vc in spec.vcs
        }
        self.population = UserPopulation(
            cluster_name=spec.name,
            vc_names=[vc.name for vc in spec.vcs],
            vc_node_share=np.array([vc.num_nodes for vc in spec.vcs], dtype=float),
            vc_gpu_dist=self.vc_gpu_dist,
            vc_duration_scale=self.vc_duration_scale,
            duration_sampler=lambda rng, size: GPU_DURATION_MIX.sample(rng, size),
            vc_whole_node_min=whole_node_min,
            n_users=n_users,
            seed=int(self.rng.integers(2**31)),
        )

    # ------------------------------------------------------------------
    def _build_vc_profiles(self, base_probs: np.ndarray) -> None:
        """Draw per-VC size class, duration scale and load factor.

        Fig 4 shows VCs are *segregated by job size* (per-VC average GPU
        demand is bimodal: 1.1–2.6 for small-job VCs vs 8.4–15.4 for
        large-job VCs).  Segregation is also what keeps FIFO viable in
        production: large-job VCs run whole-node jobs (which pack
        perfectly), small-job VCs run sub-node jobs (which never wait for
        fully-idle nodes).  Mixing long single-GPU jobs with multi-node
        jobs in one VC starves consolidation indefinitely.
        """
        rng = self.rng
        self.vc_gpu_dist: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.vc_duration_scale: dict[str, float] = {}
        self.vc_load_factor: dict[str, float] = {}
        self.vc_class: dict[str, str] = {}
        gpus = np.array([vc.num_gpus for vc in self.spec.vcs], dtype=float)
        raw_lf = np.clip(
            rng.normal(self.target_utilization, 0.10, size=len(self.spec.vcs)),
            0.45,
            0.89,
        )
        # Rescale so the GPU-weighted mean load equals the target.
        mean_lf = float((raw_lf * gpus).sum() / gpus.sum())
        raw_lf = np.clip(raw_lf * self.target_utilization / mean_lf, 0.40, 0.90)

        # Classes are assigned deterministically by VC size: the biggest
        # VCs (by cumulative GPU share) host the large jobs, mirroring
        # Fig 4's "VC utilization is positively correlated with the
        # average GPU demands".
        single_heavy = base_probs[0] > 0.8  # Earth-style cluster
        large_cut, mixed_cut = (0.0, 0.12) if single_heavy else (0.38, 0.68)
        order = np.argsort(gpus)[::-1]
        cum_share = np.cumsum(gpus[order]) / gpus.sum()
        classes = np.full(len(order), "small", dtype="U6")
        for rank, vc_i in enumerate(order):
            share_before = cum_share[rank - 1] if rank else 0.0
            if share_before < large_cut and self.spec.vcs[vc_i].num_nodes >= 4:
                classes[vc_i] = "large"
            elif share_before < mixed_cut:
                classes[vc_i] = "mixed"
        for i, vc in enumerate(self.spec.vcs):
            cls = str(classes[i])
            sizes, w = self._class_size_dist(cls, vc, base_probs, rng)
            self.vc_class[vc.name] = cls
            self.vc_gpu_dist[vc.name] = (sizes, w)
            self.vc_duration_scale[vc.name] = float(np.exp(rng.normal(0.0, 0.35)))
            self.vc_load_factor[vc.name] = float(raw_lf[i])

    @staticmethod
    def _class_size_dist(
        cls: str,
        vc,
        base_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """GPU-size distribution for one VC given its class."""
        gpn = vc.gpus_per_node
        sizes = GPU_SIZES
        if cls == "small":
            keep = sizes <= min(2, gpn)
            w = base_probs[keep].copy()
        elif cls == "mixed":
            # Half-node jobs at most: placement never waits for a fully
            # (or nearly fully) idle node.
            keep = sizes <= max(2, gpn // 2)
            w = base_probs[keep].copy()
        else:  # large
            # Whole-node multiples pack perfectly; a small admixture of
            # sub-node debug jobs (short-lived) keeps realism.
            cap = max(gpn, vc.num_gpus // 2)
            keep = (sizes >= gpn) & (sizes <= cap)
            if not np.any(keep):
                keep = sizes <= gpn
                w = base_probs[keep].copy()
            else:
                w = base_probs[keep].copy()
                # renormalize large part to 0.85, small part to 0.15
                small_keep = sizes <= min(4, gpn)
                w = 0.85 * w / w.sum()
                ws = 0.15 * base_probs[small_keep] / base_probs[small_keep].sum()
                out_sizes = np.concatenate([sizes[small_keep], sizes[keep]])
                out_w = np.concatenate([ws, w])
                return out_sizes, out_w / out_w.sum()
        return sizes[keep], w / w.sum()

    # ------------------------------------------------------------------
    def _status_for_sizes(self, gpu_nums: np.ndarray) -> np.ndarray:
        """Sample final statuses conditioned on GPU demand (Fig 7b)."""
        rng = self.rng
        out = np.empty(len(gpu_nums), dtype="U9")
        u = rng.random(len(gpu_nums))
        for size, (pc, pk, pf) in STATUS_BY_SIZE.items():
            mask = gpu_nums == size
            if not np.any(mask):
                continue
            um = u[mask]
            st = np.where(um < pc, COMPLETED, np.where(um < pc + pk, CANCELED, FAILED))
            out[mask] = st
        # Sizes outside the table (clipped odd sizes): treat as nearest pow2.
        unset = out == ""
        if np.any(unset):
            out[unset] = COMPLETED
        return out

    def _status_duration_modifier(self, statuses: np.ndarray) -> np.ndarray:
        """Failed jobs die early; canceled jobs are cut short (§3.2.2)."""
        rng = self.rng
        n = len(statuses)
        mod = np.ones(n)
        failed = statuses == FAILED
        canceled = statuses == CANCELED
        # Most failures are user errors caught quickly.
        mod[failed] = np.clip(rng.lognormal(np.log(0.25), 1.1, failed.sum()), 0.005, 1.0)
        mod[canceled] = rng.uniform(0.35, 1.0, canceled.sum())
        return mod

    # ------------------------------------------------------------------
    def _submit_hour_weights(
        self, monthly_sigma: float, week_mult: np.ndarray | None = None
    ) -> np.ndarray:
        """Hour-of-horizon submission weights.

        diurnal × day-of-week × monthly volume noise × optional per-week
        load multipliers.  The weekly multipliers are the slack/burst
        structure that CES exploits (Fig 14's running-node swings) and
        that Fig 3's month-to-month utilization changes reflect.
        """
        p = self.params
        hours = np.arange(p.horizon_hours)
        hod = hours % 24
        dow = (hours // 24) % 7
        month = hours // (DAYS_PER_MONTH * 24)
        month_mult = np.exp(
            self.rng.normal(0.0, monthly_sigma, size=p.months)
        )
        out = DIURNAL_SUBMIT[hod] * WEEKLY_SUBMIT[dow] * month_mult[month]
        if week_mult is not None:
            week = np.minimum(hours // (7 * 24), len(week_mult) - 1)
            out = out * week_mult[week]
        return out

    def _vc_week_multipliers(self) -> np.ndarray:
        """Per-week load multipliers for one VC (lognormal, sigma 0.35)."""
        n_weeks = int(np.ceil(self.params.horizon_hours / (7 * 24)))
        return np.exp(self.rng.normal(0.0, 0.35, size=n_weeks))

    def _sample_submit_times(self, n: int, weights: np.ndarray) -> np.ndarray:
        probs = weights / weights.sum()
        hour_idx = self.rng.choice(len(weights), size=n, p=probs)
        offset = self.rng.uniform(0, SECONDS_PER_HOUR, size=n)
        return (
            self.params.start_epoch
            + hour_idx * SECONDS_PER_HOUR
            + offset
        ).astype(np.int64)

    # ------------------------------------------------------------------
    def generate_gpu_jobs(self) -> Table:
        """Draw GPU jobs until every VC's GPU-time budget is met."""
        p = self.params
        rng = self.rng
        templates, probs = self.population.template_probabilities()
        t_vc = np.array([t.vc for t in templates])
        t_gpu = np.array([t.gpu_num for t in templates])
        t_median = np.array([t.median_duration for t in templates])
        t_user = np.array([t.user for t in templates])
        t_base = np.array([t.base_name for t in templates])

        all_parts: list[dict[str, np.ndarray]] = []

        for vc in self.spec.vcs:
            # Two submission-time weight tracks per VC: single-GPU volumes
            # fluctuate month-to-month, multi-GPU volumes are stable
            # (Fig 3); both share the VC's weekly slack/burst structure.
            vc_weeks = self._vc_week_multipliers()
            w_single = self._submit_hour_weights(monthly_sigma=0.40, week_mult=vc_weeks)
            w_multi = self._submit_hour_weights(monthly_sigma=0.06, week_mult=vc_weeks)
            budget = vc.num_gpus * p.horizon_seconds * self.vc_load_factor[vc.name]
            mask = t_vc == vc.name
            if not np.any(mask):
                continue
            vp = probs[mask] / probs[mask].sum()
            idx_pool = np.flatnonzero(mask)
            # Pilot estimate of expected GPU-time per job in this VC.
            pilot = rng.choice(idx_pool, size=min(2000, 4 * len(idx_pool)), p=vp)
            pilot_gpu_time = (
                t_gpu[pilot]
                * t_median[pilot]
                * np.exp(p.instance_sigma**2 / 2)
                * 0.8  # average status modifier
            )
            mean_gt = max(float(pilot_gpu_time.mean()), 1.0)
            # Guard against degenerate all-short VCs (see SynthParams).
            dur_boost = max(1.0, p.min_mean_gpu_time / mean_gt)
            mean_gt *= dur_boost
            # Draw in batches until the GPU-time budget is met, then trim.
            chosen_parts, dur_parts, status_parts = [], [], []
            filled = 0.0
            for _attempt in range(6):
                remaining = budget - filled
                if remaining <= 0:
                    break
                n_est = int(np.ceil(remaining / mean_gt * 1.15)) + 8
                chosen = rng.choice(idx_pool, size=n_est, p=vp)
                noise = rng.lognormal(0.0, p.instance_sigma, size=n_est)
                statuses = self._status_for_sizes(t_gpu[chosen])
                mod = self._status_duration_modifier(statuses)
                durations = np.clip(
                    t_median[chosen] * noise * mod * dur_boost, 1.0, p.max_duration
                )
                gpu_time = durations * t_gpu[chosen]
                csum = np.cumsum(gpu_time)
                cut = min(int(np.searchsorted(csum, remaining)) + 1, n_est)
                chosen_parts.append(chosen[:cut])
                dur_parts.append(durations[:cut])
                status_parts.append(statuses[:cut])
                filled += float(csum[cut - 1])
            vc_tmpl = np.concatenate(chosen_parts)
            vc_gpus = t_gpu[vc_tmpl]
            vc_single = vc_gpus == 1
            vc_submit = np.empty(len(vc_tmpl), dtype=np.int64)
            if vc_single.any():
                vc_submit[vc_single] = self._sample_submit_times(
                    int(vc_single.sum()), w_single
                )
            if (~vc_single).any():
                vc_submit[~vc_single] = self._sample_submit_times(
                    int((~vc_single).sum()), w_multi
                )
            all_parts.append(
                {
                    "template": vc_tmpl,
                    "duration": np.concatenate(dur_parts),
                    "status": np.concatenate(status_parts),
                    "submit": vc_submit,
                }
            )

        template_idx = np.concatenate([part["template"] for part in all_parts])
        durations = np.concatenate([part["duration"] for part in all_parts])
        statuses = np.concatenate([part["status"] for part in all_parts])
        submit = np.concatenate([part["submit"] for part in all_parts])
        n = len(template_idx)
        gpus = t_gpu[template_idx]

        seq = sequence_within_group(template_idx)
        names = np.char.add(
            np.char.add(t_base[template_idx], "_"), seq.astype("U12")
        )
        node_num = np.maximum(1, np.ceil(gpus / self.spec.gpus_per_node)).astype(np.int64)
        prefix = self.spec.name[:2].lower() + "-g"
        table = Table(
            {
                "job_id": np.char.add(prefix, np.arange(n).astype("U12")),
                "cluster": np.full(n, self.spec.name, dtype="U8"),
                "vc": t_vc[template_idx],
                "user": t_user[template_idx],
                "name": names,
                "gpu_num": gpus.astype(np.int64),
                "cpu_num": (gpus * CPUS_PER_GPU).astype(np.int64),
                "node_num": node_num,
                "submit_time": submit,
                "duration": durations,
                "status": statuses,
            }
        )
        return table.sort_by("submit_time")

    # ------------------------------------------------------------------
    def generate_cpu_jobs(self, n_gpu_jobs: int) -> Table:
        """CPU-only jobs (preprocessing, queries): no GPUs held."""
        p = self.params
        rng = self.rng
        n = int(round(n_gpu_jobs * self.cpu_ratio))
        if n == 0:
            return Table({c: np.empty(0, dtype=t) for c, t in _EMPTY_DTYPES.items()})
        mix = CPU_DURATION_MIX.get(self.spec.name, CPU_DURATION_MIX["default"])
        users, uprobs = self.population.cpu_user_probabilities()
        user_arr = rng.choice(np.asarray(users), size=n, p=uprobs)
        # The long-tail component (heavy preprocessing pipelines) is run
        # by the heavy CPU users, so the top 5% of users hold the bulk of
        # CPU *time* (Fig 8b) while 1-second query jobs stay 1 second.
        act = dict(zip(users, uprobs))
        rel = np.array([act[u] for u in user_arr]) * len(users)
        w_long = mix.weights[-1]
        tilt = rel**2.5
        p_long = np.clip(w_long * tilt / max(tilt.mean(), 1e-12), 0.0, 0.95)
        is_long = rng.random(n) < p_long
        short_mix = LogNormalMixture(
            components=mix.components[:-1],
            weights=tuple(w / (1 - w_long) for w in mix.weights[:-1]),
        )
        durations = np.empty(n)
        n_long = int(is_long.sum())
        if n_long:
            durations[is_long] = mix.components[-1].sample(rng, n_long)
        if n - n_long:
            durations[~is_long] = short_mix.sample(rng, n - n_long)
        user_vc = {u.user_id: u.vc for u in self.population.users}
        vcs = np.array([user_vc[u] for u in user_arr])
        cpu_num = rng.choice([1, 2, 4, 8, 16], size=n, p=[0.5, 0.2, 0.15, 0.1, 0.05])
        # CPU statuses: overwhelmingly successful (Fig 7a: ~91% completed).
        u = rng.random(n)
        statuses = np.where(u < 0.909, COMPLETED, np.where(u < 0.939, CANCELED, FAILED))
        failed = statuses == FAILED
        durations[failed] = np.clip(durations[failed] * rng.uniform(0.05, 1.0, failed.sum()), 0.5, None)
        weights = self._submit_hour_weights(monthly_sigma=0.25)
        submit = self._sample_submit_times(n, weights)
        stems = rng.choice(
            ["frame_extract", "decompress", "rescale", "pack_dataset", "query_state", "postprocess"],
            size=n,
        )
        stem_user = np.char.add(user_arr.astype(str), stems.astype(str))
        seq = sequence_within_group(stem_user)
        names = np.char.add(
            np.char.add(stems.astype("U20"), "_"), seq.astype("U12")
        )
        prefix = self.spec.name[:2].lower() + "-c"
        table = Table(
            {
                "job_id": np.char.add(prefix, np.arange(n).astype("U12")),
                "cluster": np.full(n, self.spec.name, dtype="U8"),
                "vc": vcs,
                "user": user_arr.astype(str),
                "name": names,
                "gpu_num": np.zeros(n, dtype=np.int64),
                "cpu_num": cpu_num.astype(np.int64),
                "node_num": np.ones(n, dtype=np.int64),
                "submit_time": submit,
                "duration": np.clip(durations, 0.5, p.max_duration),
                "status": statuses.astype("U9"),
            }
        )
        return table.sort_by("submit_time")

    def generate(self) -> Table:
        gpu_jobs = self.generate_gpu_jobs()
        cpu_jobs = self.generate_cpu_jobs(len(gpu_jobs))
        if len(cpu_jobs) == 0:
            return gpu_jobs
        both = Table.concat([gpu_jobs.select(*gpu_jobs.columns), cpu_jobs.select(*gpu_jobs.columns)])
        return both.sort_by("submit_time")


_EMPTY_DTYPES = {
    "job_id": "U24", "cluster": "U8", "vc": "U8", "user": "U12", "name": "U40",
    "gpu_num": np.int64, "cpu_num": np.int64, "node_num": np.int64,
    "submit_time": np.int64, "duration": np.float64, "status": "U9",
}


def synthesize_node_events(
    num_nodes: int,
    horizon_seconds: float,
    seed: int,
    *,
    burst_rate_per_day: float = 0.5,
    burst_nodes_mean: float = 3.0,
    repair_minutes_median: float = 45.0,
    repair_sigma: float = 0.9,
) -> Table:
    """Synthesize correlated node down/up events for one cluster.

    Real datacenter node failures are bursty and rack-correlated: a PDU
    trip or a top-of-rack switch fault takes out a *contiguous run* of
    nodes at once, and repairs follow a heavy-tailed (lognormal)
    time-to-restore.  We model failure *bursts* as a Poisson process over
    the horizon; each burst knocks out ``1 + Geometric`` physically
    adjacent nodes, and each downed node comes back after an independent
    lognormal repair delay.

    The returned :class:`Table` has columns ``time`` (seconds, float),
    ``node`` (global node index, int) and ``up`` (0 = down, 1 = up),
    stably sorted by time.  Per node, events strictly alternate
    down/up starting from up — the invariant
    :func:`repro.sim.normalize_node_events` enforces — because a node
    already down when a later burst hits it is simply skipped.

    Fully deterministic for a given ``(num_nodes, horizon, seed)`` and
    knob set.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if horizon_seconds <= 0:
        raise ValueError(f"horizon_seconds must be positive, got {horizon_seconds}")
    for knob, value in (
        ("burst_rate_per_day", burst_rate_per_day),
        ("burst_nodes_mean", burst_nodes_mean),
        ("repair_minutes_median", repair_minutes_median),
        ("repair_sigma", repair_sigma),
    ):
        if value < 0:
            raise ValueError(f"{knob} must be nonnegative, got {value}")
    rng = np.random.default_rng(seed)
    horizon_days = horizon_seconds / SECONDS_PER_DAY
    n_bursts = int(rng.poisson(burst_rate_per_day * horizon_days))
    burst_times = np.sort(rng.uniform(0.0, horizon_seconds, size=n_bursts))

    times: list[float] = []
    nodes: list[int] = []
    ups: list[int] = []
    next_up = np.zeros(num_nodes, dtype=np.float64)
    repair_median_s = repair_minutes_median * 60.0
    for t in burst_times.tolist():
        size = 1 + int(rng.geometric(1.0 / max(1.0, burst_nodes_mean)))
        start = int(rng.integers(0, num_nodes))
        for node in range(start, min(start + size, num_nodes)):
            if t < next_up[node]:
                continue  # still down from an earlier burst
            repair_s = repair_median_s * float(rng.lognormal(0.0, repair_sigma))
            t_up = t + max(1.0, repair_s)
            next_up[node] = t_up
            times.extend((t, t_up))
            nodes.extend((node, node))
            ups.extend((0, 1))

    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    return Table(
        {
            "time": np.asarray(times, dtype=np.float64)[order],
            "node": np.asarray(nodes, dtype=np.int64)[order],
            "up": np.asarray(ups, dtype=np.int64)[order],
        }
    )


class HeliosTraceGenerator:
    """Generate the four-cluster Helios workload (Table 1 shape).

    Examples
    --------
    >>> gen = HeliosTraceGenerator(SynthParams(months=1, scale=0.05, seed=7))
    >>> traces = gen.generate()
    >>> sorted(traces) == ['Earth', 'Saturn', 'Uranus', 'Venus']
    True
    """

    def __init__(self, params: SynthParams | None = None) -> None:
        self.params = params or SynthParams()
        self.specs = helios_cluster_specs(seed=self.params.seed, scale=self.params.scale)

    def cluster_model(self, name: str) -> ClusterWorkloadModel:
        if name not in self.specs:
            raise KeyError(f"unknown cluster {name!r}")
        return ClusterWorkloadModel(
            spec=self.specs[name],
            params=self.params,
            target_utilization=TARGET_UTILIZATION[name],
            cpu_ratio=CPU_JOBS_PER_GPU_JOB[name],
            n_users=max(20, int(USERS_PER_CLUSTER[name] * min(1.0, self.params.scale * 2))),
            gpu_size_probs=CLUSTER_GPU_PROBS[name],
            seed=self.params.seed + _CLUSTER_SEED_OFFSET[name],
        )

    def generate_cluster(self, name: str) -> Table:
        """Generate one cluster's full trace (GPU + CPU jobs)."""
        return self.cluster_model(name).generate()

    def generate(self) -> dict[str, Table]:
        """Generate all four cluster traces."""
        return {name: self.generate_cluster(name) for name in self.specs}

    def generate_node_events(self, name: str, **knobs) -> Table:
        """Synthesize correlated node-failure events for one cluster.

        The seed is derived from the generator seed and the cluster name
        so node events are independent of (but reproducible alongside)
        the job trace.
        """
        if name not in self.specs:
            raise KeyError(f"unknown cluster {name!r}")
        spec = self.specs[name]
        digest = hashlib.sha256(
            f"node-events:{self.params.seed}:{name}".encode()
        ).digest()
        seed = int.from_bytes(digest[:8], "little")
        return synthesize_node_events(
            spec.num_nodes, self.params.horizon_seconds, seed, **knobs
        )


_CLUSTER_SEED_OFFSET = {"Venus": 11, "Earth": 23, "Saturn": 37, "Uranus": 53}

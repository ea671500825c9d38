"""Saliency evaluation: NSS, CC, SIM, AUC-Judd, shuffled AUC, and the
two-stage aggregation (frame -> video mean -> dataset mean).

Maps are plain (H, W) float arrays; fixations are explicit pixel lists.
Frames where a metric is undefined (constant map, empty fixations) are
marked invalid and excluded from the averages rather than scored as 0.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

METRIC_NAMES = ("AUC-J", "s-AUC", "NSS", "CC", "SIM")


@dataclass
class FixationMap:
    """Discrete gaze locations; duplicates allowed (multiple observers).
    `index` holds each point's flat pixel index `r * W + c`, in order."""
    points: list[tuple[int, int]]
    extent: tuple[int, int]
    index: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        h, w = self.extent
        for r, c in self.points:
            if not (0 <= r < h and 0 <= c < w):
                raise ValueError(f"fixation ({r}, {c}) outside extent {self.extent}")
        self.index = np.array([r * w + c for r, c in self.points], dtype=np.int64)

    def unique_indices(self, shape: tuple[int, int]) -> np.ndarray:
        """Unique flat pixel indices of the fixated locations."""
        if shape != self.extent:
            raise ValueError(f"map shape {shape} != fixation extent {self.extent}")
        return np.unique(self.index)


def nss(pred: np.ndarray, fix: FixationMap) -> Optional[float]:
    """Mean z-scored (population std) saliency at fixated pixels."""
    if pred.shape != fix.extent:
        raise ValueError(f"map shape {pred.shape} != fixation extent {fix.extent}")
    if not fix.points:
        return None
    sd = pred.std()  # population std
    if sd == 0.0:
        return None
    z = (pred - pred.mean()) / sd
    # every observation counts, duplicates included
    return float(np.mean(z.reshape(-1)[fix.index]))


def cc(pred: np.ndarray, gt: np.ndarray) -> Optional[float]:
    """Pearson correlation over all pixels."""
    if pred.shape != gt.shape:
        raise ValueError(f"cc: shape mismatch {pred.shape} vs {gt.shape}")
    p = pred.reshape(-1) - pred.mean()
    g = gt.reshape(-1) - gt.mean()
    denom = np.sqrt((p * p).sum() * (g * g).sum())
    if denom == 0.0:
        return None
    return float((p * g).sum() / denom)


def sim(pred: np.ndarray, gt: np.ndarray) -> Optional[float]:
    """Histogram intersection after normalizing both maps to sum 1."""
    if pred.shape != gt.shape:
        raise ValueError(f"sim: shape mismatch {pred.shape} vs {gt.shape}")
    ps, gs = pred.sum(), gt.sum()
    if ps <= 0.0 or gs <= 0.0:
        return None
    return float(np.minimum(pred / ps, gt / gs).sum())


def _auc_rows(pos: np.ndarray, negs: np.ndarray) -> np.ndarray:
    """Exact ROC area of `pos` against each row of `negs`: the pairwise
    statistic (2·#(pos > neg) + #(pos == neg)) / (2·P·N). Each negative is
    found in the sorted positives by sorted search: O(rows·N) memory."""
    pos = np.sort(pos)
    # per negative n: 2·#(pos > n) + #(pos == n) = 2P - left - right
    ranks = (pos.searchsorted(negs, side="left")
             + pos.searchsorted(negs, side="right")).sum(axis=-1)
    pairs = 2 * pos.size * negs.shape[-1]
    return (pairs - ranks) / pairs


def _auc_from_scores(pos: np.ndarray, neg: np.ndarray) -> float:
    """Exact pairwise ROC area of 1-D scores, ties credited 0.5."""
    return float(_auc_rows(pos, neg[np.newaxis])[0])


def auc_judd(pred: np.ndarray, fix: FixationMap) -> Optional[float]:
    """AUC with fixated pixels as positives and all others as negatives."""
    idx = fix.unique_indices(pred.shape)  # checks the shape, fixations or not
    if not fix.points:
        return None
    flat = pred.reshape(-1)
    if len(idx) == flat.size:
        return None  # no negatives
    return _auc_from_scores(flat[idx], np.delete(flat, idx))


# Largest split size the vectorised sampler takes. It makes a few numpy
# calls per step, 2k-1 steps, and each Floyd step compares its draw with the
# row's earlier ones; the loop of `rng.choice` calls costs about the same at
# every k. At 100 splits from a pool of 1,024 (fastest of 30 calls, 2-vCPU
# VM, numpy 2.4.6) the sampler took 0.07 ms at k = 5, 0.32 ms at k = 30 and
# 0.72 ms at k = 60, the loop 0.79-0.96 ms; they crossed near k = 75 (the
# loop won at k = 90-120 in each run). Keep it at most 10,000 // 50 = 200:
# numpy's choice leaves Floyd's algorithm only for pools over 10,000 with
# k > pool // 50, so no pool-size check is needed.
_SAMPLER_MAX_K = 64


def _choice_rows(rng: np.random.Generator, n: int, k: int,
                 n_splits: int) -> Optional[np.ndarray]:
    """(n_splits, k) indices into range(n), row s bit-equal to the s-th of
    `n_splits` successive `rng.choice(n, k, replace=False)` calls, or None
    where numpy would have redrawn (then `rng` is spent).

    For k <= 200 and n < 2³² numpy runs Floyd's algorithm (j = n-k .. n-1)
    and then a Fisher-Yates shuffle (i = k-1 .. 1), and each step is one
    Lemire draw of range(r), r = j+1 or i+1, from one 32-bit output (low
    half, then high half, of each PCG64 word). A one-value range (r = 1,
    only when k = n) reads none. So every split reads the same columns of
    one block of outputs, unless a draw is rejected, which happens with
    odds below r/2³².
    """
    floyd = np.arange(max(n - k, 1), n, dtype=np.uint64) + 1
    ranges = np.concatenate([floyd, np.arange(k, 1, -1, dtype=np.uint64)])
    m = rng.integers(0, 2**32, size=(n_splits, ranges.size),
                     dtype=np.uint32) * ranges
    if ((m & 0xFFFFFFFF) < (2**32 - ranges) % ranges).any():
        return None
    # split-minor from here, so each step reads and writes contiguous rows
    draws = (m >> 32).T.astype(np.int64)
    if k == n:  # Floyd's first step, range(1), is 0 and reads nothing
        draws = np.concatenate([np.zeros((1, n_splits), np.int64), draws])
    idx = np.empty((k, n_splits), np.int64)
    for c in range(k):  # Floyd: take j where the draw is already taken
        v = draws[c]
        idx[c] = np.where((idx[:c] == v).any(0), n - k + c, v)
    flat = idx.reshape(-1)
    split = np.arange(n_splits)
    for i in range(k - 1, 0, -1):  # Fisher-Yates: swap i with the draw
        at = draws[2 * k - 1 - i] * n_splits + split
        held = flat[at]
        flat[at] = idx[i]
        idx[i] = held
    return idx.T


def auc_shuffled(pred: np.ndarray, fix: FixationMap,
                 other_fix: Sequence[FixationMap], n_splits: int = 100,
                 rng_seed: int = 0) -> Optional[float]:
    """AUC whose negatives are fixation locations borrowed from other
    videos/frames; mean over `n_splits` splits, scored together: one exact
    pairwise count (`_auc_rows`) over the stacked (n_splits, N) negatives,
    in O(n_splits·N) memory.

    The splits are those of `n_splits` successive `rng.choice` calls on
    `default_rng(rng_seed)`. Without replacement and for N up to
    `_SAMPLER_MAX_K`, `_choice_rows` decodes all of them from one block of
    generator outputs; tests keep it bit-equal to `Generator.choice` on the
    installed numpy. The calls themselves run with replacement (a pool
    smaller than N), for larger N, and in the rare case of a redraw."""
    if n_splits < 1:
        raise ValueError(f"n_splits must be >= 1, got {n_splits}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    pos_idx = fix.unique_indices(pred.shape)  # checks the shape, fixations or not
    if not fix.points:
        return None
    if not other_fix:
        raise ValueError("auc_shuffled needs a non-empty pool of other fixations")
    if any(om.extent != fix.extent for om in other_fix):
        raise ValueError("fixation extents differ across the pool")
    # the distinct pool pixels that are not positives, sorted
    in_pool = np.zeros(pred.size, dtype=bool)
    for om in other_fix:
        in_pool[om.index] = True
    in_pool[pos_idx] = False
    pool_arr = np.flatnonzero(in_pool)
    if pool_arr.size == 0:
        return None
    flat = pred.reshape(-1)
    pos = flat[pos_idx]
    n_neg = len(pos_idx)
    replace = pool_arr.size < n_neg
    if replace:
        warnings.warn("s-AUC negative pool smaller than fixation count; "
                      "sampling with replacement")
    rows = (None if replace or n_neg > _SAMPLER_MAX_K else _choice_rows(
        np.random.default_rng(rng_seed), pool_arr.size, n_neg, n_splits))
    if rows is None:
        rng = np.random.default_rng(rng_seed)
        neg_idx = np.stack([rng.choice(pool_arr, size=n_neg, replace=replace)
                            for _ in range(n_splits)])
    else:
        neg_idx = pool_arr[rows]
    return float(np.mean(_auc_rows(pos, flat[neg_idx])))


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class MetricReport:
    """Frame values (None = invalid), per-video means and the dataset mean
    for each metric. Dataset mean = mean of per-video means, per-video mean =
    mean over valid frames only."""
    per_frame: dict[str, dict[str, list[Optional[float]]]]
    video_means: dict[str, dict[str, Optional[float]]] = field(default_factory=dict)
    valid_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    dataset_means: dict[str, Optional[float]] = field(default_factory=dict)

    def video_ids(self) -> list[str]:
        """The videos with a mean, in first-seen order."""
        return list(dict.fromkeys(vid for means in self.video_means.values()
                                  for vid in means))


def aggregate(per_frame: dict[str, dict[str, list[Optional[float]]]]) -> MetricReport:
    """Two-stage mean: frames -> per-video mean -> mean over videos."""
    report = MetricReport(per_frame=per_frame)
    for metric, videos in per_frame.items():
        vm: dict[str, Optional[float]] = {}
        vc: dict[str, int] = {}
        for vid, frames in videos.items():
            valid = [v for v in frames if v is not None]
            vc[vid] = len(valid)
            vm[vid] = float(np.mean(valid)) if valid else None
        report.video_means[metric] = vm
        report.valid_counts[metric] = vc
        if None in vm.values():
            warnings.warn(f"{metric}: videos with zero valid frames excluded "
                          "from the dataset mean")
        report.dataset_means[metric] = _dataset_mean(vm)
    return report


def _dataset_mean(video_means: dict[str, Optional[float]]) -> Optional[float]:
    """The mean of the valid per-video means; None if no video is valid."""
    means = [m for m in video_means.values() if m is not None]
    return float(np.mean(means)) if means else None


def compare_per_video(report_a: MetricReport, report_b: MetricReport,
                      metric: str):
    """Per-video signed differences A - B over the videos valid in both
    reports, plus their mean and variance; ValueError if there are none."""
    ma = report_a.video_means.get(metric, {})
    mb = report_b.video_means.get(metric, {})
    if set(ma) != set(mb):
        raise ValueError("reports cover different video sets")
    diffs = [(vid, ma[vid] - mb[vid]) for vid in ma
             if ma[vid] is not None and mb[vid] is not None]
    if not diffs:
        raise ValueError(f"{metric}: no video has a valid mean in both reports")
    values = np.array([d for _, d in diffs])
    return diffs, float(values.mean()), float(values.var())


# ---------------------------------------------------------------------------
# full-dataset evaluation and report emission


def evaluate_predictions(samples, predictions: dict[str, list[np.ndarray]],
                         n_splits: int = 100, seed: int = 0) -> MetricReport:
    """Score predicted maps against a dataset of VideoSamples.

    `predictions` maps video_id to per-frame (H, W) arrays. The s-AUC
    negative pool for a video is the set of distinct pixels fixated in any
    other video, built once per video from one pass over the dataset's
    fixations. It holds the same pixels as all other videos' frame
    fixations together, so every draw and s-AUC value equals scoring
    against those frames directly. Every fixation map must share one
    extent.
    """
    if n_splits < 1:
        raise ValueError(f"n_splits must be >= 1, got {n_splits}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    per_frame: dict[str, dict[str, list[Optional[float]]]] = {
        m: {} for m in METRIC_NAMES}
    extents = {f.extent for s in samples for f in s.fixations}
    if len(extents) > 1:
        raise ValueError("fixation extents differ across the pool")
    fixated = {s.video_id: {p for f in s.fixations for p in f.points}
               for s in samples}
    for s in samples:
        preds = predictions[s.video_id]
        if len(preds) != len(s.gt_maps):
            raise ValueError(f"video {s.video_id}: {len(preds)} predictions "
                             f"for {len(s.gt_maps)} frames")
        others = set().union(*(points for vid, points in fixated.items()
                               if vid != s.video_id))
        pool = [FixationMap(sorted(others), *extents)] if others else []
        rows = {m: [] for m in METRIC_NAMES}
        for t, pred in enumerate(preds):
            fix = s.fixations[t]
            gt = s.gt_maps[t]
            rows["NSS"].append(nss(pred, fix))
            rows["CC"].append(cc(pred, gt))
            rows["SIM"].append(sim(pred, gt))
            rows["AUC-J"].append(auc_judd(pred, fix))
            rows["s-AUC"].append(
                auc_shuffled(pred, fix, pool, n_splits=n_splits,
                             rng_seed=seed + t) if pool and fix.points else None)
        for m in METRIC_NAMES:
            per_frame[m][s.video_id] = rows[m]
    return aggregate(per_frame)


def report_to_text(report: MetricReport) -> str:
    """Line-oriented table: one row per video plus the dataset means."""
    out = io.StringIO()
    vids = report.video_ids()
    header = ["video"] + list(METRIC_NAMES)
    out.write("  ".join(f"{h:>10}" for h in header) + "\n")

    def fmt(v):
        return f"{v:>10.4f}" if v is not None else f"{'n/a':>10}"

    for vid in vids:
        cells = [f"{vid:>10}"]
        for m in METRIC_NAMES:
            cells.append(fmt(report.video_means.get(m, {}).get(vid)))
        out.write("  ".join(cells) + "\n")
    cells = [f"{'MEAN':>10}"]
    for m in METRIC_NAMES:
        cells.append(fmt(report.dataset_means.get(m)))
    out.write("  ".join(cells) + "\n")
    return out.getvalue()


REPORT_COLUMNS = ("video_id", "metric", "mean", "valid_frames")


def report_to_csv(report: MetricReport) -> str:
    """One record per video per metric: video_id, metric, mean, valid frames."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for m in METRIC_NAMES:
        for vid, mean in report.video_means.get(m, {}).items():
            writer.writerow([vid, m, "" if mean is None else f"{mean:.12g}",
                             report.valid_counts[m][vid]])
    return out.getvalue()


def report_from_csv(text: str, source) -> MetricReport:
    """The report in a `report_to_csv` text, dataset means as `aggregate`
    takes them. A missing column, a row whose mean is neither empty nor a
    finite number or whose frame count is not an integer >= 0, or a second
    row for a (video_id, metric) pair raises ValueError naming `source` and
    the line."""
    report = MetricReport(per_frame={})
    reader = csv.DictReader(text.splitlines(keepends=True))
    for column in REPORT_COLUMNS:
        if column not in (reader.fieldnames or ()):
            raise ValueError(f"{source}: report has no {column!r} column")
    for row in reader:
        m, vid = row["metric"], row["video_id"]
        try:  # a short row reads None for its missing fields
            mean = float(row["mean"]) if row["mean"] else None
            count = int(row["valid_frames"])
            if (mean is not None and not np.isfinite(mean)) or count < 0:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"{source}: line {reader.line_num} is not a "
                             f"report row") from None
        if vid in report.video_means.get(m, {}):
            raise ValueError(f"{source}: line {reader.line_num} repeats the "
                             f"{m} row of video {vid!r}")
        report.video_means.setdefault(m, {})[vid] = mean
        report.valid_counts.setdefault(m, {})[vid] = count
    report.dataset_means = {m: _dataset_mean(vm)
                            for m, vm in report.video_means.items()}
    return report

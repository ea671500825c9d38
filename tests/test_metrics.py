import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salrec.data import VideoSample
from salrec import metrics
from salrec.metrics import (_SAMPLER_MAX_K, METRIC_NAMES, FixationMap,
                            MetricReport, _auc_from_scores, _auc_rows,
                            _choice_rows, aggregate, auc_judd, auc_shuffled,
                            cc, compare_per_video, evaluate_predictions, nss,
                            report_from_csv, report_to_csv, report_to_text,
                            sim)


def pairwise_auc(pos, neg):
    """Exhaustive Mann-Whitney ordering statistic, ties credited 0.5."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_auc_from_scores(pos, neg):
    """Reference sweep: one pair of searchsorted calls per threshold, area by
    np.trapezoid. Its rounding differs from the exact count by a few ulp."""
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    tpr = [0.0]
    fpr = [0.0]
    for t in thresholds:
        tpr.append((len(pos) - np.searchsorted(pos_sorted, t, side="left"))
                   / len(pos))
        fpr.append((len(neg) - np.searchsorted(neg_sorted, t, side="left"))
                   / len(neg))
    return float(np.trapezoid(tpr, fpr))


def reference_auc_shuffled(pred, fix, other_fix, n_splits=100, rng_seed=0):
    """The earlier s-AUC: the pool is a Python set of `r * w + c` over every
    pool point, less the positives, sorted; the draws and the count are
    those of `auc_shuffled`."""
    pos_idx = fix.unique_indices(pred.shape)
    if not fix.points:
        return None
    pool = set()
    w = pred.shape[1]
    for om in other_fix:
        pool.update(r * w + c for r, c in om.points)
    pool.difference_update(pos_idx.tolist())
    pool_arr = np.array(sorted(pool), dtype=np.int64)
    if pool_arr.size == 0:
        return None
    flat = pred.reshape(-1)
    n_neg = len(pos_idx)
    rng = np.random.default_rng(rng_seed)
    neg_idx = np.stack([rng.choice(pool_arr, size=n_neg,
                                   replace=pool_arr.size < n_neg)
                        for _ in range(n_splits)])
    return float(np.mean(_auc_rows(flat[pos_idx], flat[neg_idx])))


def oracle_auc_judd(pred, fix):
    idx = fix.unique_indices(pred.shape)
    flat = pred.reshape(-1)
    mask = np.zeros(flat.size, dtype=bool)
    mask[idx] = True
    return pairwise_auc(flat[mask], flat[~mask])


class TestNss:
    def test_fixation_at_mean_is_zero(self):
        pred = np.array([[1.0, 3.0], [3.0, 1.0]])  # mean 2
        pred[0, 0] = 2.0
        pred[0, 1] = 2.0
        pred[1, 0] = 1.0
        pred[1, 1] = 3.0
        fix = FixationMap([(0, 0)], (2, 2))
        assert nss(pred, fix) == pytest.approx(0.0, abs=1e-12)

    def test_hand_zscore_example(self):
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        fix = FixationMap([(0, 0)], (2, 2))
        assert nss(pred, fix) == pytest.approx(np.sqrt(3), abs=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(size=(6, 6))
        fix = FixationMap([(1, 2), (3, 3), (5, 0)], (6, 6))
        base = nss(pred, fix)
        assert nss(2.5 * pred + 7.0, fix) == pytest.approx(base, abs=1e-10)

    def test_constant_map_invalid(self):
        assert nss(np.full((4, 4), 0.5), FixationMap([(0, 0)], (4, 4))) is None

    def test_empty_fixations_invalid(self):
        assert nss(np.eye(4), FixationMap([], (4, 4))) is None

    def test_shape_checked_before_constant_map(self):
        with pytest.raises(ValueError, match="extent"):
            nss(np.zeros((4, 4)), FixationMap([(0, 0)], (5, 5)))


class TestCc:
    def test_identical_maps(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(size=(5, 5))
        assert cc(gt, gt) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(size=(5, 5))
        assert cc(-gt + 3.0, gt) == pytest.approx(-1.0, abs=1e-12)

    def test_two_pass_pearson_oracle(self):
        rng = np.random.default_rng(3)
        pred, gt = rng.uniform(size=(8, 8)), rng.uniform(size=(8, 8))
        got = cc(pred, gt)
        # independent scalar-loop Pearson
        n = pred.size
        mp = sum(pred.flat) / n
        mg = sum(gt.flat) / n
        num = sum((p - mp) * (g - mg) for p, g in zip(pred.flat, gt.flat))
        dp = sum((p - mp) ** 2 for p in pred.flat)
        dg = sum((g - mg) ** 2 for g in gt.flat)
        assert got == pytest.approx(num / np.sqrt(dp * dg), abs=1e-12)

    def test_constant_invalid(self):
        assert cc(np.ones((3, 3)), np.eye(3)) is None

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(4)
        pred, gt = rng.uniform(size=(6, 6)), rng.uniform(size=(6, 6))
        assert cc(3.0 * pred + 1.0, gt) == pytest.approx(cc(pred, gt), abs=1e-10)


class TestSim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(0.1, 1.0, size=(5, 5))
        assert sim(gt, gt) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_zero(self):
        pred = np.zeros((2, 2))
        gt = np.zeros((2, 2))
        pred[0, 0] = 1.0
        gt[1, 1] = 1.0
        assert sim(pred, gt) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        pred, gt = rng.uniform(size=(6, 6)), rng.uniform(size=(6, 6))
        assert sim(17.3 * pred, gt) == pytest.approx(sim(pred, gt), abs=1e-12)

    def test_zero_sum_invalid(self):
        assert sim(np.zeros((2, 2)), np.ones((2, 2))) is None


class TestAucJudd:
    def test_perfect_separation(self):
        pred = np.zeros((4, 4))
        points = [(0, 1), (2, 3)]
        for r, c in points:
            pred[r, c] = 1.0
        assert auc_judd(pred, FixationMap(points, (4, 4))) == 1.0

    def test_constant_map_is_chance(self):
        pred = np.full((4, 4), 0.7)
        assert auc_judd(pred, FixationMap([(1, 1)], (4, 4))) == pytest.approx(0.5)

    def test_shape_checked_without_fixations(self):
        with pytest.raises(ValueError, match="extent"):
            auc_judd(np.zeros((4, 4)), FixationMap([], (5, 5)))

    def test_all_fixated_invalid(self):
        pred = np.arange(4.0).reshape(2, 2)
        fix = FixationMap([(r, c) for r in range(2) for c in range(2)], (2, 2))
        assert auc_judd(pred, fix) is None

    def test_matches_pairwise_oracle_random_instance(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(size=(6, 6))
        fix = FixationMap([(0, 1), (2, 4), (3, 3), (5, 5)], (6, 6))
        assert auc_judd(pred, fix) == pytest.approx(
            oracle_auc_judd(pred, fix), abs=1e-9)

    @settings(max_examples=60)
    @given(st.integers(2, 16), st.integers(2, 16), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_pairwise_oracle_property(self, h, w, seed, quantize):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(size=(h, w))
        if quantize:  # force ties
            pred = np.round(pred * 4) / 4
        n_fix = int(rng.integers(1, h * w))
        flat = rng.choice(h * w, size=n_fix, replace=False)
        fix = FixationMap([(int(i) // w, int(i) % w) for i in flat], (h, w))
        got = auc_judd(pred, fix)
        ref = oracle_auc_judd(pred, fix)
        if len(fix.unique_indices(pred.shape)) == h * w:
            assert got is None
        else:
            assert got == pytest.approx(ref, abs=1e-9)
            assert 0.0 <= got <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        pred = rng.uniform(size=(8, 8))
        fix = FixationMap([(1, 1), (4, 6), (7, 2)], (8, 8))
        base = auc_judd(pred, fix)
        assert auc_judd(np.exp(3 * pred), fix) == pytest.approx(base, abs=1e-10)


SCORES = st.lists(st.floats(allow_nan=False), min_size=1, max_size=60)
TIED_SCORES = st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                       min_size=1, max_size=60)


# the trapezoid sum rounds each term; the exact count divides once
SWEEP_GAP = 4 * np.finfo(float).eps


class TestAucSweep:
    """`_auc_from_scores` is the exact pairwise count, so it is bit-equal to
    the exhaustive `pairwise_auc` and within SWEEP_GAP of the ROC sweep."""

    @settings(max_examples=200)
    @given(st.one_of(SCORES, TIED_SCORES), st.one_of(SCORES, TIED_SCORES))
    def test_bit_identical_to_loop(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        got = _auc_from_scores(pos, neg)
        assert got == pairwise_auc(pos, neg)
        assert abs(got - loop_auc_from_scores(pos, neg)) <= SWEEP_GAP

    @pytest.mark.parametrize("pos, neg", [
        ([0.3], [0.7]), ([0.7], [0.3]), ([0.5], [0.5]),  # single elements
        ([0.4] * 7, [0.4] * 3),  # all scores equal
        ([0.2, 0.2, 0.9], [0.2, 0.9, 0.9, 0.9]),  # ties across classes
    ])
    def test_edge_cases_bit_identical(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        got = _auc_from_scores(pos, neg)
        assert got == pairwise_auc(pos, neg)
        assert abs(got - loop_auc_from_scores(pos, neg)) <= SWEEP_GAP

    def test_auc_judd_sized_input(self):
        rng = np.random.default_rng(13)
        scores = np.round(rng.uniform(size=32 * 32) * 64) / 64
        pos, neg = scores[:9], scores[9:]
        got = _auc_from_scores(pos, neg)
        assert got == pairwise_auc(pos, neg)
        assert abs(got - loop_auc_from_scores(pos, neg)) <= SWEEP_GAP


class TestAucShuffled:
    def pool(self, extent, points):
        return [FixationMap(points, extent)]

    def test_shape_checked_without_fixations(self):
        with pytest.raises(ValueError, match="extent"):
            auc_shuffled(np.zeros((4, 4)), FixationMap([], (5, 5)),
                         self.pool((5, 5), [(0, 0)]))

    def test_indicator_with_disjoint_pool_is_one(self):
        pred = np.zeros((4, 4))
        pred[0, 0] = pred[1, 1] = 1.0
        fix = FixationMap([(0, 0), (1, 1)], (4, 4))
        other = self.pool((4, 4), [(2, 2), (3, 3), (0, 3)])
        assert auc_shuffled(pred, fix, other, n_splits=10, rng_seed=0) == 1.0

    def test_constant_map_is_chance(self):
        pred = np.full((4, 4), 0.2)
        fix = FixationMap([(0, 0)], (4, 4))
        other = self.pool((4, 4), [(2, 2), (3, 3)])
        assert auc_shuffled(pred, fix, other, n_splits=5,
                            rng_seed=1) == pytest.approx(0.5)

    def test_single_split_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        pred = rng.uniform(size=(5, 5))
        fix = FixationMap([(0, 1), (2, 2)], (5, 5))
        pool_pts = [(4, 4), (3, 0), (1, 3), (4, 0)]
        got = auc_shuffled(pred, fix, self.pool((5, 5), pool_pts),
                           n_splits=1, rng_seed=123)
        # reproduce the seeded negative draw
        pos_idx = fix.unique_indices(pred.shape)
        pool_idx = sorted({r * 5 + c for r, c in pool_pts} - set(pos_idx))
        draw = np.random.default_rng(123).choice(np.array(pool_idx),
                                                 size=len(pos_idx),
                                                 replace=False)
        ref = pairwise_auc(pred.reshape(-1)[pos_idx], pred.reshape(-1)[draw])
        assert got == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("pool_pts, replace", [
        ([(r, 5) for r in range(6)] + [(5, c) for c in range(5)], False),
        ([(5, 5), (0, 5)], True),  # pool smaller than the 4 fixations
    ])
    def test_hundred_splits_match_pairwise_oracle(self, pool_pts, replace):
        rng = np.random.default_rng(14)
        pred = np.round(rng.uniform(size=(6, 6)) * 4) / 4  # force ties
        fix = FixationMap([(0, 0), (1, 2), (3, 1), (4, 4)], (6, 6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = auc_shuffled(pred, fix, self.pool((6, 6), pool_pts),
                               n_splits=100, rng_seed=5)
        assert bool(caught) == replace
        # reproduce the 100 seeded draws, in order, and score each one
        flat = pred.reshape(-1)
        pos_idx = fix.unique_indices(pred.shape)
        pool_idx = np.array(sorted({r * 6 + c for r, c in pool_pts}
                                   - set(pos_idx.tolist())))
        draws = np.random.default_rng(5)
        ref = np.mean([pairwise_auc(flat[pos_idx], flat[draws.choice(
            pool_idx, size=len(pos_idx), replace=replace)])
            for _ in range(100)])
        assert got == ref

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_set_based_reference(self, seed):
        """Random pools of several maps, with repeated points and points
        that are also positives, give the set-based pool's exact value."""
        rng = np.random.default_rng(seed)
        h, w = 6, 7
        pred = np.round(rng.uniform(size=(h, w)) * 8) / 8  # ties

        def points(n):
            return [(int(r), int(c)) for r, c in
                    zip(rng.integers(0, h, n), rng.integers(0, w, n))]

        fix = FixationMap(points(4), (h, w))
        pool = [FixationMap(points(int(rng.integers(0, 9))), (h, w))
                for _ in range(3)]
        pool.append(FixationMap(fix.points[:2] * 2, (h, w)))  # overlap, repeats
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a small pool samples with replacement
            got = auc_shuffled(pred, fix, pool, n_splits=30, rng_seed=seed)
            want = reference_auc_shuffled(pred, fix, pool, n_splits=30,
                                          rng_seed=seed)
        assert got == want

    def test_pool_emptied_by_positives_is_invalid(self):
        pred = np.random.default_rng(12).uniform(size=(4, 4))
        fix = FixationMap([(0, 0), (1, 2)], (4, 4))
        pool = self.pool((4, 4), [(1, 2), (0, 0), (1, 2)])
        assert auc_shuffled(pred, fix, pool, n_splits=5) is None
        assert reference_auc_shuffled(pred, fix, pool, n_splits=5) is None

    def test_small_pool_warns_and_samples_with_replacement(self):
        pred = np.random.default_rng(10).uniform(size=(4, 4))
        fix = FixationMap([(0, 0), (1, 1), (2, 2)], (4, 4))
        other = self.pool((4, 4), [(3, 3)])
        with pytest.warns(UserWarning, match="replacement"):
            val = auc_shuffled(pred, fix, other, n_splits=3, rng_seed=2)
        assert val is not None

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        pred = rng.uniform(size=(6, 6))
        fix = FixationMap([(0, 0), (5, 5)], (6, 6))
        other = self.pool((6, 6), [(1, 1), (2, 2), (3, 3), (4, 4), (1, 4)])
        a = auc_shuffled(pred, fix, other, n_splits=20, rng_seed=7)
        b = auc_shuffled(pred, fix, other, n_splits=20, rng_seed=7)
        assert a == b


def choice_loop(seed, n, k, n_splits):
    """The draws the sampler must reproduce: one `choice` call per split."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.choice(n, size=k, replace=False)
                     for _ in range(n_splits)])


class RejectingGenerator:
    """A generator whose block of outputs holds 0 at (0, `column`): a
    Lemire draw of range(r) rejects it whenever 2**32 % r != 0."""

    def __init__(self, rng, column):
        self.rng = rng
        self.column = column

    def integers(self, *args, **kwargs):
        block = self.rng.integers(*args, **kwargs)
        block[0, self.column] = 0
        return block


class TestChoiceRows:
    """`_choice_rows` against the loop of `Generator.choice` calls it
    replaces, array-equal; the wide sweep runs under `-m sweep`."""

    @pytest.mark.parametrize("n", [1, 2, 7, 984, 1024])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_per_split(self, n, seed):
        assert np.array_equal(_choice_rows(np.random.default_rng(seed), n, 1,
                                           100), choice_loop(seed, n, 1, 100))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33])
    @pytest.mark.parametrize("seed", range(4))
    def test_whole_pool(self, n, seed):
        # k = n: Floyd's first step has a range of one value and reads no output
        assert np.array_equal(_choice_rows(np.random.default_rng(seed), n, n,
                                           20), choice_loop(seed, n, n, 20))

    def test_rejected_output_returns_none(self):
        # n = 10, k = 3: ranges 8, 9, 10 (Floyd), 3, 2 (shuffle)
        rng = np.random.default_rng
        assert _choice_rows(RejectingGenerator(rng(0), 2), 10, 3, 5) is None
        # 2**32 % 8 == 0, so a zero output there is a valid draw of 0
        rows = _choice_rows(RejectingGenerator(rng(0), 0), 10, 3, 5)
        assert rows is not None and 0 in rows[0]

    def test_redraw_falls_back_to_the_loop(self, monkeypatch):
        pred = np.random.default_rng(20).uniform(size=(6, 6))
        fix = FixationMap([(0, 0), (1, 2), (3, 1)], (6, 6))
        pool = [FixationMap([(r, 5) for r in range(6)] + [(5, 0), (4, 4)],
                            (6, 6))]  # 8 pixels: ranges 6, 7, 8, 3, 2
        want = reference_auc_shuffled(pred, fix, pool, n_splits=40, rng_seed=9)
        seeds = []
        real = np.random.default_rng

        def default_rng(seed):
            seeds.append(seed)
            return (RejectingGenerator(real(seed), 1) if len(seeds) == 1
                    else real(seed))

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        assert auc_shuffled(pred, fix, pool, n_splits=40, rng_seed=9) == want
        assert seeds == [9, 9]

    def test_small_pool_uses_the_loop(self, monkeypatch):
        def unused(*args):
            raise AssertionError("sampler called with replacement")

        monkeypatch.setattr(metrics, "_choice_rows", unused)
        pred = np.random.default_rng(21).uniform(size=(5, 5))
        fix = FixationMap([(0, 0), (1, 1), (2, 2), (3, 3)], (5, 5))
        pool = [FixationMap([(4, 4), (0, 4)], (5, 5))]
        with pytest.warns(UserWarning, match="replacement"):
            got = auc_shuffled(pred, fix, pool, n_splits=50, rng_seed=4)
            want = reference_auc_shuffled(pred, fix, pool, n_splits=50,
                                          rng_seed=4)
        assert got == want

    def test_numpy_draws_unchanged(self):
        """The sampler rests on two facts about numpy's `Generator`; this
        names the numpy version when either stops holding."""
        words = np.random.default_rng(5).bit_generator.random_raw(6)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], 1).reshape(-1)
        block = np.random.default_rng(5).integers(0, 2**32, size=12,
                                                  dtype=np.uint32)
        assert np.array_equal(block, halves), (
            f"numpy {np.__version__}: uint32 draws are no longer the low and "
            "high halves of the PCG64 outputs; s-AUC must use rng.choice")
        assert np.array_equal(
            _choice_rows(np.random.default_rng(11), 984, 5, 100),
            choice_loop(11, 984, 5, 100)), (
            f"numpy {np.__version__}: Generator.choice no longer draws by "
            "Floyd's algorithm and a Fisher-Yates shuffle; s-AUC must use "
            "rng.choice")
        # numpy's choice runs Floyd's algorithm for every k the sampler takes
        assert _SAMPLER_MAX_K <= 10_000 // 50

    @pytest.mark.sweep
    @pytest.mark.parametrize("n, ks", [(n, range(1, n + 1)) for n in range(1, 41)]
                             + [(n, range(1, 65)) for n in (1024, 10_000, 10_001)])
    def test_matches_choice_at_every_seed(self, n, ks):
        redraws = 0
        for seed in range(200):
            for k in ks:
                rows = _choice_rows(np.random.default_rng(seed), n, k, 3)
                if rows is None:  # numpy redrew: the loop serves this case
                    redraws += 1
                    continue
                assert np.array_equal(rows, choice_loop(seed, n, k, 3)), (
                    seed, n, k)
        assert redraws <= 2, redraws


class TestScoringArguments:
    @pytest.mark.parametrize("kwargs, name", [
        ({"n_splits": 0}, "n_splits"), ({"rng_seed": -1}, "rng_seed")])
    def test_auc_shuffled_checks_up_front(self, kwargs, name):
        fix = FixationMap([(0, 0)], (4, 4))
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            auc_shuffled(np.eye(4), fix, [FixationMap([(1, 1)], (4, 4))],
                         **kwargs)

    @pytest.mark.parametrize("videos", [1, 2])
    @pytest.mark.parametrize("kwargs, name", [
        ({"n_splits": 0}, "n_splits"), ({"seed": -1}, "seed")])
    def test_evaluate_predictions_checks_up_front(self, videos, kwargs, name):
        samples = [make_video(f"v{i}", (8, 8), 2, seed=i) for i in range(videos)]
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            evaluate_predictions(samples, tied_predictions(samples, 3), **kwargs)


class TestAggregate:
    def test_single_video_constant_frames(self):
        rep = aggregate({"NSS": {"v0": [2.0, 2.0, 2.0]}})
        assert rep.dataset_means["NSS"] == 2.0

    def test_video_level_mean_not_frame_pooled(self):
        rep = aggregate({"CC": {"a": [1.0], "b": [3.0, 3.0, 3.0, 3.0]}})
        assert rep.dataset_means["CC"] == 2.0

    def test_nested_loop_oracle(self):
        rng = np.random.default_rng(12)
        per_frame = {"SIM": {f"v{i}": list(rng.uniform(size=rng.integers(2, 9)))
                             for i in range(3)}}
        rep = aggregate(per_frame)
        total = 0.0
        for frames in per_frame["SIM"].values():
            s = 0.0
            for v in frames:
                s += v
            total += s / len(frames)
        assert rep.dataset_means["SIM"] == pytest.approx(total / 3, abs=1e-12)

    def test_invalid_frames_excluded_and_counted(self):
        rep = aggregate({"NSS": {"v0": [1.0, None, 3.0]}})
        assert rep.video_means["NSS"]["v0"] == 2.0
        assert rep.valid_counts["NSS"]["v0"] == 2

    def test_all_invalid_video_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded"):
            rep = aggregate({"NSS": {"v0": [None], "v1": [4.0]}})
        assert rep.dataset_means["NSS"] == 4.0
        assert rep.video_means["NSS"]["v0"] is None

    def test_csv_round_trip(self):
        """`report_from_csv` reads back what `report_to_csv` wrote, and
        takes the dataset means from the video means as `aggregate` does.
        Frame values are quarters, so every video mean prints exactly."""
        rng = np.random.default_rng(3)
        per_frame = {m: {f"v{i}": list(rng.integers(-8, 8, 4) / 4)
                         for i in range(3)} for m in METRIC_NAMES}
        per_frame["CC"]["v1"] = [None, None]
        with pytest.warns(UserWarning, match="CC: videos with zero valid"):
            rep = aggregate(per_frame)
        back = report_from_csv(report_to_csv(rep), "r.csv")
        assert back.video_means == rep.video_means
        assert back.valid_counts == rep.valid_counts
        assert back.dataset_means == rep.dataset_means

    def test_text_survives_csv_round_trip(self):
        """A report read back from CSV has no frame values; its text still
        has a row per video, in the order they were written."""
        per_frame = {m: {v: [0.25, 0.5] for v in ("v2", "v0", "v1")}
                     for m in METRIC_NAMES}
        text = report_to_text(aggregate(per_frame))
        back = report_from_csv(report_to_csv(aggregate(per_frame)), "r.csv")
        assert report_to_text(back) == text
        assert [line.split()[0] for line in text.splitlines()[1:]] == [
            "v2", "v0", "v1", "MEAN"]


class TestComparePerVideo:
    def make(self, means):
        rep = MetricReport(per_frame={})
        rep.video_means["NSS"] = means
        return rep

    def test_identical_reports_zero(self):
        a = self.make({"v0": 1.0, "v1": 2.0})
        diffs, mean, var = compare_per_video(a, a, "NSS")
        assert all(d == 0.0 for _, d in diffs)
        assert mean == 0.0 and var == 0.0

    def test_swap_negates(self):
        a = self.make({"v0": 1.0, "v1": 2.0})
        b = self.make({"v0": 0.5, "v1": 3.0})
        d_ab = dict(compare_per_video(a, b, "NSS")[0])
        d_ba = dict(compare_per_video(b, a, "NSS")[0])
        for vid in d_ab:
            assert d_ab[vid] == -d_ba[vid]

    def test_hand_built_fixture(self):
        a = self.make({"v0": 2.0, "v1": 1.0})
        b = self.make({"v0": 1.5, "v1": 2.0})
        diffs, mean, var = compare_per_video(a, b, "NSS")
        assert dict(diffs) == {"v0": 0.5, "v1": -1.0}
        assert mean == pytest.approx(-0.25)
        assert var == pytest.approx(((0.5 + 0.25) ** 2 + (-1 + 0.25) ** 2) / 2)

    def test_no_video_valid_in_both_names_metric(self):
        a = self.make({"v0": 1.0, "v1": None})
        b = self.make({"v0": None, "v1": 2.0})
        with pytest.raises(ValueError, match="NSS: no video"):
            compare_per_video(a, b, "NSS")
        empty = MetricReport(per_frame={})  # a report.csv without NSS rows
        with pytest.raises(ValueError, match="NSS: no video"):
            compare_per_video(empty, empty, "NSS")

    def test_video_set_mismatch_rejected(self):
        a = self.make({"v0": 1.0})
        b = self.make({"v1": 1.0})
        with pytest.raises(ValueError, match="video sets"):
            compare_per_video(a, b, "NSS")


class TestFixationMap:
    def test_out_of_extent_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FixationMap([(5, 0)], (4, 4))

    def test_duplicates_permitted(self):
        fix = FixationMap([(1, 1), (1, 1)], (4, 4))
        assert len(fix.unique_indices((4, 4))) == 1

    def test_index_in_point_order_with_duplicates(self):
        fix = FixationMap([(2, 3), (0, 1), (2, 3)], (3, 5))
        assert fix.index.tolist() == [13, 1, 13]
        assert fix.index.dtype == np.int64
        assert FixationMap([], (3, 5)).index.shape == (0,)
        assert fix == FixationMap([(2, 3), (0, 1), (2, 3)], (3, 5))


def make_video(vid, extent, n_frames, seed):
    """A video with 5 random fixations per frame; frames double as gt maps."""
    rng = np.random.default_rng(seed)
    h, w = extent
    fixations = [FixationMap([(int(r), int(c)) for r, c in
                              zip(rng.integers(0, h, 5), rng.integers(0, w, 5))],
                             extent) for _ in range(n_frames)]
    maps = [rng.uniform(size=extent) for _ in range(n_frames)]
    return VideoSample(vid, frames=maps, gt_maps=maps, fixations=fixations)


def tied_predictions(samples, seed):
    rng = np.random.default_rng(seed)
    return {s.video_id: [np.round(rng.uniform(size=m.shape) * 8) / 8
                         for m in s.gt_maps] for s in samples}


class TestEvaluatePredictions:
    def test_sauc_equals_direct_call_with_every_other_frame(self):
        samples = [make_video(f"v{i}", (12, 12), 5, seed=i) for i in range(4)]
        samples[1].fixations[2] = FixationMap([], (12, 12))
        preds = tied_predictions(samples, seed=99)
        report = evaluate_predictions(samples, preds, n_splits=20, seed=3)
        for s in samples:
            pool = [f for o in samples if o.video_id != s.video_id
                    for f in o.fixations]
            for t, pred in enumerate(preds[s.video_id]):
                fix = s.fixations[t]
                want = (auc_shuffled(pred, fix, pool, n_splits=20, rng_seed=3 + t)
                        if fix.points else None)
                assert report.per_frame["s-AUC"][s.video_id][t] == want
        assert report.per_frame["s-AUC"]["v1"][2] is None

    def test_extents_differ_across_videos_rejected(self):
        samples = [make_video("small", (8, 8), 2, seed=0),
                   make_video("large", (16, 16), 2, seed=1)]
        with pytest.raises(ValueError, match="extents differ"):
            evaluate_predictions(samples, tied_predictions(samples, seed=2),
                                 n_splits=5)

    def test_single_video_has_no_sauc(self):
        samples = [make_video("only", (8, 8), 4, seed=0)]
        with pytest.warns(UserWarning, match="s-AUC: videos with zero valid"):
            report = evaluate_predictions(samples, tied_predictions(samples, 1),
                                          n_splits=5)
        assert report.per_frame["s-AUC"]["only"] == [None] * 4
        assert report.dataset_means["s-AUC"] is None
        assert report.dataset_means["NSS"] is not None

    def test_video_without_frames_accepted(self):
        samples = [make_video(f"v{i}", (8, 8), 3, seed=i) for i in range(2)]
        preds = tied_predictions(samples, seed=4)
        base = evaluate_predictions(samples, preds, n_splits=5)
        empty = VideoSample("empty", frames=[], gt_maps=[], fixations=[])
        with pytest.warns(UserWarning, match="excluded"):
            report = evaluate_predictions(samples + [empty],
                                          {**preds, "empty": []}, n_splits=5)
        for m, videos in base.per_frame.items():
            assert report.per_frame[m] == {**videos, "empty": []}
            assert report.video_means[m]["empty"] is None
            assert report.dataset_means[m] == base.dataset_means[m]

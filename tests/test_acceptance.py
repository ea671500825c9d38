"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

The trend criteria (training smoke, smoothing, alpha sweep) use a fixed
synthetic corpus: 20 videos x 40 frames at 32x32 with slow blob motion
(max_speed 0.25), which is the regime where temporal smoothing is a
reasonable prior.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from salrec import cli
from salrec.data import SynthConfig, generate, read_dataset
from salrec.gradcheck import MODULE_CHECKS, run_checks
from salrec.metrics import (FixationMap, aggregate, auc_judd, cc,
                            evaluate_predictions, nss, sim)
from salrec.model import ModelConfig, build
from salrec.recurrence import (ConvLstmState, ConvLstmWeights, EmaConfig,
                               EmaState, convlstm_step, ema_step)
from salrec.layers import ParameterRegistry
from salrec.tensor import Tensor
from salrec.training import (Adam, TrainConfig, bce_loss, load_checkpoint,
                             save_checkpoint, train)


def verdict(name: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def main_samples():
    cfg = SynthConfig(n_videos=20, frames_per_video=40, height=32, width=32,
                      max_speed=0.25, seed=0)
    return generate(cfg)


@pytest.fixture(scope="session")
def trained(main_samples):
    """EMA-at-bottleneck model after the full training protocol, plus the
    per-epoch reports and the wall-clock time the run took."""
    model = build(ModelConfig(recurrence="ema", ema_points=("bottleneck",),
                              alpha=0.1, seed=0))
    cfg = TrainConfig(lr=1e-3, epochs=7, clip_length=10, seed=0)
    start = time.monotonic()
    _, _, reports = train(model, main_samples, cfg)
    elapsed = time.monotonic() - start
    return model, reports, elapsed


@pytest.fixture(scope="session")
def noisy_samples():
    cfg = SynthConfig(n_videos=6, frames_per_video=20, height=32, width=32,
                      max_speed=0.25, noise=0.2, seed=3)
    return generate(cfg)


def dataset_nss(samples, predictions) -> float:
    per_video = []
    for s in samples:
        vals = [nss(p, f) for p, f in zip(predictions[s.video_id], s.fixations)]
        vals = [v for v in vals if v is not None]
        per_video.append(np.mean(vals))
    return float(np.mean(per_video))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_gradient_suite():
    start = time.monotonic()
    results = run_checks(list(MODULE_CHECKS), seed=0)
    elapsed = time.monotonic() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    print(f"\n  {len(results)} ops, worst rel err {worst:.2e}, {elapsed:.1f}s")
    verdict("gradient suite: all ops < 1e-4 vs finite differences, < 2 min", ok)


# ---------------------------------------------------------------------------
# criterion 2: EMA exactness


def test_ema_exactness():
    rng = np.random.default_rng(0)
    ok = True
    for alpha in (0.05, 0.1, 0.2, 0.3, 1.0):
        cfg = EmaConfig(alpha=alpha)
        frames = [Tensor(rng.uniform(-1, 1, size=(1, 1, 4, 4)))
                  for _ in range(51)]
        state = EmaState()
        for t, f in enumerate(frames):
            out, state = ema_step(f, state, cfg)
            # closed form: (1-a)^t s_0 + sum a (1-a)^(t-i) s_i
            ref = (1 - alpha) ** t * frames[0].data
            for i in range(1, t + 1):
                ref = ref + alpha * (1 - alpha) ** (t - i) * frames[i].data
            ok &= bool(np.abs(out.data - ref).max() <= 1e-10)
            if alpha == 1.0:
                ok &= np.array_equal(out.data, f.data)  # bit-exact identity
    # convexity: the output never leaves the running input envelope
    for _ in range(1000):
        alpha = rng.uniform(0.01, 1.0)
        seq = rng.uniform(-5, 5, size=(rng.integers(2, 8), 3))
        cfg = EmaConfig(alpha=float(alpha))
        state = EmaState()
        for t in range(seq.shape[0]):
            out, state = ema_step(Tensor(seq[t]), state, cfg)
            lo, hi = seq[: t + 1].min(axis=0), seq[: t + 1].max(axis=0)
            ok &= bool(np.all(out.data >= lo - 1e-12))
            ok &= bool(np.all(out.data <= hi + 1e-12))
    verdict("EMA: closed form within 1e-10 (t<=50), alpha=1 identity, "
            "convexity on 1000 sequences", ok)


# ---------------------------------------------------------------------------
# criterion 3: ConvLSTM invariants


def test_convlstm_invariants():
    registry = ParameterRegistry()
    rng = np.random.default_rng(1)
    w = ConvLstmWeights(registry, "cell", in_ch=2, channels=2, spatial=(4, 4),
                        rng=rng)
    # zero-weight fixed point: all-zero parameters freeze the state and the
    # emitted map at zero
    for name in registry.names():
        registry[name].data[...] = 0.0
    state = ConvLstmState.zeros(1, 2, 4, 4)
    out, state = convlstm_step(Tensor(rng.uniform(-1, 1, (1, 2, 4, 4))),
                               state, w)
    ok = np.array_equal(out.data, np.zeros((1, 2, 4, 4)))
    ok &= np.array_equal(state.cell.data, np.zeros((1, 2, 4, 4)))

    registry2 = ParameterRegistry()
    w2 = ConvLstmWeights(registry2, "cell", in_ch=2, channels=2,
                         spatial=(4, 4), rng=rng)
    state = ConvLstmState.zeros(1, 2, 4, 4)
    for _ in range(1000):
        prev_cell = state.cell.data.copy()
        x = Tensor(rng.uniform(-3, 3, (1, 2, 4, 4)))
        _, state = convlstm_step(x, state, w2)
        ok &= bool(np.all(np.abs(state.hidden.data) < 1.0))  # H in (-1, 1)
        ok &= bool(np.all(np.abs(state.cell.data)
                          <= np.abs(prev_cell) + 1.0 + 1e-12))
    verdict("ConvLSTM: zero-weight fixed point, gate/H ranges, "
            "bounded cell growth over 1000 steps", ok)


# ---------------------------------------------------------------------------
# criterion 4: metric oracles


def pairwise_auc(pred, fix):
    flat = pred.reshape(-1)
    mask = np.zeros(flat.size, dtype=bool)
    mask[fix.unique_indices(pred.shape)] = True
    pos, neg = flat[mask], flat[~mask]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def nss_oracle(pred, fix):
    mu = sum(pred.reshape(-1)) / pred.size
    var = sum((v - mu) ** 2 for v in pred.reshape(-1)) / pred.size
    return sum((pred[r, c] - mu) / var ** 0.5 for r, c in fix.points) / len(
        fix.points)


def cc_oracle(pred, gt):
    pm = sum(pred.reshape(-1)) / pred.size
    gm = sum(gt.reshape(-1)) / gt.size
    num = sum((p - pm) * (g - gm)
              for p, g in zip(pred.reshape(-1), gt.reshape(-1)))
    dp = sum((p - pm) ** 2 for p in pred.reshape(-1))
    dg = sum((g - gm) ** 2 for g in gt.reshape(-1))
    return num / (dp * dg) ** 0.5


def sim_oracle(pred, gt):
    ps, gs = pred.sum(), gt.sum()
    return sum(min(p / ps, g / gs)
               for p, g in zip(pred.reshape(-1), gt.reshape(-1)))


def random_fix(rng, h, w, k):
    return FixationMap([(int(rng.integers(h)), int(rng.integers(w)))
                        for _ in range(k)], (h, w))


def test_metric_oracles():
    rng = np.random.default_rng(2)
    ok = True
    for i in range(200):
        h, w = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        pred = rng.uniform(size=(h, w))
        if i % 3 == 0:
            pred = np.round(pred, 1)  # force score ties
        fix = random_fix(rng, h, w, int(rng.integers(1, 6)))
        if len(fix.unique_indices((h, w))) == h * w:
            continue
        ok &= abs(auc_judd(pred, fix) - pairwise_auc(pred, fix)) <= 1e-9
        gt = rng.uniform(0.01, 1.0, size=(h, w))
        ok &= abs(nss(pred, fix) - nss_oracle(pred, fix)) <= 1e-12
        ok &= abs(cc(pred, gt) - cc_oracle(pred, gt)) <= 1e-12
        ok &= abs(sim(pred, gt) - sim_oracle(pred, gt)) <= 1e-12

    # aggregation vs nested loops
    per_frame = {"NSS": {"a": [1.0, None, 3.0], "b": [2.0, 4.0]}}
    rep = aggregate(per_frame)
    ok &= rep.video_means["NSS"]["a"] == (1.0 + 3.0) / 2
    ok &= rep.dataset_means["NSS"] == ((1.0 + 3.0) / 2 + 3.0) / 2

    # invariances
    for _ in range(50):
        pred = rng.uniform(size=(8, 8))
        gt = rng.uniform(0.01, 1.0, size=(8, 8))
        fix = random_fix(rng, 8, 8, 4)
        ok &= abs(nss(pred, fix) - nss(3.0 * pred + 2.0, fix)) <= 1e-10
        ok &= abs(auc_judd(pred, fix) - auc_judd(np.exp(pred), fix)) <= 1e-10
        ok &= abs(sim(pred, gt) - sim(5.0 * pred, gt)) <= 1e-10
        ok &= abs(cc(pred, gt) - cc(5.0 * pred, gt)) <= 1e-10
    verdict("metrics: AUC pairwise 1e-9 x200, NSS/CC/SIM loop oracles 1e-12, "
            "aggregation, invariances", ok)


# ---------------------------------------------------------------------------
# criterion 5: BCE anchors


def test_bce_anchors():
    half = Tensor(np.full((1, 1, 4, 4), 0.5))
    ok = abs(bce_loss(half, half).data.item() - np.log(2.0)) <= 1e-12
    perfect = Tensor(np.array([[[[0.0, 1.0], [1.0, 0.0]]]]))
    ok &= bce_loss(perfect, perfect).data.item() < 1e-6
    verdict("BCE: ln 2 at P=Q=0.5 within 1e-12, perfect prediction < 1e-6", ok)


# ---------------------------------------------------------------------------
# criterion 6: training smoke


def center_prior(h, w):
    rr, cc_ = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    d2 = (rr - (h - 1) / 2) ** 2 + (cc_ - (w - 1) / 2) ** 2
    return np.exp(-d2 / (2 * (h / 4) ** 2))


def test_training_smoke(main_samples, trained):
    model, reports, elapsed = trained
    initial, final = reports[0].mean_loss, reports[-1].mean_loss
    preds = {s.video_id: model.predict_sequence(s.frames)
             for s in main_samples}
    model_nss = dataset_nss(main_samples, preds)
    prior = center_prior(32, 32)
    prior_preds = {s.video_id: [prior] * len(s.frames) for s in main_samples}
    prior_nss = dataset_nss(main_samples, prior_preds)
    ok = final <= 0.7 * initial and model_nss > prior_nss and elapsed < 600.0
    print(f"\n  BCE {initial:.4f} -> {final:.4f} "
          f"(ratio {final / initial:.3f}), NSS {model_nss:.3f} vs center "
          f"prior {prior_nss:.3f}, {elapsed:.0f}s")
    verdict("training smoke: BCE drops below 0.7x, NSS beats center prior, "
            "< 10 min", ok)


# ---------------------------------------------------------------------------
# criterion 7: smoothing trend on noisy videos


def temporal_variation(maps):
    return float(np.mean([np.abs(a - b).mean()
                          for a, b in zip(maps[1:], maps[:-1])]))


def test_smoothing_trend(noisy_samples, trained):
    model, _, _ = trained
    tv = {}
    nss_at = {}
    for alpha in (0.1, 1.0):
        preds = {s.video_id: model.predict_sequence(s.frames,
                                                    alpha_override=alpha)
                 for s in noisy_samples}
        tv[alpha] = float(np.mean([temporal_variation(preds[s.video_id])
                                   for s in noisy_samples]))
        nss_at[alpha] = dataset_nss(noisy_samples, preds)
    ok = tv[0.1] < tv[1.0] and nss_at[0.1] >= nss_at[1.0] - 0.05
    print(f"\n  tv(0.1)={tv[0.1]:.5f} < tv(1.0)={tv[1.0]:.5f}; "
          f"NSS(0.1)={nss_at[0.1]:.4f} vs NSS(1.0)={nss_at[1.0]:.4f}")
    verdict("smoothing trend: EMA lowers temporal variation without "
            "sacrificing NSS (tolerance 0.05)", ok)


# ---------------------------------------------------------------------------
# criterion 8: alpha-sweep flatness


def test_alpha_sweep_flatness(main_samples, trained):
    model, _, _ = trained
    scores = []
    for alpha in (0.05, 0.1, 0.2, 0.3):
        preds = {s.video_id: model.predict_sequence(s.frames,
                                                    alpha_override=alpha)
                 for s in main_samples}
        scores.append(dataset_nss(main_samples, preds))
    spread = max(scores) - min(scores)
    print(f"\n  NSS over alpha grid: "
          + ", ".join(f"{v:.4f}" for v in scores) + f"; spread {spread:.4f}")
    verdict("alpha sweep: dataset NSS spread < 0.2 across alpha in "
            "[0.05, 0.3]", spread < 0.2)


# ---------------------------------------------------------------------------
# criterion 9: end-to-end determinism


def run_pipeline(base: Path) -> tuple[str, str]:
    ds = base / "ds"
    run = base / "run"
    ev = base / "eval"
    assert cli.main(["synth", str(ds), "--videos", "4", "--frames", "8",
                     "--size", "16", "--seed", "0"]) == 0
    assert cli.main(["train", str(ds), str(run), "--recurrence", "ema",
                     "--alpha", "0.1", "--epochs", "2", "--seed", "0"]) == 0
    assert cli.main(["eval", str(ds), str(ev), "--checkpoint",
                     str(run / "checkpoint_final.salr"),
                     "--n-splits", "5", "--seed", "0"]) == 0
    ckpt = hashlib.sha256(
        (run / "checkpoint_final.salr").read_bytes()).hexdigest()
    return ckpt, (ev / "report.csv").read_text()


def test_determinism(tmp_path):
    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    ok = a[0] == b[0] and a[1] == b[1]
    print(f"\n  checkpoint sha256 {a[0][:16]}..., reports "
          f"{'identical' if a[1] == b[1] else 'DIFFER'}")
    verdict("determinism: identical checkpoint hashes and metric reports "
            "across reruns", ok)


# ---------------------------------------------------------------------------
# criterion 10: checkpoint round-trip and resume equality


def test_checkpoint_roundtrip_and_resume(tmp_path):
    cfg = SynthConfig(n_videos=3, frames_per_video=6, height=16, width=16,
                      seed=9)
    samples = generate(cfg)
    tc1 = TrainConfig(epochs=1, clip_length=3, seed=0)

    # straight-through reference: two epochs in one process
    ref = build(ModelConfig(input_size=(16, 16), recurrence="ema",
                            alpha=0.1, seed=0))
    tc2 = TrainConfig(epochs=2, clip_length=3, seed=0)
    train(ref, samples, tc2)

    # one epoch, save, reload, one more epoch
    model = build(ModelConfig(input_size=(16, 16), recurrence="ema",
                              alpha=0.1, seed=0))
    optimizer, rng, _ = train(model, samples, tc1)
    ck = tmp_path / "mid.salr"
    save_checkpoint(ck, model, optimizer, rng, 1, tc1)
    loaded, opt2, rng2, epoch, _ = load_checkpoint(ck)

    # byte-exact round trip
    again = tmp_path / "again.salr"
    save_checkpoint(again, loaded, opt2, rng2, epoch, tc1)
    ok = ck.read_bytes() == again.read_bytes()

    train(loaded, samples, tc2, optimizer=opt2, rng=rng2, start_epoch=epoch)
    for name in ref.registry.names():
        ok &= np.array_equal(ref.registry[name].data,
                             loaded.registry[name].data)
    verdict("checkpoint: byte-exact round trip and bit-exact resume", ok)

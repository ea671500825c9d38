import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from salrec import cli
from salrec.data import (SynthConfig, generate, load_predictions,
                         read_dataset, write_dataset, write_predictions)
from salrec.gradcheck import GradCheckResult
from salrec.model import Model, ModelConfig, build
from salrec.training import (Adam, TrainConfig, load_checkpoint,
                             save_checkpoint)


def run(*argv):
    return cli.main([str(a) for a in argv])


def edit_header(ckpt: Path, edit) -> None:
    """Apply `edit` to a checkpoint's JSON header and write the file back."""
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new
                     + raw[12 + hlen:])


def run_capped(*argv) -> subprocess.CompletedProcess:
    """`salrec` with argv in a child process whose address space is capped
    at 2 GiB, so the cap binds the child alone and a huge request fails at
    once there."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from salrec import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", child, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(src),
             "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=60)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    assert run("synth", root, "--videos", 3, "--frames", 6, "--size", 16,
               "--seed", 0) == 0
    return root


class TestSynth:
    def test_counts_and_config_json(self, small_ds):
        samples = read_dataset(small_ds)
        assert len(samples) == 3
        assert all(len(s.frames) == 6 for s in samples)
        resolved = json.loads((small_ds / "config.json").read_text())
        assert resolved["synth"]["n_videos"] == 3
        assert resolved["synth"]["height"] == 16

    def test_rerun_identical_tree(self, small_ds, tmp_path):
        other = tmp_path / "ds"
        assert run("synth", other, "--videos", 3, "--frames", 6, "--size", 16,
                   "--seed", 0) == 0
        assert tree_digest(other) == tree_digest(small_ds)

    def test_odd_size_is_fine_for_synth(self, tmp_path):
        assert run("synth", tmp_path / "odd", "--videos", 1, "--frames", 2,
                   "--size", 33) == 0

    @pytest.mark.parametrize("flag", ["--videos", "--frames"])
    def test_empty_dataset_rejected(self, tmp_path, flag):
        out = tmp_path / "ds"
        assert run("synth", out, flag, 0, "--size", 16) == 1
        assert not out.exists()

    def test_size_five_is_smallest(self, tmp_path):
        assert run("synth", tmp_path / "ds", "--videos", 1, "--frames", 2,
                   "--size", 5) == 0

    @pytest.mark.parametrize("flags, ini", [
        (["--size", 4], ""), ([], "noise = -1"), ([], "noise = nan"),
        ([], "sigma = nan"), ([], "fixations_per_frame = -1"),
        (["--speed", "inf"], ""), (["--speed", "1e300"], ""),
        ([], "sigma = 0.001")],
        ids=["size-4", "noise-negative", "noise-nan", "sigma-nan",
             "fixations-negative", "speed-inf", "speed-huge", "sigma-tiny"])
    def test_settings_numpy_rejects_exit_1(self, tmp_path, flags, ini):
        cfg = tmp_path / "synth.ini"
        cfg.write_text(f"[synth]\n{ini}\n")
        out = tmp_path / "ds"
        assert run("synth", out, "--videos", 1, "--frames", 2, "--config", cfg,
                   *flags) == 1
        assert not out.exists()


class TestTrain:
    def test_odd_size_rejected_as_config_error(self, tmp_path):
        odd = tmp_path / "odd"
        run("synth", odd, "--videos", 1, "--frames", 2, "--size", 33)
        assert run("train", odd, tmp_path / "run", "--epochs", 1) == 1

    @pytest.mark.parametrize("kind", ["convlstm", "none"])
    def test_convlstm_refuses_ema_at(self, small_ds, tmp_path, kind):
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--recurrence", kind,
                   "--ema-at", "output", "--epochs", 1) == 1
        assert not out.exists()

    def test_last_encoder_stage_is_the_bottleneck(self, small_ds, tmp_path):
        """At three stages `encoder3` is the bottleneck's activation: paired
        with `bottleneck` it is a duplicate, alone it trains and is recorded
        as `bottleneck`."""
        out, other = tmp_path / "run", tmp_path / "other"
        argv = ("--recurrence", "ema", "--dropout", "--epochs", 1)
        assert run("train", small_ds, out, "--ema-at", "encoder3,bottleneck",
                   *argv) == 1
        assert not out.exists()
        assert run("train", small_ds, out, "--ema-at", "encoder3", *argv) == 0
        assert run("train", small_ds, other, "--ema-at", "bottleneck",
                   *argv) == 0
        cfg = json.loads((out / "config.json").read_text())["model"]
        assert cfg["ema_points"] == ["bottleneck"] and cfg["alpha"] == 0.1
        assert ((out / "checkpoint_final.salr").read_bytes()
                == (other / "checkpoint_final.salr").read_bytes())

    def test_trainable_alpha_refuses_alpha(self, small_ds, tmp_path):
        """The trainable alpha starts at sigmoid(0) = 0.5 and never reads
        `alpha`; a run records 0.1 for it, even with two EMA points."""
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--recurrence", "ema-trainable",
                   "--alpha", 5, "--epochs", 1) == 1
        assert not out.exists()
        assert run("train", small_ds, out, "--recurrence", "ema-trainable",
                   "--ema-at", "encoder1,bottleneck", "--epochs", 1) == 0
        assert json.loads((out / "config.json").read_text())["model"]["alpha"] == 0.1
        model, *_ = load_checkpoint(out / "checkpoint_final.salr")
        assert model.cfg.alpha == 0.1

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run("train", tmp_path / "nope", tmp_path / "run") == 2

    def test_unknown_config_key_exits_1(self, small_ds, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        # the last two were settings once; they are constants now
        for text in ("[train]\nlearning_rate = 0.1\n",
                     "[model]\nper_channel_peephole = true\n",
                     "[train]\nalpha_lr = 0.2\n"):
            cfg.write_text(text)
            assert run("train", small_ds, tmp_path / "run", "--config", cfg) == 1
            assert "unknown key" in capsys.readouterr().err, text

    def test_zero_epochs_exits_1(self, small_ds, tmp_path):
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--epochs", 0) == 1
        # checked before the (here missing) dataset is read
        assert run("train", tmp_path / "missing", out, "--epochs", 0) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--recurrence", "ema", "--alpha", 0],
        ["--recurrence", "ema", "--alpha", 1.5],
        ["--recurrence", "ema", "--alpha", "nan"],
        ["--recurrence", "ema-residual", "--alpha", 0],
        ["--recurrence", "ema-residual", "--alpha", "nan"],
        ["--recurrence", "convlstm", "--alpha", 0.3],
        ["--base-channels", 0], ["--lr", "nan"], ["--lr", "inf"]],
        ids=["alpha-0", "alpha-1.5", "alpha-nan", "residual-alpha-0",
             "residual-alpha-nan", "convlstm-alpha", "base-channels-0",
             "lr-nan", "lr-inf"])
    def test_settings_build_or_training_rejects_exit_1(self, small_ds, tmp_path,
                                                        flags):
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--epochs", 1, *flags) == 1
        # checked before the (here missing) dataset is read
        assert run("train", tmp_path / "missing", out, "--epochs", 1,
                   *flags) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--stages", 10 ** 12], "not divisible by 2^1000000000000"),
        (["--stages", 2, "--base-channels", 10 ** 11],
         "stages=2 and base_channels=100000000000 cannot be allocated: "
         "Unable to allocate 6.55 TiB"),
        (["--stages", 2, "--base-channels", 10 ** 19],
         "base_channels=10000000000000000000 cannot be allocated")],
        ids=["stages", "base-channels", "base-channels-past-int64"])
    def test_too_large_for_memory_exits_1(self, small_ds, tmp_path, flags,
                                          message):
        """Settings that would need more memory than there is exit 1 and
        write nothing: 2^stages is never built, and a model whose arrays
        cannot be allocated (a 6.55 TiB kernel, or a dimension past numpy's
        int64 limit) is a config error. Run under a capped address
        space."""
        out = tmp_path / "run"
        proc = run_capped("train", small_ds, out, "--epochs", 1, *flags)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("kind, code", [
        ("ema", 1), ("ema-trainable", 1), ("ema-residual", 0)])
    def test_dropout_before_output_ema(self, small_ds, tmp_path, kind, code):
        # dropout doubles kept values, so it may push a post-sigmoid map
        # past 1; the residual output EMA sits before the sigmoid
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--recurrence", kind, "--ema-at",
                   "output", "--dropout", "--epochs", 1) == code
        assert out.exists() == (code == 0)

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        (root / "manifest.json").write_text('{"version": 2, "videos": []}\n')
        assert run("train", root, tmp_path / "run") == 2
        assert "no videos" in capsys.readouterr().err

    def test_zero_frame_video_exits_2(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert run("synth", root, "--videos", 2, "--frames", 2, "--size", 16) == 0
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["videos"][0]["frames"] = 0
        (root / "manifest.json").write_text(json.dumps(manifest))
        assert run("train", root, tmp_path / "run", "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert "video000" in err and "manifest.json" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_repeated_video_id_exits_2(self, tmp_path, capsys, command):
        root = tmp_path / "ds"
        assert run("synth", root, "--videos", 3, "--frames", 2, "--size", 16) == 0
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["videos"][2]["video_id"] = "video001"
        (root / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        extra = ["--epochs", 1] if command == "train" else ["--pred-dir", root]
        assert run(command, root, out, *extra) == 2
        err = capsys.readouterr().err
        assert "manifest.json: video_id 'video001' repeats" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (b'{"version": 1, "videos": [}', "not JSON"),
        (b'{"version": 1, "videos": ["\xff"]}', "not UTF-8 text"),
        (b"[" * 100_000, "not JSON")],
        ids=["not-json", "not-utf8", "nested-too-deep"])
    def test_unreadable_manifest_exits_2(self, tmp_path, capsys, text,
                                         message):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "manifest.json").write_bytes(text)
        assert run("train", root, tmp_path / "run") == 2
        assert f"error: {root / 'manifest.json'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["1 2 3", "a b", "7", "99 1", "1 -1"])
    def test_malformed_fixation_line_named(self, tmp_path, capsys, line):
        root = tmp_path / "ds"
        assert run("synth", root, "--videos", 1, "--frames", 2, "--size", 16) == 0
        fix = root / "video000" / "fix" / "0001.txt"
        fix.write_text(f"0 0\n\n{line}\n")
        assert run("train", root, tmp_path / "run", "--epochs", 1) == 2
        assert f"error: {fix}:3: " in capsys.readouterr().err

    def test_binary_fixation_file_named(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert run("synth", root, "--videos", 1, "--frames", 2, "--size", 16) == 0
        fix = root / "video000" / "fix" / "0001.txt"
        fix.write_bytes(b"\xff\xfe 1 2\n")
        assert run("train", root, tmp_path / "run", "--epochs", 1) == 2
        assert f"error: {fix}: not UTF-8 text" in capsys.readouterr().err

    def test_manifest_path_out_of_dataset_exits_2(self, tmp_path, capsys):
        """A video's folder is its video_id. A `path` entry, which the first
        manifest version had and which joined the root unchecked, is
        rejected before anything is written: "../b/video000" once trained
        on another dataset's frames and exited 0."""
        a, b, out = tmp_path / "a", tmp_path / "b", tmp_path / "out"
        for root in (a, b):
            assert run("synth", root, "--videos", 1, "--frames", 3,
                       "--size", 16) == 0
        shutil.rmtree(a / "video000")
        manifest = json.loads((a / "manifest.json").read_text())
        manifest["videos"][0]["path"] = "../b/video000"
        (a / "manifest.json").write_text(json.dumps(manifest))
        assert run("train", a, out, "--epochs", 1, "--stages", 2) == 2
        assert f"error: {a / 'manifest.json'}: " in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_frame_sizes_exit_2_before_writing(self, tmp_path, capsys):
        root, out = tmp_path / "ds", tmp_path / "run"
        big, small = (generate(SynthConfig(n_videos=1, frames_per_video=2,
                                           height=n, width=n))[0]
                      for n in (16, 8))
        write_dataset([big, replace(small, video_id="small")], root)
        assert run("train", root, out, "--epochs", 1) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_one_matches_stateless_loss_log(self, small_ds, tmp_path):
        # with alpha=1 the EMA insert is an exact identity, so both runs see
        # the same losses step for step
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", small_ds, a, "--recurrence", "none",
                   "--epochs", 2, "--seed", 0) == 0
        assert run("train", small_ds, b, "--recurrence", "ema",
                   "--alpha", 1.0, "--epochs", 2, "--seed", 0) == 0
        assert (a / "loss_log.txt").read_text() == (b / "loss_log.txt").read_text()

    def test_outputs_present(self, small_ds, tmp_path):
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--recurrence", "ema",
                   "--epochs", 2, "--clip-length", 3) == 0
        assert (out / "config.json").exists()
        assert (out / "checkpoint_epoch01.salr").exists()
        assert (out / "checkpoint_final.salr").exists()
        lines = (out / "loss_log.txt").read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("epoch 1 mean_bce ")

    def test_non_finite_parameter_exits_3(self, small_ds, tmp_path,
                                          monkeypatch, capsys):
        def poisoned(cfg):
            model = build(cfg)
            model.registry["head.bias"].data[0] = np.nan
            return model

        monkeypatch.setattr(cli, "build", poisoned)
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--epochs", 1) == 3
        err = capsys.readouterr().err
        assert re.search(r"video 'video00\d', frames 0-5, epoch 1$", err.strip())
        assert not list(out.glob("*.salr"))


class TestEval:
    def test_gt_as_predictions_scores_high(self, small_ds, tmp_path):
        samples = read_dataset(small_ds)
        pred_dir = tmp_path / "preds"
        write_predictions({s.video_id: s.gt_maps for s in samples}, pred_dir)
        out = tmp_path / "eval"
        assert run("eval", small_ds, out, "--pred-dir", pred_dir,
                   "--n-splits", 5) == 0
        report = cli.read_report_csv(out / "report.csv")
        assert report.dataset_means["CC"] > 0.99
        assert report.dataset_means["SIM"] > 0.99
        assert (out / "report.txt").exists()

    def test_dumped_maps_reload(self, small_ds, tmp_path):
        """`--dump-maps` writes the predictions as 8-bit PGMs, and they
        score as a `--pred-dir`."""
        samples = read_dataset(small_ds)
        model = build(ModelConfig(input_size=(16, 16), recurrence="ema"))
        ckpt = tmp_path / "init.salr"
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        out = tmp_path / "eval"
        assert run("eval", small_ds, out, "--checkpoint", ckpt, "--dump-maps",
                   "--n-splits", 3) == 0
        assert run("eval", small_ds, tmp_path / "reloaded", "--pred-dir",
                   out / "maps", "--n-splits", 3) == 0
        dumped = load_predictions(out / "maps", samples)
        for s in samples:
            want = np.floor(np.stack(model.predict_sequence(s.frames)) * 255
                            + 0.5) / 255
            assert np.array_equal(np.stack(dumped[s.video_id]), want)

    @pytest.mark.parametrize("video_id", ["../../escaped", "..", ".", "",
                                          "a/b", "a\0b"])
    def test_video_id_not_a_directory_name_exits_2(self, tmp_path, capsys,
                                                   video_id):
        """A video_id names the directory of its maps under `<out>/maps` and
        `--pred-dir`; one that is not a single name is rejected before any
        map is written (`../../escaped` once wrote two levels up)."""
        root = tmp_path / "data" / "ds"
        assert run("synth", root, "--videos", 1, "--frames", 3, "--size", 16) == 0
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["videos"][0]["video_id"] = video_id
        (root / "manifest.json").write_text(json.dumps(manifest))
        model = build(ModelConfig(input_size=(16, 16)))
        ckpt = tmp_path / "init.salr"
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        out = tmp_path / "data" / "run"
        assert run("eval", root, out, "--checkpoint", ckpt, "--dump-maps",
                   "--n-splits", 3) == 2
        assert (f"{root / 'manifest.json'}: video_id {video_id!r} is not a "
                f"directory name") in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*.pgm") if root not in p.parents]

    def test_requires_exactly_one_source(self, small_ds, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("eval", small_ds, out) == 1
        # checked before the dataset is read: a missing one once exited 2
        for sources in ([], ["--checkpoint", "c.salr", "--pred-dir", "maps"]):
            assert run("eval", tmp_path / "missing", out, *sources) == 1
            assert "--checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_n_splits_below_one_exits_1(self, tmp_path, capsys):
        # checked before the (here missing) dataset is read
        for n in (0, -3):
            assert run("eval", tmp_path / "missing", tmp_path / "o",
                       "--pred-dir", tmp_path, "--n-splits", n) == 1
            assert "--n-splits" in capsys.readouterr().err

    def test_malformed_checkpoint_header_exits_2(self, small_ds, tmp_path,
                                                 capsys):
        ckpt = tmp_path / "bad.salr"
        model = build(ModelConfig(input_size=(16, 16)))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        raw = ckpt.read_bytes()
        # `"train": null` once loaded, as no settings
        for edit in (lambda h: h["model"].update(frame_rate=25),
                     lambda h: h.update(train=None)):
            ckpt.write_bytes(raw)
            edit_header(ckpt, edit)
            assert run("eval", small_ds, tmp_path / "e", "--checkpoint",
                       ckpt) == 2
            assert (f"error: {ckpt}: malformed checkpoint header"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("state", [[1, 2], {"bit_generator": "PCG64"}],
                             ids=["list", "no-state"])
    def test_malformed_rng_state_exits_2(self, small_ds, tmp_path, capsys,
                                         state):
        ckpt = tmp_path / "rng.salr"
        model = build(ModelConfig(input_size=(16, 16)))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        edit_header(ckpt, lambda h: h.update(rng=state))
        assert run("eval", small_ds, tmp_path / "e", "--checkpoint", ckpt) == 2
        assert (f"error: {ckpt}: malformed checkpoint header"
                in capsys.readouterr().err)

    def test_checkpoint_header_missing_field_exits_2(self, small_ds, tmp_path,
                                                     capsys):
        ckpt = tmp_path / "no-alpha.salr"
        model = build(ModelConfig(input_size=(16, 16), recurrence="ema",
                                  alpha=0.4))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        # would load as the default 0.1
        edit_header(ckpt, lambda h: h["model"].pop("alpha"))
        assert run("eval", small_ds, tmp_path / "e", "--checkpoint", ckpt) == 2
        err = capsys.readouterr().err
        assert f"error: {ckpt}: malformed checkpoint header" in err
        assert "lacks alpha" in err

    @pytest.mark.parametrize("setting", [
        dict(dropout=True), dict(alpha=-3.0),
        dict(ema_points=["output", "output", "decoder1"])],
        ids=["dropout", "alpha", "three-points"])
    def test_header_settings_train_rejects_exit_2(self, small_ds, tmp_path,
                                                  capsys, setting):
        """A `none` model's header holding a setting `salrec train`
        rejects as a flag is malformed too."""
        ckpt = tmp_path / "none.salr"
        model = build(ModelConfig(input_size=(16, 16)))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        edit_header(ckpt, lambda h: h["model"].update(setting))
        assert run("eval", small_ds, tmp_path / "e", "--checkpoint", ckpt) == 2
        assert (f"error: {ckpt}: malformed checkpoint header"
                in capsys.readouterr().err)
        assert not (tmp_path / "e").exists()

    def test_header_too_large_to_allocate_exits_2(self, small_ds, tmp_path):
        """A header whose model cannot be allocated is a malformed
        checkpoint: exit 2 naming the file, not a traceback. The address
        space is capped inside a child process, so the cap binds it alone."""
        ckpt = tmp_path / "huge.salr"
        model = build(ModelConfig(input_size=(16, 16)))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        # enc2's kernel alone would be (2e6, 1e6, 3, 3): 131 TiB
        edit_header(ckpt, lambda h: h["model"].update(base_channels=10 ** 6))
        proc = run_capped("eval", small_ds, tmp_path / "e", "--checkpoint",
                          ckpt)
        assert proc.returncode == 2, proc.stderr
        assert (f"error: {ckpt}: malformed checkpoint header (MemoryError"
                in proc.stderr)
        assert "Traceback" not in proc.stderr

    def test_checkpoint_dataset_size_mismatch(self, small_ds, tmp_path):
        out = tmp_path / "run"
        run("train", small_ds, out, "--epochs", 1)
        wrong = tmp_path / "wrong"
        run("synth", wrong, "--videos", 1, "--frames", 2, "--size", 32)
        assert run("eval", wrong, tmp_path / "e", "--checkpoint",
                   out / "checkpoint_final.salr") == 2


    def test_corrupt_blob_dims_exit_2(self, small_ds, tmp_path, capsys):
        """Four dims of 0x7FFF once made the reader ask for 9.2e18 bytes: an
        uncaught MemoryError and a traceback."""
        ckpt = tmp_path / "dims.salr"
        model = build(ModelConfig(input_size=(16, 16)))
        save_checkpoint(ckpt, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())

        def oversize(header):
            assert header["arrays"][0][0] == "enc1.kernel"
            header["arrays"][0][1] = [0x7FFF] * 4

        edit_header(ckpt, oversize)
        assert run("eval", small_ds, tmp_path / "e", "--checkpoint", ckpt) == 2
        assert (f"error: {ckpt}: array index entry 0 (name, shape) is "
                "['enc1.kernel', [32767, " in capsys.readouterr().err)

    def test_map_guard_failure_exits_3(self, small_ds, tmp_path, monkeypatch,
                                       capsys):
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--epochs", 1) == 0

        def broken(self, *args, **kwargs):
            raise RuntimeError("saliency map left [0, 1] or went non-finite")

        monkeypatch.setattr(Model, "forward_frame", broken)
        assert run("eval", small_ds, tmp_path / "e", "--checkpoint",
                   out / "checkpoint_final.salr") == 3
        assert "error: saliency map left [0, 1]" in capsys.readouterr().err


# INI settings that keep the runs of the field test small
INI_BASE = {"synth": {"n_videos": "1", "frames_per_video": "2",
                      "height": "8", "width": "8"},
            "model": {}, "train": {"epochs": "1"}}
# (section, field) -> (a valid non-default INI value, the value config.json
# records, None where the command exits 1, and the settings under which
# the field applies)
INI_FIELDS = {
    ("synth", "n_videos"): ("2", 2, {}),
    ("synth", "frames_per_video"): ("3", 3, {}),
    ("synth", "height"): ("9", 9, {}),
    ("synth", "width"): ("7", 7, {}),
    ("synth", "n_blobs"): ("1", 1, {}),
    ("synth", "sigma"): ("2.5", 2.5, {}),
    ("synth", "max_speed"): ("0.5", 0.5, {}),
    ("synth", "noise"): ("0.1", 0.1, {}),
    ("synth", "fixations_per_frame"): ("3", 3, {}),
    ("synth", "seed"): ("4", 4, {}),
    ("model", "input_size"): ("16,16", None, {}),  # the dataset's frame size
    ("model", "stages"): ("2", 2, {}),
    ("model", "base_channels"): ("4", 4, {}),
    ("model", "recurrence"): ("convlstm", "convlstm", {}),
    ("model", "ema_points"): ("decoder1", ["decoder1"], {"recurrence": "ema"}),
    ("model", "alpha"): ("0.4", 0.4, {"recurrence": "ema"}),
    ("model", "dropout"): ("true", True, {"recurrence": "ema"}),
    ("model", "seed"): ("3", 3, {}),
    ("train", "clip_length"): ("3", 3, {}),
    ("train", "epochs"): ("1", 1, {}),
    ("train", "lr"): ("0.01", 0.01, {}),
    ("train", "augment"): ("true", True, {}),
    ("train", "seed"): ("5", 5, {}),
}


class TestConfigPrecedence:
    """Command-line flags > INI file values > defaults."""

    def resolved(self, run_dir):
        return json.loads((run_dir / "config.json").read_text())

    def test_ini_values_beat_defaults(self, small_ds, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nrecurrence = ema\nalpha = 0.2\n\n"
                       "[train]\nseed = 5\n")
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1) == 0
        cfg = self.resolved(out)
        assert cfg["model"]["recurrence"] == "ema"
        assert cfg["model"]["alpha"] == 0.2
        assert cfg["train"]["seed"] == 5

    def test_flags_beat_ini_values(self, small_ds, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nrecurrence = ema\nalpha = 0.2\n"
                       "ema_points = output\n\n[train]\nseed = 5\n")
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1,
                   "--alpha", 0.4, "--ema-at", "bottleneck", "--seed", 3) == 0
        cfg = self.resolved(out)
        assert cfg["model"]["recurrence"] == "ema"
        assert cfg["model"]["alpha"] == 0.4
        assert cfg["model"]["ema_points"] == ["bottleneck"]
        assert cfg["model"]["seed"] == 3
        assert cfg["train"]["seed"] == 3

    def test_alpha_checked_against_ini_recurrence(self, small_ds, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nrecurrence = convlstm\n")
        assert run("train", small_ds, tmp_path / "run", "--config", ini,
                   "--alpha", 0.2, "--epochs", 1) == 1

    @pytest.mark.parametrize("text, flags", [
        ("recurrence = ema-trainable\nalpha = 0.5", []),
        ("recurrence = convlstm\nalpha = 0.7", []),
        ("ema_points = output", []),
        ("recurrence = ema\nalpha = 0.5", ["--recurrence", "convlstm"]),
        ("recurrence = ema\nema_points = output", ["--recurrence", "none"]),
        ("dropout = true", []),
        ("recurrence = none", ["--dropout"])],
        ids=["alpha-trainable", "alpha-convlstm", "points-none",
             "alpha-flag-convlstm", "points-flag-none", "dropout-none",
             "dropout-flag-none"])
    def test_ini_value_checked_against_recurrence(self, small_ds, tmp_path,
                                                  capsys, text, flags):
        # these were once accepted and recorded, or dropped for alpha 0.1
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\n{text}\n")
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1,
                   *flags) == 1
        assert "does not apply to recurrence" in capsys.readouterr().err
        assert not out.exists()

    def test_false_dropout_applies_to_none(self, small_ds, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\ndropout = false\n")
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1) == 0
        assert json.loads((out / "config.json").read_text())["model"][
            "dropout"] is False

    @pytest.mark.parametrize("text", [
        b"[model]\nstages = x\n", b"[model]\nema_points = 1\n",
        b"[train]\nlr = fast\n", b"[model]\ndropout = maybe\n",
        b"alpha = 0.2\n", b"[train]\nseed = \xff\n", b"[eval]\nseed = 1\n",
        None, b"[model]\ninput_size = 64,64\n"],
        ids=["stages", "ema_points", "lr", "dropout", "no-section", "not-utf8",
             "unknown-section", "missing-file", "input_size"])
    def test_malformed_ini_exits_1(self, small_ds, tmp_path, text):
        ini = tmp_path / "run.ini"
        if text is not None:  # None: there is no such file
            ini.write_bytes(text)
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1) == 1
        assert not out.exists()

    def test_ini_booleans_recorded_without_flags(self, small_ds, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nrecurrence = ema\ndropout = yes\n\n"
                       "[train]\naugment = on\n")
        out = tmp_path / "run"
        assert run("train", small_ds, out, "--config", ini, "--epochs", 1) == 0
        cfg = self.resolved(out)
        assert cfg["model"]["dropout"] is True
        assert cfg["train"]["augment"] is True

    @pytest.mark.parametrize("section", ["synth", "model", "train"])
    def test_negative_ini_seed_exits_1(self, small_ds, tmp_path, capsys,
                                       section):
        # numpy's rejection once exited 2, after config.json was written
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\nseed = -2\n")
        out = tmp_path / "run"
        argv = (["synth", out, "--videos", 1] if section == "synth"
                else ["train", small_ds, out, "--epochs", 1])
        assert run(*argv, "--config", ini) == 1
        assert "seed must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, field", [
        (section, f.name) for section, cls in (
            ("synth", SynthConfig), ("model", ModelConfig),
            ("train", TrainConfig)) for f in fields(cls)])
    def test_every_ini_field_is_recorded_or_rejected(self, small_ds, tmp_path,
                                                     section, field):
        """Each config field set in an INI file reaches config.json, or the
        command exits 1; a new field needs a row in `INI_FIELDS`."""
        value, recorded, applies = INI_FIELDS[section, field]
        sections = {name: dict(keys) for name, keys in INI_BASE.items()}
        sections[section].update(applies, **{field: value})
        ini = tmp_path / "run.ini"
        ini.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()))
        out = tmp_path / "out"
        argv = ["synth", out] if section == "synth" else ["train", small_ds, out]
        if recorded is None:
            assert run(*argv, "--config", ini) == 1
            assert not out.exists()
        else:
            assert run(*argv, "--config", ini) == 0
            assert self.resolved(out)[section][field] == recorded

    def test_synth_seed_from_ini(self, tmp_path):
        ini = tmp_path / "synth.ini"
        ini.write_text("[synth]\nseed = 4\n")
        out = tmp_path / "ds"
        assert run("synth", out, "--config", ini, "--videos", 1, "--frames", 2,
                   "--size", 16) == 0
        assert self.resolved(out)["synth"]["seed"] == 4


class TestCompare:
    def test_self_comparison_is_zero(self, small_ds, tmp_path, capsys):
        samples = read_dataset(small_ds)
        pred_dir = tmp_path / "preds"
        write_predictions({s.video_id: s.gt_maps for s in samples}, pred_dir)
        out = tmp_path / "eval"
        run("eval", small_ds, out, "--pred-dir", pred_dir, "--n-splits", 3)
        capsys.readouterr()
        assert run("compare", out / "report.csv", out / "report.csv",
                   "--metric", "CC") == 0
        text = capsys.readouterr().out
        assert "mean" in text and "+0.000000" in text

    def test_swapped_reports_negate(self, small_ds, tmp_path, capsys):
        samples = read_dataset(small_ds)
        good = tmp_path / "good"
        bad = tmp_path / "bad"
        write_predictions({s.video_id: s.gt_maps for s in samples}, good)
        flat = [np.linspace(0, 1, 256).reshape(16, 16)] * 6
        write_predictions({s.video_id: flat for s in samples}, bad)
        ea, eb = tmp_path / "ea", tmp_path / "eb"
        run("eval", small_ds, ea, "--pred-dir", good, "--n-splits", 3)
        run("eval", small_ds, eb, "--pred-dir", bad, "--n-splits", 3)
        capsys.readouterr()
        run("compare", ea / "report.csv", eb / "report.csv", "--metric", "CC")
        ab = capsys.readouterr().out
        run("compare", eb / "report.csv", ea / "report.csv", "--metric", "CC")
        ba = capsys.readouterr().out

        def mean_of(text):
            for line in text.splitlines():
                if line.strip().startswith("mean"):
                    return float(line.split()[-1])
            raise AssertionError("no mean line")

        assert mean_of(ab) == pytest.approx(-mean_of(ba), abs=1e-12)
        assert mean_of(ab) > 0

    def test_no_valid_video_exits_2(self, small_ds, tmp_path, capsys):
        samples = read_dataset(small_ds)
        flat = tmp_path / "flat"
        write_predictions({s.video_id: [np.full((16, 16), 0.5)] * 6
                           for s in samples}, flat)
        out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="zero valid frames"):
            run("eval", small_ds, out, "--pred-dir", flat, "--n-splits", 3)
        capsys.readouterr()
        assert run("compare", out / "report.csv", out / "report.csv",
                   "--metric", "CC") == 2
        captured = capsys.readouterr()
        assert "CC: no video" in captured.err and captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ("", "no 'video_id' column"),
        ("video_id,mean,valid_frames\n", "no 'metric' column"),
        ("video_id,metric,mean\n", "no 'valid_frames' column"),
        ("video_id,metric,mean,valid_frames\nvideo000,NSS\n",
         "line 2 is not a report row"),
        ("video_id,metric,mean,valid_frames\nvideo000,NSS,high,3\n",
         "line 2 is not a report row"),
        ("video_id,metric,mean,valid_frames\nv0,CC,0.5,1\nv1,NSS,nan,3\n",
         "line 3 is not a report row"),
        ("video_id,metric,mean,valid_frames\nv1,NSS,-inf,3\n",
         "line 2 is not a report row"),
        ("video_id,metric,mean,valid_frames\nv1,NSS,,-1\n",
         "line 2 is not a report row"),
        ("video_id,metric,mean,valid_frames\nv0,NSS,0.5,3\nv0,NSS,0.25,3\n",
         "line 3 repeats the NSS row of video 'v0'"),
        ("video_id,metric,mean,valid_frames\nv0,NSS,0.5,3\nv0,nss,0.5,3\n",
         "line 3 names unknown metric 'nss'")],
        ids=["empty", "no-metric", "no-valid-frames", "short-row",
             "bad-mean", "nan-mean", "infinite-mean", "negative-frames",
             "repeated-row", "unknown-metric"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.csv"
        report.write_text(text)
        assert run("compare", report, report) == 2
        err = capsys.readouterr().err
        assert str(report) in err and message in err


    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["LF", "CRLF", "CR"])
    def test_report_line_endings(self, tmp_path, newline):
        """A report reads the same under any line ending (`eval` writes
        CRLF, the csv module's default), also inside a quoted field, which
        reads "\\n" as `Path.read_text` gave it."""
        rows = ["video_id,metric,mean,valid_frames", "video000,NSS,0.5,3",
                f'"two{newline}lines",NSS,,0', "video002,CC,0.25,2", ""]
        report = tmp_path / "report.csv"
        report.write_bytes(newline.join(rows).encode())
        parsed = cli.read_report_csv(report)
        assert parsed.video_means == {
            "NSS": {"video000": 0.5, "two\nlines": None},
            "CC": {"video002": 0.25}}
        assert parsed.valid_counts == {
            "NSS": {"video000": 3, "two\nlines": 0}, "CC": {"video002": 2}}
        report.write_bytes(newline.join(rows[:2] + ["video1,CC,x,1"]).encode())
        with pytest.raises(ValueError, match="line 3 is not a report row"):
            cli.read_report_csv(report)

    def test_report_byte_order_mark_dropped(self, tmp_path, capsys):
        """A report saved with a UTF-8 byte-order mark, as Excel saves a
        CSV, reads as without it."""
        rows = ["video_id,metric,mean,valid_frames", "video000,NSS,0.5,3", ""]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("\r\n".join(rows), encoding="utf-8")
        marked.write_text("\r\n".join(rows), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        parsed = cli.read_report_csv(marked)
        assert parsed.video_means == {"NSS": {"video000": 0.5}}
        assert parsed.valid_counts == {"NSS": {"video000": 3}}
        assert run("compare", marked, plain) == 0

    def test_eval_writes_crlf_report(self, small_ds, tmp_path):
        samples = read_dataset(small_ds)
        pred_dir = tmp_path / "preds"
        write_predictions({s.video_id: s.gt_maps for s in samples}, pred_dir)
        out = tmp_path / "eval"
        assert run("eval", small_ds, out, "--pred-dir", pred_dir,
                   "--n-splits", 3) == 0
        raw = (out / "report.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") > 1

    def test_binary_report_exits_2(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_bytes(b"video_id,metric,mean,valid_frames\n"
                           b"video\xff,NSS,0.5,3\n")
        assert run("compare", report, report) == 2
        assert f"error: {report}: not UTF-8 text" in capsys.readouterr().err


class TestSweepAlpha:
    def test_writes_table(self, small_ds, tmp_path, capsys):
        out = tmp_path / "run"
        run("train", small_ds, out, "--recurrence", "ema", "--epochs", 1)
        table = tmp_path / "sweep.txt"
        assert run("sweep-alpha", small_ds, out / "checkpoint_final.salr",
                   "--alphas", "0.1,1.0", "--n-splits", 3, "--out", table) == 0
        lines = table.read_text().splitlines()
        assert lines[0].split() == ["alpha"] + ["AUC-J", "s-AUC", "NSS",
                                                "CC", "SIM"]
        assert len(lines) == 3

    def test_rejects_alpha_outside_unit_interval(self, small_ds, tmp_path,
                                                 capsys):
        out = tmp_path / "run"
        run("train", small_ds, out, "--recurrence", "ema", "--epochs", 1)
        ckpt = out / "checkpoint_final.salr"
        capsys.readouterr()
        # NaN passes the map guard (relu maps it to 0), so it is caught here
        for alphas in ("0,2.5,-1", "0", "2.5", "0.1,-1", "nan", "inf", "0.1,x"):
            assert run("sweep-alpha", small_ds, ckpt, "--alphas", alphas) == 1
            captured = capsys.readouterr()
            assert "--alphas" in captured.err and not captured.out, alphas
        # checked before the dataset is read
        assert run("sweep-alpha", tmp_path / "missing", ckpt,
                   "--alphas", "nan") == 1

    def test_rejects_n_splits_below_one(self, tmp_path, capsys):
        # checked before the (here missing) dataset and checkpoint are read
        assert run("sweep-alpha", tmp_path / "missing", tmp_path / "ck.salr",
                   "--n-splits", 0) == 1
        assert "--n-splits" in capsys.readouterr().err

    def test_checkpoint_dataset_size_mismatch(self, small_ds, tmp_path,
                                              capsys):
        # this once failed inside forward_frame, on the first frame
        out = tmp_path / "run"
        run("train", small_ds, out, "--recurrence", "ema", "--epochs", 1)
        wrong = tmp_path / "wrong"
        run("synth", wrong, "--videos", 1, "--frames", 2, "--size", 32)
        capsys.readouterr()
        assert run("sweep-alpha", wrong, out / "checkpoint_final.salr") == 2
        assert ("error: checkpoint expects (16, 16), dataset frames are "
                "(32, 32)") in capsys.readouterr().err

    def test_rejects_stateless_checkpoint(self, small_ds, tmp_path):
        out = tmp_path / "run"
        run("train", small_ds, out, "--recurrence", "none", "--epochs", 1)
        assert run("sweep-alpha", small_ds, out / "checkpoint_final.salr") == 1
        # checked before the (here missing) dataset is read
        assert run("sweep-alpha", tmp_path / "missing",
                   out / "checkpoint_final.salr") == 1


class TestGradcheck:
    def test_passes_with_exit_0(self, capsys):
        assert run("gradcheck", "--module", "recurrence") == 0
        assert "pass" in capsys.readouterr().out

    def test_loss_module_is_a_usage_error(self, capsys):
        # `bce` is checked as a tensor op; no `loss` module remains
        assert run("gradcheck", "--module", "loss") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_seeds_0_to_12_pass(self, capsys):
        # zero biases once left pre-activations on a ReLU kink, where the
        # finite difference reads slope 1/2: most of these seeds exited 3
        failed = [seed for seed in range(13)
                  if run("gradcheck", "--seed", seed) != 0]
        assert failed == [], capsys.readouterr().out

    def test_seed_105_passes(self, capsys):
        # the model probe's first clip sat 8.6e-6 from a ReLU kink
        assert run("gradcheck", "--seed", 105) == 0, capsys.readouterr().out

    def test_roundoff_floor_seeds_pass(self, capsys):
        # the seeds whose accepted model probe reads worst over 0-199, where
        # an enc1.kernel gradient element is small enough that the loss's
        # roundoff is a large share of it: 1.172e-5 at seed 196 (an element
        # of 1.6e-5) and 1.167e-5 at seed 155 (one of 7.5e-6)
        failed = [seed for seed in (155, 196)
                  if run("gradcheck", "--module", "model", "--seed", seed) != 0]
        assert failed == [], capsys.readouterr().out

    def test_failure_exits_3(self, monkeypatch, capsys):
        fake = [GradCheckResult(name="ema_step", max_rel_err=0.5)]
        monkeypatch.setattr(cli, "run_checks", lambda mods, seed=0: fake)
        assert run("gradcheck", "--module", "recurrence") == 3
        assert "FAIL" in capsys.readouterr().out


class TestUsage:
    @pytest.mark.parametrize("command", [
        "synth", "train", "eval", "sweep-alpha", "gradcheck"])
    def test_negative_seed_flag_exits_1(self, small_ds, tmp_path, capsys,
                                        command):
        out = tmp_path / "run"
        argv = {"synth": [out], "train": [small_ds, out],
                "eval": [small_ds, out, "--pred-dir", small_ds],
                "sweep-alpha": [small_ds, tmp_path / "ck.salr"],
                "gradcheck": []}[command]
        assert run(command, *argv, "--seed", -1) == 1
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cls", [SynthConfig, ModelConfig, TrainConfig])
    def test_negative_seed_rejected_by_settings(self, cls):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            cls(seed=-1)

    def test_no_command_exits_1(self):
        assert run() == 1

    def test_unknown_command_exits_1(self):
        assert run("frobnicate") == 1

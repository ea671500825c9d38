import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from salrec import data as data_mod
from salrec.data import (MANIFEST_NAME, SynthConfig, VideoSample, generate,
                         load_predictions, read_dataset, read_fixations,
                         read_pgm, write_dataset, write_pgm, write_predictions)
from salrec.metrics import (auc_judd, cc, evaluate_predictions, nss, sim)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestPgm:
    def test_half_quantizes_to_128(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, np.full((2, 2), 0.5))
        back = read_pgm(p)
        assert np.all(back == 128 / 255)
        assert back[0, 0] == pytest.approx(0.50196, abs=1e-5)

    def test_roundtrip_after_first_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.uniform(size=(5, 7))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, vals)
        write_pgm(b, read_pgm(a))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_header_names_file(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n2 2\n255\n----")
        with pytest.raises(ValueError, match="bad.pgm.*header"):
            read_pgm(p)

    def test_pixel_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
        with pytest.raises(ValueError, match="short.pgm"):
            read_pgm(p)

    @pytest.mark.parametrize("header", [
        b"P5\n# CREATOR: GIMP PNM Filter Version 1.1\n2 2\n255\n",
        b"P5#a\n 2#b\r#c\n2\t# d 9 9\n\n255\r"],
        ids=["GIMP", "everywhere"])
    def test_header_comments_skipped(self, tmp_path, header):
        """A "#" comment runs to the end of its line wherever the header
        allows whitespace; one whitespace byte after maxval ends it, so a
        raster may start with a newline or a "#"."""
        p = tmp_path / "c.pgm"
        p.write_bytes(header + b"\n#\x00\xff")
        assert np.array_equal(read_pgm(p) * 255, [[10, 35], [0, 255]])

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n# CREATOR: GIMP PNM Filter", "malformed PGM header"),
        (b"P5\n# c\n2 2\n# c\n", "malformed PGM header"),
        (b"P5\n2 2\n255 # c\n\x00\x00\x00\x00", "expected 4 pixels, got 8"),
        (b"P5\n# c\n2 2\n255\n\x00\x00\x00", "expected 4 pixels, got 3")],
        ids=["truncated-comment", "no-maxval", "comment-after-maxval",
             "short-raster"])
    def test_bad_commented_header_names_file(self, tmp_path, raw, message):
        p = tmp_path / "bad.pgm"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=f"bad.pgm: {message}"):
            read_pgm(p)


class TestGenerate:
    def test_static_scene(self):
        cfg = SynthConfig(n_videos=1, frames_per_video=5, height=16, width=16,
                          n_blobs=1, max_speed=0.0, noise=0.0, seed=1)
        s = generate(cfg)[0]
        for f, g in zip(s.frames[1:], s.gt_maps[1:]):
            np.testing.assert_array_equal(f, s.frames[0])
            np.testing.assert_array_equal(g, s.gt_maps[0])

    def test_speed_limited_to_the_span_of_a_centre(self):
        """A centre travels [0, size - 1]; a faster blob once reflected
        between +-1e300 for ever."""
        for speed in (7.5, 1e300):
            with pytest.raises(ValueError, match=r"max_speed must be in \[0, 7\]"):
                SynthConfig(height=8, width=16, max_speed=speed)
        cfg = SynthConfig(n_videos=2, frames_per_video=20, height=8, width=16,
                          max_speed=7.0, seed=5)
        for s in generate(cfg):
            assert all(f.shape == (8, 16) for f in s.frames)

    def test_gt_peak_is_one_at_blob_center(self):
        cfg = SynthConfig(n_videos=2, frames_per_video=3, height=16, width=16,
                          n_blobs=1, seed=2)
        for s in generate(cfg):
            for g in s.gt_maps:
                assert g.max() == 1.0
                assert g.sum() > 0.0

    def test_fixations_inside_extent_and_from_gt(self):
        cfg = SynthConfig(n_videos=1, frames_per_video=1, height=8, width=8,
                          n_blobs=1, fixations_per_frame=100_000, seed=3)
        s = generate(cfg)[0]
        gt = s.gt_maps[0]
        counts = np.zeros(64)
        for r, c in s.fixations[0].points:
            assert 0 <= r < 8 and 0 <= c < 8
            counts[r * 8 + c] += 1
        emp = counts / counts.sum()
        ref = (gt / gt.sum()).reshape(-1)
        tv = 0.5 * np.abs(emp - ref).sum()
        assert tv < 0.05

    def test_determinism(self):
        cfg = SynthConfig(n_videos=2, frames_per_video=4, seed=5)
        a = generate(cfg)
        b = generate(cfg)
        for sa, sb in zip(a, b):
            for fa, fb in zip(sa.frames, sb.frames):
                assert np.array_equal(fa, fb)
            assert sa.fixations[0].points == sb.fixations[0].points


class TestDatasetIO:
    def make(self, tmp_path, **kw):
        cfg = SynthConfig(n_videos=2, frames_per_video=3, height=16, width=16,
                          seed=4, **kw)
        samples = generate(cfg)
        root = tmp_path / "ds"
        write_dataset(samples, root)
        return samples, root

    def test_write_read_write_byte_identical(self, tmp_path):
        samples, root = self.make(tmp_path)
        again = tmp_path / "ds2"
        write_dataset(read_dataset(root), again)
        assert tree_digest(root) == tree_digest(again)

    def test_manifest_counts_match_files(self, tmp_path):
        samples, root = self.make(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        for entry in manifest["videos"]:
            n = entry["frames"]
            assert len(list((root / entry["path"] / "frames").glob("*.pgm"))) == n
            assert len(list((root / entry["path"] / "gt").glob("*.pgm"))) == n
            assert len(list((root / entry["path"] / "fix").glob("*.txt"))) == n

    def test_manifest_without_videos_rejected(self, tmp_path):
        root = tmp_path / "empty"
        write_dataset([], root)
        with pytest.raises(ValueError, match="no videos"):
            read_dataset(root)

    @pytest.mark.parametrize("key, value, match", [
        (None, None, "not a JSON object"),
        ("height", ..., "lacks 'height'"),
        ("video_id", ..., "lacks 'video_id'"),
        ("frames", "3", "has frames '3'"),
        ("frames", 2.5, "has frames 2.5"),
        ("size", None, "the first video")],
        ids=["not-object", "no-height", "no-video-id", "frames-str",
             "frames-float", "size-differs"])
    def test_malformed_manifest_names_it(self, tmp_path, key, value, match):
        samples, root = self.make(tmp_path)
        path = root / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        entry = manifest["videos"][1]  # the first video sets the frame size
        if key == "size":  # a well-formed second video of 8x8 frames
            small = generate(SynthConfig(n_videos=1, frames_per_video=3,
                                         height=8, width=8))[0]
            write_dataset([samples[0], replace(small, video_id="small")], root)
        else:
            if key is None:
                manifest = [manifest]
            elif value is ...:
                del entry[key]
            else:
                entry[key] = value
            path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=match) as exc:
            read_dataset(root)
        assert MANIFEST_NAME in str(exc.value)

    @pytest.mark.parametrize("edit, match", [
        ("not-json", "not JSON"), ("not-utf8", "not UTF-8"),
        ("repeated-id", "video_id 'video000' repeats")])
    def test_unreadable_manifest_rejected_before_frames(self, tmp_path,
                                                        monkeypatch, edit,
                                                        match):
        samples, root = self.make(tmp_path)
        path = root / MANIFEST_NAME
        if edit == "not-json":
            path.write_text(path.read_text()[:-3])
        elif edit == "not-utf8":
            path.write_bytes(b"\xff" + path.read_bytes())
        else:  # two entries name one video: the second would shadow it
            manifest = json.loads(path.read_text())
            manifest["videos"][1]["video_id"] = "video000"
            path.write_text(json.dumps(manifest))

        def no_frames(p):
            raise AssertionError(f"{p} read before the manifest was checked")

        monkeypatch.setattr(data_mod, "read_pgm", no_frames)
        with pytest.raises(ValueError, match=match) as exc:
            read_dataset(root)
        assert str(path) in str(exc.value)

    def test_missing_file_names_path(self, tmp_path):
        samples, root = self.make(tmp_path)
        victim = root / samples[0].video_id / "gt" / "0001.pgm"
        victim.unlink()
        with pytest.raises(FileNotFoundError, match="0001.pgm"):
            read_dataset(root)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\r\r\n"],
                             ids=["LF", "CRLF", "CR", "CR-CRLF"])
    def test_fixation_line_endings(self, tmp_path, newline):
        """`read_utf8` reads "\\r\\n" and a lone "\\r" as "\\n", as
        `Path.read_text` does, so a fixation file parses the same under any
        line ending and a bad line keeps its number."""
        path = tmp_path / "0000.txt"
        path.write_bytes(newline.join(["3 4", "", "5 6", "0 1", ""]).encode())
        assert data_mod.read_utf8(path) == path.read_text(encoding="utf-8")
        assert read_fixations(path, (8, 8)).points == [(3, 4), (5, 6), (0, 1)]
        path.write_bytes(newline.join(["3 4", "5 x"]).encode())
        number = 3 if newline == "\r\r\n" else 2  # "\\r\\r\\n" ends two lines
        with pytest.raises(ValueError, match=f"0000.txt:{number}: expected"):
            read_fixations(path, (8, 8))

    def test_byte_order_mark_dropped(self, tmp_path):
        """A fixation file or manifest saved with a UTF-8 byte-order mark
        (as Notepad saves one) reads as without it."""
        samples, root = self.make(tmp_path)
        for path in (root / samples[0].video_id / "fix" / "0000.txt",
                     root / MANIFEST_NAME):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for a, b in zip(samples, read_dataset(root)):
            assert a.video_id == b.video_id
            assert [f.points for f in a.fixations] == \
                [f.points for f in b.fixations]
        path = tmp_path / "0000.txt"
        path.write_bytes(b"\xef\xbb\xbf5 3\n")
        assert read_fixations(path, (8, 8)).points == [(5, 3)]

    def test_str_root_reads_and_names_paths_as_path(self, tmp_path):
        """A str root reads the same dataset as a Path, and an error names
        the file as the Path join would, without a doubled or trailing
        "/" or a "./"."""
        samples, root = self.make(tmp_path)
        ref = read_dataset(root)
        for text in (str(root), f"{root}/", f"{root}//./"):
            loaded = read_dataset(text)
            for a, b in zip(ref, loaded):
                assert a.video_id == b.video_id
                assert all(np.array_equal(x, y) for x, y in
                           zip(a.frames + a.gt_maps, b.frames + b.gt_maps))
                assert [f.points for f in a.fixations] == \
                    [f.points for f in b.fixations]
        (root / samples[1].video_id / "fix" / "0002.txt").unlink()
        with pytest.raises(FileNotFoundError) as exc:
            read_dataset(f"{root}//./")
        assert str(exc.value) == ("[Errno 2] No such file or directory: "
                                  f"'{root}/video001/fix/0002.txt'")

    def test_roundtrip_quantization_bounded(self, tmp_path):
        samples, root = self.make(tmp_path)
        loaded = read_dataset(root)
        for s, l in zip(samples, loaded):
            for a, b in zip(s.gt_maps, l.gt_maps):
                assert np.abs(a - b).max() <= 0.5 / 255 + 1e-12
            for fa, fb in zip(s.fixations, l.fixations):
                assert fa.points == fb.points  # exact

    def test_empty_fixation_frame_validity(self, tmp_path):
        samples, root = self.make(tmp_path)
        fix_file = root / samples[0].video_id / "fix" / "0000.txt"
        fix_file.write_text("")
        loaded = read_dataset(root)
        pred = loaded[0].gt_maps[0]
        fix = loaded[0].fixations[0]
        assert nss(pred, fix) is None
        assert auc_judd(pred, fix) is None
        assert cc(pred, loaded[0].gt_maps[0]) is not None
        assert sim(pred, loaded[0].gt_maps[0]) is not None


class TestPredictions:
    def setup_ds(self, tmp_path):
        cfg = SynthConfig(n_videos=2, frames_per_video=3, height=16, width=16,
                          seed=6)
        samples = generate(cfg)
        root = tmp_path / "ds"
        write_dataset(samples, root)
        return read_dataset(root), root

    def test_gt_self_evaluation(self, tmp_path):
        samples, root = self.setup_ds(tmp_path)
        preds = {s.video_id: s.gt_maps for s in samples}
        rep = evaluate_predictions(samples, preds, n_splits=5, seed=0)
        assert rep.dataset_means["CC"] > 0.99
        assert rep.dataset_means["SIM"] > 0.99

    def test_constant_half_predictions(self, tmp_path):
        samples, _ = self.setup_ds(tmp_path)
        preds = {s.video_id: [np.full((16, 16), 0.5)] * 3 for s in samples}
        with pytest.warns(UserWarning, match="zero valid frames"):
            rep = evaluate_predictions(samples, preds, n_splits=5, seed=0)
        assert rep.dataset_means["NSS"] is None  # all frames invalid
        assert rep.dataset_means["AUC-J"] == pytest.approx(0.5)
        assert rep.dataset_means["s-AUC"] == pytest.approx(0.5)

    def test_count_mismatch_names_video(self, tmp_path):
        samples, root = self.setup_ds(tmp_path)
        pdir = tmp_path / "preds"
        preds = {s.video_id: s.gt_maps for s in samples}
        write_predictions(preds, pdir)
        extra = pdir / samples[0].video_id / "0099.pgm"
        write_pgm(extra, np.zeros((16, 16)))
        with pytest.raises(ValueError, match=samples[0].video_id):
            load_predictions(pdir, samples)

    def test_map_of_another_size_names_file(self, tmp_path):
        samples, _ = self.setup_ds(tmp_path)
        pdir = tmp_path / "preds"
        write_predictions({s.video_id: s.gt_maps for s in samples}, pdir)
        small = pdir / samples[1].video_id / "0002.pgm"
        write_pgm(small, np.zeros((8, 8)))
        with pytest.raises(ValueError, match=f"{small}: shape \\(8, 8\\), "
                                             f"expected \\(16, 16\\)"):
            load_predictions(pdir, samples)

    def test_maps_read_by_frame_name(self, tmp_path):
        """Maps are read as NNNN.pgm, frame by frame: other names in the
        right number are not taken in name order."""
        samples, _ = self.setup_ds(tmp_path)
        pdir = tmp_path / "preds"
        write_predictions({s.video_id: s.gt_maps for s in samples}, pdir)
        vdir = pdir / samples[0].video_id
        for t, name in enumerate(["a", "b", "c"]):
            (vdir / f"{t:04d}.pgm").rename(vdir / f"{name}.pgm")
        with pytest.raises(FileNotFoundError, match=re.escape(
                str(vdir / "0000.pgm"))):
            load_predictions(pdir, samples)

    def test_video_without_frames_loads_no_maps(self, tmp_path):
        empty = VideoSample("empty", frames=[], gt_maps=[], fixations=[])
        assert load_predictions(tmp_path, [empty]) == {"empty": []}

    def test_disk_roundtrip_metrics_within_quantization(self, tmp_path):
        samples, root = self.setup_ds(tmp_path)
        rng = np.random.default_rng(7)
        preds = {s.video_id: [rng.uniform(size=(16, 16)) for _ in s.frames]
                 for s in samples}
        mem = evaluate_predictions(samples, preds, n_splits=5, seed=0)
        pdir = tmp_path / "preds"
        write_predictions(preds, pdir)
        disk = evaluate_predictions(samples, load_predictions(pdir, samples),
                                    n_splits=5, seed=0)
        for m in ("CC", "SIM"):
            assert abs(mem.dataset_means[m] - disk.dataset_means[m]) < 2 / 255

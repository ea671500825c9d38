"""Synthetic video-saliency data: moving Gaussian blobs with fixation
sampling, plus the on-disk dataset layout.

Layout under a dataset root:
    manifest.json
    <video_id>/frames/NNNN.pgm   8-bit binary PGM (P5), luminance
    <video_id>/gt/NNNN.pgm       ground-truth map, max-normalized
    <video_id>/fix/NNNN.txt      one "row col" fixation per line
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .metrics import FixationMap

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2


# ---------------------------------------------------------------------------
# PGM (P5, maxval 255)


def write_pgm(path: Path, values: np.ndarray) -> None:
    """Quantize a [0, 1] float map to 8 bits and write binary PGM."""
    if values.ndim != 2:
        raise ValueError(f"PGM expects a 2d map, got shape {values.shape}")
    h, w = values.shape
    data = np.clip(np.floor(values * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# a "#" comment runs to the line end and counts as whitespace, except after maxval
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def _read_bytes(path) -> bytes:
    """The bytes of a file in one unbuffered read, with the OSError of
    `Path.read_bytes` and without its Path and buffered reader, which cost
    as much as the read on a 1 KB map."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def read_pgm(path: Path) -> np.ndarray:
    """Read binary PGM back to a [0, 1] float map; `path` is a str or a
    Path, and errors name it as given."""
    raw = _read_bytes(path)
    m = _PGM_HEADER.match(raw)
    if not m:
        raise ValueError(f"{path}: malformed PGM header")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    n = len(raw) - m.end()
    if n != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, got {n}")
    return np.frombuffer(raw, np.uint8, n, m.end()).reshape(h, w) / 255.0


def _write_maps(vdir: Path, maps: list[np.ndarray]) -> None:
    """Write maps as vdir/0000.pgm, vdir/0001.pgm, ... in order."""
    vdir.mkdir(parents=True, exist_ok=True)
    for t, m in enumerate(maps):
        write_pgm(vdir / f"{t:04d}.pgm", m)


def _read_maps(vdir: Path, n: int, shape: tuple[int, int]) -> list[np.ndarray]:
    """Read vdir/0000.pgm ... vdir/<n-1>.pgm by name; a missing map or one
    of another size raises, naming the file. The names join the Path vdir
    as text, which skips a Path per file."""
    maps = []
    for t in range(n):
        path = f"{vdir}/{t:04d}.pgm"
        m = read_pgm(path)
        if m.shape != shape:
            raise ValueError(f"{path}: shape {m.shape}, expected {shape}")
        maps.append(m)
    return maps


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file without a leading byte-order mark, with
    "\\r\\n" and a lone "\\r" read as "\\n" (as `Path.read_text` reads
    them); other bytes raise ValueError naming it."""
    try:
        text = _read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_fixations(path: Path, fix: FixationMap) -> None:
    with open(path, "w") as f:
        for r, c in fix.points:
            f.write(f"{r} {c}\n")


def read_fixations(path: Path, extent: tuple[int, int]) -> FixationMap:
    """One "row col" fixation per line of a UTF-8 file. A malformed line or
    a point outside the extent raises ValueError naming `<path>:<line>`."""
    h, w = extent
    points = []
    for number, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            r, c = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{number}: expected 'row col' integers, "
                             f"got {line.strip()!r}") from None
        if not (0 <= r < h and 0 <= c < w):
            raise ValueError(f"{path}:{number}: fixation ({r}, {c}) outside "
                             f"extent {extent}")
        points.append((r, c))
    return FixationMap(points=points, extent=extent)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SynthConfig:
    n_videos: int = 20
    frames_per_video: int = 40
    height: int = 32
    width: int = 32
    n_blobs: int = 2  # per video, 1-3
    sigma: float = 3.0  # blob width in pixels
    max_speed: float = 1.5  # pixels per frame
    noise: float = 0.05  # uniform pixel noise amplitude
    fixations_per_frame: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_videos < 1 or self.frames_per_video < 1:
            raise ValueError("n_videos and frames_per_video must be >= 1")
        # blob centres start in [2, size - 3]; the float checks fail for NaN
        if not (self.height >= 5 and self.width >= 5):
            raise ValueError("height and width must be >= 5")
        # a blob's nearest pixel lies within sqrt(0.5) of its centre, so the
        # map's max is at least exp(-0.25 / sigma^2): 3.7e-272 at 0.02, but
        # 0.0 at 0.018, where the max-normalised ground truth reads 0/0
        if not self.sigma >= 0.02:
            raise ValueError(f"sigma must be >= 0.02, got {self.sigma}")
        span = min(self.height, self.width) - 1  # one reflection lands inside
        if not 0 <= self.max_speed <= span:
            raise ValueError(f"max_speed must be in [0, {span}], got "
                             f"{self.max_speed}")
        if not 0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and >= 0")
        if not 1 <= self.n_blobs <= 3:
            raise ValueError("n_blobs must be in 1..3")
        if self.fixations_per_frame < 0:
            raise ValueError("fixations_per_frame must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class VideoSample:
    video_id: str
    frames: list[np.ndarray]  # (H, W) luminance in [0, 1]
    gt_maps: list[np.ndarray]  # (H, W), peak 1
    fixations: list[FixationMap]

    def __post_init__(self):
        if not len(self.frames) == len(self.gt_maps) == len(self.fixations):
            raise ValueError(f"video {self.video_id}: list lengths differ")


def _render_blobs(centers: np.ndarray, h: int, w: int, sigma: float) -> np.ndarray:
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    acc = np.zeros((h, w))
    for cy, cx in centers:
        acc += np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * sigma ** 2))
    return acc


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    """Advance one step with elastic reflection at [lo, hi]; a step no
    longer than hi - lo (`SynthConfig.max_speed`) needs one reflection."""
    pos += vel
    if pos < lo or pos > hi:
        pos, vel = 2 * (lo if pos < lo else hi) - pos, -vel
    return pos, vel


def generate(cfg: SynthConfig) -> list[VideoSample]:
    """Deterministic dataset of blob videos; gt maps are the max-normalized
    Gaussian mixtures and fixations are categorical draws from them."""
    rng = np.random.default_rng(cfg.seed)
    h, w = cfg.height, cfg.width
    samples = []
    for v in range(cfg.n_videos):
        pos = rng.uniform([2, 2], [h - 3, w - 3], size=(cfg.n_blobs, 2))
        speed = rng.uniform(0, cfg.max_speed, size=cfg.n_blobs)
        angle = rng.uniform(0, 2 * np.pi, size=cfg.n_blobs)
        vel = np.stack([speed * np.sin(angle), speed * np.cos(angle)], axis=1)
        frames, gts, fixes = [], [], []
        for _ in range(cfg.frames_per_video):
            intensity = _render_blobs(pos, h, w, cfg.sigma)
            frame = np.clip(intensity + rng.uniform(0, cfg.noise, size=(h, w)),
                            0.0, 1.0)
            gt = intensity / intensity.max()
            probs = (gt / gt.sum()).reshape(-1)
            draws = rng.choice(h * w, size=cfg.fixations_per_frame, p=probs)
            points = [(int(d) // w, int(d) % w) for d in draws]
            frames.append(frame)
            gts.append(gt)
            fixes.append(FixationMap(points=points, extent=(h, w)))
            for b in range(cfg.n_blobs):
                pos[b, 0], vel[b, 0] = _reflect(pos[b, 0], vel[b, 0], 0, h - 1)
                pos[b, 1], vel[b, 1] = _reflect(pos[b, 1], vel[b, 1], 0, w - 1)
        samples.append(VideoSample(video_id=f"video{v:03d}", frames=frames,
                                   gt_maps=gts, fixations=fixes))
    return samples


# ---------------------------------------------------------------------------
# dataset read/write


def write_dataset(samples: list[VideoSample], root: Path) -> None:
    """Write the PGM/text tree; the manifest goes last so readers never see
    a partial dataset. A video_id that is not a directory name
    (`VideoEntry`) raises before its video is written."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in samples:
        entry = VideoEntry(s.video_id, len(s.frames), *s.frames[0].shape)
        vdir = root / s.video_id
        _write_maps(vdir / "frames", s.frames)
        _write_maps(vdir / "gt", s.gt_maps)
        (vdir / "fix").mkdir(parents=True, exist_ok=True)
        for t, fix in enumerate(s.fixations):
            write_fixations(vdir / "fix" / f"{t:04d}.txt", fix)
        entries.append(asdict(entry))
    manifest = {"version": MANIFEST_VERSION, "videos": entries}
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


# the JSON types an annotation admits: a bool is no int, an int is a float
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,), "list": (list,), "dict": (dict,),
               "object": (dict, list, str, int, float, bool, type(None))}


def read_record(cls, value, where: str):
    """A `cls` dataclass from a JSON object that holds each of its fields,
    and no other key, at its annotation's JSON type (a tuple as a list of
    its item type); else ValueError naming `where`, the object's place."""
    # annotations are strings here: the __future__ import
    types = {f.name: f.type for f in fields(cls)}
    if type(value) is not dict:
        raise ValueError(f"{where} is {type(value).__name__}, not a JSON "
                         f"object")
    missing = [name for name in types if name not in value]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    unknown = [repr(key) for key in value if key not in types]
    if unknown:
        raise ValueError(f"{where} has unknown key {', '.join(unknown)}")
    for name, kind in types.items():
        v, seq = value[name], kind.startswith("tuple[")
        kinds = _JSON_TYPES[kind[6:].split(",")[0] if seq else kind]
        if not (type(v) is list and all(type(i) in kinds for i in v)
                if seq else type(v) in kinds):
            raise ValueError(f"{where}.{name} is {v!r}, expected {kind}")
    return cls(**value)


@dataclass
class VideoEntry:
    """A manifest's video; its maps lie in the folder named `video_id`."""
    video_id: str
    frames: int
    height: int
    width: int

    def __post_init__(self):
        vid = self.video_id  # also a directory under `--dump-maps`, `--pred-dir`
        if vid in ("", ".", "..") or "/" in vid or "\0" in vid:
            raise ValueError(f"video_id {vid!r} is not a directory name")
        if self.frames < 1:
            raise ValueError(f"video {vid} lists {self.frames} frames, "
                             f"expected >= 1")


@dataclass
class Manifest:
    """A dataset's `manifest.json`: its `videos` are read as `VideoEntry`s,
    each with its own video_id and the first video's frame size."""
    version: int
    videos: list

    def __post_init__(self):
        if self.version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {self.version}")
        if not self.videos:
            raise ValueError("the manifest lists no videos")
        self.videos = [read_record(VideoEntry, entry, f"videos[{i}]")
                       for i, entry in enumerate(self.videos)]
        first, seen = self.videos[0], set()
        for e in self.videos:
            if e.video_id in seen:
                raise ValueError(f"video_id {e.video_id!r} repeats")
            seen.add(e.video_id)
            if (e.height, e.width) != (first.height, first.width):
                raise ValueError(f"video {e.video_id} has frames of "
                                 f"{(e.height, e.width)}, the first video "
                                 f"of {(first.height, first.width)}")


def read_dataset(root: Path) -> list[VideoSample]:
    """The dataset under `root`. Its manifest is checked (`Manifest`), and
    an error in it names the file, before any map is read."""
    root = Path(root)
    path = root / MANIFEST_NAME
    text = read_utf8(path)
    try:
        manifest = read_record(Manifest, json.loads(text), "manifest")
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nest
        raise ValueError(f"{path}: not JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    samples = []
    for entry in manifest.videos:
        vdir = root / entry.video_id
        n, size = entry.frames, (entry.height, entry.width)
        frames = _read_maps(vdir / "frames", n, size)
        gts = _read_maps(vdir / "gt", n, size)
        fixes = [read_fixations(f"{vdir}/fix/{t:04d}.txt", size)
                 for t in range(n)]
        samples.append(VideoSample(video_id=entry.video_id, frames=frames,
                                   gt_maps=gts, fixations=fixes))
    return samples


def load_predictions(root: Path, reference: list[VideoSample]
                     ) -> dict[str, list[np.ndarray]]:
    """Load externally produced maps, <root>/<video_id>/NNNN.pgm, one per
    frame of each reference video and at its frame size."""
    preds = {}
    for s in reference:
        vdir = Path(root) / s.video_id
        found = len(list(vdir.glob("*.pgm")))
        if found != len(s.frames):
            raise ValueError(f"video {s.video_id}: {found} prediction "
                             f"maps for {len(s.frames)} frames")
        preds[s.video_id] = (_read_maps(vdir, len(s.frames), s.frames[0].shape)
                             if s.frames else [])
    return preds


def write_predictions(preds: dict[str, list[np.ndarray]], root: Path) -> None:
    for vid, maps in preds.items():
        _write_maps(Path(root) / vid, maps)

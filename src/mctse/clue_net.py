"""Clue encoding and fusion.

Each available clue modality (sound tag, text tokens, video frame features)
is mapped into a shared D-dim embedding space by a small trainable encoder,
the per-modality sequences are concatenated in the fixed order
[text; video; tag], and cross-attention against frame-wise sound embeddings
of the mixture produces one fused clue vector per (downsampled) frame, which
is then upsampled back to the spectrogram frame rate.

Absent modalities simply contribute no rows; a segment map records which
concatenated rows belong to which modality so attention weights can be
attributed afterwards.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ContractError, InputError
from .nn_blocks import LinearParams, MhaParams, apply_linear, multi_head_attention, uniform_init
from .signal import ComplexSpec, StftConfig
from .tensor import Tensor, constant

MODALITY_ORDER = ("text", "video", "tag")
MODALITY_CODES = {"sound": 0, "text": 1, "video": 2, "tag": 3}
_EMB_MAGIC = b"MCEMB1"


@dataclass
class ClueSet:
    """The clues available for one extraction request."""

    tag: np.ndarray | None = None  # one-hot over classes
    text: np.ndarray | None = None  # token ids
    video: np.ndarray | None = None  # [T_v x D_vraw] frame features

    def __post_init__(self):
        if self.tag is None and self.text is None and self.video is None:
            raise ContractError("clue set needs at least one modality")
        if self.tag is not None:
            self.tag = np.asarray(self.tag, dtype=np.float64).reshape(-1)
        if self.text is not None:
            self.text = np.asarray(self.text, dtype=np.int64).reshape(-1)
            if self.text.size == 0:
                raise ContractError("text clue must contain at least one token")
        if self.video is not None:
            self.video = np.asarray(self.video, dtype=np.float64)
            if self.video.ndim != 2 or self.video.shape[0] == 0:
                raise ContractError(
                    f"video clue must be [frames x features], got shape {self.video.shape}"
                )

    @property
    def modalities(self) -> tuple[str, ...]:
        present = []
        if self.text is not None:
            present.append("text")
        if self.video is not None:
            present.append("video")
        if self.tag is not None:
            present.append("tag")
        return tuple(present)


@dataclass(frozen=True)
class ClueConfig:
    sound_channels: int = 4
    downsample: int = 4
    text_raw_dim: int = 16
    video_raw_dim: int = 32
    heads: int = 4


@dataclass
class EmbeddingSeq:
    data: Tensor
    modality: str

    def __post_init__(self):
        if self.data.data.ndim != 2 or self.data.data.shape[0] < 1:
            raise ContractError(
                f"embedding sequence must be [L x D] with L >= 1, got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data.data)):
            raise ContractError(f"{self.modality} embeddings contain non-finite values")

    @property
    def length(self) -> int:
        return self.data.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.data.shape[1]


@dataclass
class ProjectionParams:
    """Layer-norm -> linear -> relu, shared building block of all encoders."""

    ln_gain: Tensor
    ln_bias: Tensor
    lin: LinearParams

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int, dtype=np.float64):
        return cls(
            ln_gain=Tensor(np.ones(d_in, dtype=dtype), requires_grad=True),
            ln_bias=Tensor(np.zeros(d_in, dtype=dtype), requires_grad=True),
            lin=LinearParams.init(rng, d_in, d_out, dtype),
        )

    def apply(self, x: Tensor) -> Tensor:
        return ops.relu(apply_linear(ops.layer_norm(x, self.ln_gain, self.ln_bias), self.lin))


class ClueNetParams:
    """All trainable weights of the clue encoders and the fusion attention."""

    def __init__(
        self,
        rng: np.random.Generator,
        dim: int,
        num_classes: int,
        vocab_size: int,
        bins: int = StftConfig().bins,
        sound_channels: int = ClueConfig.sound_channels,
        downsample: int = ClueConfig.downsample,
        text_raw_dim: int = ClueConfig.text_raw_dim,
        video_raw_dim: int = ClueConfig.video_raw_dim,
        heads: int = ClueConfig.heads,
        dtype=np.float64,
    ):
        if downsample < 1:
            raise ConfigError(f"downsample factor must be >= 1, got {downsample}")
        if min(dim, num_classes, vocab_size, bins, sound_channels) < 1:
            raise ConfigError("clue net dims must all be positive")
        self.dim = dim
        self.dtype = np.dtype(dtype)  # clue inputs are cast to it where they enter
        self.num_classes = num_classes
        self.vocab_size = vocab_size
        self.bins = bins
        self.downsample = downsample
        self.video_raw_dim = video_raw_dim
        freq_down = -(-bins // downsample)  # ceil
        self.sound_kernel = uniform_init(rng, (sound_channels, 1, 5, 5), 25, dtype)
        self.sound_bias = Tensor(np.zeros(sound_channels, dtype=dtype), requires_grad=True)
        self.sound_proj = ProjectionParams.init(rng, sound_channels * freq_down, dim, dtype)
        self.text_table = uniform_init(rng, (vocab_size, text_raw_dim), text_raw_dim, dtype)
        self.text_proj = ProjectionParams.init(rng, text_raw_dim, dim, dtype)
        self.video_proj = ProjectionParams.init(rng, video_raw_dim, dim, dtype)
        self.tag_lin = LinearParams.init(rng, num_classes, dim, dtype)
        self.mha = MhaParams.init(rng, dim, heads, dtype)

    def named_tensors(self) -> dict[str, Tensor]:
        """Every parameter, named "<modality>.<part>" with modality one of
        sound, text, video, tag or attention."""
        names = {}
        names["sound.kernel"] = self.sound_kernel
        names["sound.bias"] = self.sound_bias
        for prefix, proj in (
            ("sound.proj", self.sound_proj),
            ("text.proj", self.text_proj),
            ("video.proj", self.video_proj),
        ):
            names[f"{prefix}.ln_gain"] = proj.ln_gain
            names[f"{prefix}.ln_bias"] = proj.ln_bias
            names[f"{prefix}.w"] = proj.lin.w
            names[f"{prefix}.b"] = proj.lin.b
        names["text.table"] = self.text_table
        names["tag.w"] = self.tag_lin.w
        names["tag.b"] = self.tag_lin.b
        for n, t in zip(("wq", "wk", "wv", "wo"), self.mha.tensors()):
            names[f"attention.{n}"] = t
        return names

    def modality_tensors(self, modality: str) -> list[Tensor]:
        found = [t for name, t in self.named_tensors().items()
                 if name.partition(".")[0] == modality]
        if not found:
            raise ContractError(f"unknown modality {modality!r}")
        return found

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())


# ---------------------------------------------------------------------------
# per-modality encoders


def encode_sound(mixture_spec: ComplexSpec, p: ClueNetParams) -> EmbeddingSeq:
    """Frame-wise mixture embeddings at 1/downsample of the spectrogram rate."""
    frames = mixture_spec.frames
    if frames < p.downsample:
        raise InputError(
            f"spectrum with {frames} frames is too short for downsample {p.downsample}"
        )
    if mixture_spec.real.shape[1] != p.bins:
        raise ContractError(
            f"spectrum has {mixture_spec.real.shape[1]} bins, params expect {p.bins}"
        )
    mag = constant(mixture_spec.magnitude()[None, :, :], dtype=p.dtype)
    k = p.downsample
    conv = ops.conv2d(mag, p.sound_kernel, stride=(k, k), padding=(2, 2))
    conv = ops.relu(ops.channel_bias(conv, p.sound_bias))
    t_a = conv.data.shape[1]
    flat = ops.reshape(ops.transpose(conv, (1, 0, 2)), (t_a, -1))
    return EmbeddingSeq(p.sound_proj.apply(flat), "sound")


def encode_text(tokens, p: ClueNetParams) -> EmbeddingSeq:
    ids = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        raise ContractError("text clue must contain at least one token")
    if ids.size and (ids.min() < 0 or ids.max() >= p.vocab_size):
        raise InputError(
            f"token id out of vocabulary range [0, {p.vocab_size}): {ids.tolist()}"
        )
    rows = ops.gather_rows(p.text_table, ids)
    return EmbeddingSeq(p.text_proj.apply(rows), "text")


def encode_video(frames, p: ClueNetParams) -> EmbeddingSeq:
    arr = np.asarray(frames, dtype=p.dtype)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ContractError(f"video frames must be [T_v x D_vraw], got shape {arr.shape}")
    if arr.shape[1] != p.video_raw_dim:
        raise InputError(
            f"video feature dim {arr.shape[1]} does not match params ({p.video_raw_dim})"
        )
    return EmbeddingSeq(p.video_proj.apply(constant(arr)), "video")


def encode_tag(onehot, p: ClueNetParams) -> EmbeddingSeq:
    vec = np.asarray(onehot, dtype=p.dtype).reshape(-1)
    if vec.shape != (p.num_classes,):
        raise ContractError(
            f"tag one-hot has length {vec.shape[0]}, expected {p.num_classes}"
        )
    ones = np.flatnonzero(vec == 1.0)
    if len(ones) != 1 or np.count_nonzero(vec) != 1:
        raise ContractError("tag must be one-hot: exactly one entry equal to 1")
    return EmbeddingSeq(apply_linear(constant(vec[None, :]), p.tag_lin), "tag")


def encode_clues(
    clues: ClueSet,
    p: ClueNetParams,
    precomputed: dict[str, np.ndarray] | None = None,
) -> list[EmbeddingSeq]:
    """Encode every present modality; precomputed [L x D] embeddings bypass encoders."""
    precomputed = precomputed or {}
    out = []
    for modality in MODALITY_ORDER:
        if modality in precomputed:
            emb = np.asarray(precomputed[modality], dtype=p.dtype)
            if emb.ndim != 2 or emb.shape[1] != p.dim:
                raise InputError(
                    f"precomputed {modality} embedding must be [L x {p.dim}], got {emb.shape}"
                )
            out.append(EmbeddingSeq(constant(emb), modality))
        elif modality == "text" and clues.text is not None:
            out.append(encode_text(clues.text, p))
        elif modality == "video" and clues.video is not None:
            out.append(encode_video(clues.video, p))
        elif modality == "tag" and clues.tag is not None:
            out.append(encode_tag(clues.tag, p))
    return out


# ---------------------------------------------------------------------------
# concatenation, fusion, upsampling


def concat_clues(encodings: list[EmbeddingSeq]) -> tuple[EmbeddingSeq, list[tuple[str, int, int]]]:
    """Stack modality sequences in the fixed order [text; video; tag].

    Returns the combined sequence and a segment map of (modality, start, stop)
    row ranges.
    """
    if not encodings:
        raise ContractError("cannot concatenate an empty clue encoding list")
    by_modality = {}
    for e in encodings:
        if e.modality not in MODALITY_ORDER:
            raise ContractError(f"unexpected modality {e.modality!r} in clue concat")
        if e.modality in by_modality:
            raise ContractError(f"duplicate modality {e.modality!r} in clue concat")
        by_modality[e.modality] = e
    ordered = [by_modality[m] for m in MODALITY_ORDER if m in by_modality]
    dims = {e.dim for e in ordered}
    if len(dims) != 1:
        raise ContractError(f"clue encodings disagree on embedding dim: {sorted(dims)}")
    segments = []
    start = 0
    for e in ordered:
        segments.append((e.modality, start, start + e.length))
        start += e.length
    if len(ordered) == 1:
        combined = ordered[0].data
    else:
        combined = ops.concat([e.data for e in ordered], axis=0)
    return EmbeddingSeq(combined, "clue"), segments


def fuse_clues(q: EmbeddingSeq, u: EmbeddingSeq, p: MhaParams) -> tuple[EmbeddingSeq, Tensor]:
    """Cross-attention of sound-frame queries against the concatenated clue."""
    if q.dim != u.dim:
        raise ContractError(f"query dim {q.dim} != clue dim {u.dim}")
    out, weights = multi_head_attention(q.data, u.data, u.data, p)
    return EmbeddingSeq(out, "fused"), weights


def upsample_clue(c_u: Tensor, frames: int, k: int) -> Tensor:
    """Nearest-neighbor upsample [T_a x D] -> [T x D] by row repetition."""
    if c_u.data.ndim != 2:
        raise ContractError(f"fused clue must be [T_a x D], got {c_u.shape}")
    t_a = c_u.data.shape[0]
    if frames < t_a:
        raise ContractError(f"cannot upsample {t_a} rows down to {frames}")
    if k < 1:
        raise ContractError(f"upsample factor must be >= 1, got {k}")
    up = ops.repeat_rows(c_u, k)
    have = t_a * k
    if have > frames:
        up = ops.slice_axis(up, 0, 0, frames)
    elif have < frames:
        last = ops.slice_axis(up, 0, have - 1, have)
        up = ops.concat([up, ops.tile_rows(last, frames - have)], axis=0)
    return up


# ---------------------------------------------------------------------------
# embedding files


def write_embedding_file(path, modality: str, data: np.ndarray) -> None:
    if modality not in MODALITY_CODES:
        raise ContractError(f"unknown modality {modality!r}")
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise ContractError(f"embedding data must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(_EMB_MAGIC)
        f.write(struct.pack("<B", MODALITY_CODES[modality]))
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.astype("<f4").tobytes())


def read_embedding_file(path) -> tuple[str, np.ndarray]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    header = len(_EMB_MAGIC) + 1 + 8
    if len(blob) < header or not blob.startswith(_EMB_MAGIC):
        raise InputError(f"{path} is not an embedding file (bad magic)")
    code = blob[len(_EMB_MAGIC)]
    names = {v: k for k, v in MODALITY_CODES.items()}
    if code not in names:
        raise InputError(f"{path}: unknown modality code {code}")
    rows, cols = struct.unpack_from("<II", blob, len(_EMB_MAGIC) + 1)
    expected = header + 4 * rows * cols
    if len(blob) != expected:
        raise InputError(
            f"{path}: expected {expected} bytes for a {rows}x{cols} embedding, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=header).reshape(rows, cols)
    return names[code], data.astype(np.float32)

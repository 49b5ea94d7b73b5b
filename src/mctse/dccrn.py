"""Complex-spectrum extraction backbone.

A U-Net of complex convolutions runs over the mixture spectrogram (frequency
axis strided, time axis preserved via an explicit left pad), the bottleneck
features are enhanced by a pair of clue-conditioned LSTMs, and mirrored
transposed convolutions with skip connections decode the enhanced features
directly into the complex spectrum estimate of the target source.

Inside the U-Net a complex feature map of C channels is one real [2C, F, T]
tensor, the real channels then the imaginary ones, and each complex layer is
one real convolution with the block kernel of nn_blocks.complex_kernel, one
per-channel bias and one PReLU.

The conditioning clue is either a class embedding tiled over time (the
tag-only baseline trained in stage 1) or the attention-fused multi-modal clue
from clue_net (stage 2). Checkpoints serialize every parameter as named f32
records behind a JSON config header and round-trip bit-exactly.
"""

from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ops
from .clue_net import (
    ClueConfig,
    ClueNetParams,
    ClueSet,
    EmbeddingSeq,
    concat_clues,
    encode_clues,
    encode_sound,
    fuse_clues,
    upsample_clue,
)
from .data_sim import VOCAB
from .errors import ConfigError, ContractError, InputError
from .nn_blocks import (
    ComplexFeature,
    LinearParams,
    LstmParams,
    apply_linear,
    complex_kernel,
    complex_lstm_enhance,
    uniform_init,
)
from .signal import SAMPLE_RATE, AudioClip, ComplexSpec, StftConfig, istft_op, stft_array
from .tensor import Tensor, constant, no_grad

FREQ_KERNEL = 5
TIME_KERNEL = 2
FREQ_STRIDE = 2
FREQ_PAD = 2

CKPT_MAGIC = b"MCTSE1"
CKPT_VERSION = 1

VOCAB_SIZE = len(VOCAB)  # text clues are token ids into the simulator's vocabulary


@dataclass(frozen=True)
class DccrnConfig:
    channels: tuple[int, ...] = (8, 16, 32, 32)
    lstm_hidden: int = 64
    lstm_layers: int = 2
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        if not self.channels or any(c < 1 for c in self.channels):
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.lstm_hidden < 1 or self.lstm_layers < 1:
            raise ConfigError(
                f"lstm dims must be positive, got hidden={self.lstm_hidden}, "
                f"layers={self.lstm_layers}"
            )
        sizes = self.freq_sizes()
        if sizes[-1] < 1:
            raise ConfigError(f"frequency axis collapses below 1: {sizes}")
        for depth, f in enumerate(sizes[:-1]):
            if f % 2 == 0:
                raise ConfigError(
                    f"frequency size {f} at depth {depth} is even; the mirrored "
                    f"decoder cannot reproduce it (chain {sizes})"
                )

    def freq_sizes(self) -> list[int]:
        """Frequency bins entering each layer, then the bottleneck size."""
        sizes = [self.stft.bins]
        for _ in self.channels:
            f = sizes[-1]
            sizes.append((f + 2 * FREQ_PAD - FREQ_KERNEL) // FREQ_STRIDE + 1)
        return sizes

    @property
    def feature_dim(self) -> int:
        return self.channels[-1] * self.freq_sizes()[-1]


@dataclass
class ComplexConvParams:
    kr: Tensor
    ki: Tensor
    br: Tensor
    bi: Tensor
    slope_r: Tensor | None  # None on the linear output layer
    slope_i: Tensor | None

    @classmethod
    def init(cls, rng, c_in, c_out, transposed=False, activation=True, dtype=np.float64):
        shape = (c_in, c_out, FREQ_KERNEL, TIME_KERNEL) if transposed else (
            c_out, c_in, FREQ_KERNEL, TIME_KERNEL
        )
        fan_in = c_in * FREQ_KERNEL * TIME_KERNEL
        slope = lambda: Tensor(np.full(1, 0.25, dtype=dtype), requires_grad=True)
        return cls(
            kr=uniform_init(rng, shape, fan_in, dtype),
            ki=uniform_init(rng, shape, fan_in, dtype),
            br=Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True),
            bi=Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True),
            slope_r=slope() if activation else None,
            slope_i=slope() if activation else None,
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        names = {f"{prefix}.kr": self.kr, f"{prefix}.ki": self.ki,
                 f"{prefix}.br": self.br, f"{prefix}.bi": self.bi}
        if self.slope_r is not None:
            names[f"{prefix}.ar"] = self.slope_r
            names[f"{prefix}.ai"] = self.slope_i
        return names


def _lstm_named(p: LstmParams, prefix: str) -> dict[str, Tensor]:
    names = {}
    for li, layer in enumerate(p.layers):
        for di, d in enumerate(layer):
            tag = "fwd" if di == 0 else "bwd"
            names[f"{prefix}.l{li}.{tag}.wx"] = d.wx
            names[f"{prefix}.l{li}.{tag}.wh"] = d.wh
            names[f"{prefix}.l{li}.{tag}.bias"] = d.bias
    return names


class Model:
    """All parameters of the extraction network, the tag embedding and, in
    stage 2, the clue network."""

    def __init__(
        self,
        rng: np.random.Generator,
        cfg: DccrnConfig | None = None,
        num_classes: int = 4,
        vocab_size: int = VOCAB_SIZE,
        clue_cfg: ClueConfig | None = None,
        stage: int = 1,
        dtype=np.float64,
    ):
        if stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {stage}")
        self.cfg = cfg or DccrnConfig()
        self.clue_cfg = clue_cfg or ClueConfig()
        self.num_classes = num_classes
        self.vocab_size = vocab_size
        self.stage = stage
        self.dtype = dtype

        d = self.cfg.feature_dim
        chans = (1,) + tuple(self.cfg.channels)
        self.encoder = [
            ComplexConvParams.init(rng, chans[i], chans[i + 1], dtype=dtype)
            for i in range(len(self.cfg.channels))
        ]
        rev = list(reversed(chans))  # deepest first, ends at the 1-channel spectrum
        self.decoder = [
            ComplexConvParams.init(
                rng,
                2 * rev[i],
                rev[i + 1],
                transposed=True,
                activation=(i + 1 < len(self.cfg.channels)),
                dtype=dtype,
            )
            for i in range(len(self.cfg.channels))
        ]
        self.lstm_r = LstmParams(rng, d, self.cfg.lstm_hidden, self.cfg.lstm_layers, True, dtype)
        self.lstm_i = LstmParams(rng, d, self.cfg.lstm_hidden, self.cfg.lstm_layers, True, dtype)
        width = 2 * self.cfg.lstm_hidden
        self.proj_r = LinearParams.init(rng, width, d, dtype)
        self.proj_i = LinearParams.init(rng, width, d, dtype)
        self.tag_tile = LinearParams.init(rng, num_classes, d, dtype)
        # The clue network is drawn last and only in stage 2, so a stage-1
        # model draws exactly the parameters it trains and saves.
        self.clue: ClueNetParams | None = None
        if stage == 2:
            self.clue = ClueNetParams(
                rng,
                dim=d,
                num_classes=num_classes,
                vocab_size=vocab_size,
                bins=self.cfg.stft.bins,
                dtype=dtype,
                **asdict(self.clue_cfg),
            )

    # -- parameter bookkeeping ------------------------------------------------

    def backbone_named(self) -> dict[str, Tensor]:
        names: dict[str, Tensor] = {}
        for i, layer in enumerate(self.encoder):
            names.update(layer.named(f"enc{i}"))
        for i, layer in enumerate(self.decoder):
            names.update(layer.named(f"dec{i}"))
        names.update(_lstm_named(self.lstm_r, "lstm_r"))
        names.update(_lstm_named(self.lstm_i, "lstm_i"))
        names.update({"proj_r.w": self.proj_r.w, "proj_r.b": self.proj_r.b,
                      "proj_i.w": self.proj_i.w, "proj_i.b": self.proj_i.b})
        return names

    def named_tensors(self) -> dict[str, Tensor]:
        """Parameters serialized for the current training stage."""
        names = self.backbone_named()
        if self.stage == 1:
            names.update({"tag_tile.w": self.tag_tile.w, "tag_tile.b": self.tag_tile.b})
        else:
            names.update({f"clue.{k}": v for k, v in self.clue.named_tensors().items()})
        return names

    def trainable_tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    # -- forward pieces -------------------------------------------------------

    def _time_pad(self, x: Tensor) -> Tensor:
        c, f, _ = x.data.shape
        zeros = Tensor(np.zeros((c, f, TIME_KERNEL - 1), dtype=x.data.dtype))
        return ops.concat([zeros, x], axis=2)

    def _activate(self, y: Tensor, layer: ComplexConvParams) -> Tensor:
        """Bias and PReLU of a stacked map: the real-part values on the real
        channels, the imaginary-part values on the imaginary ones."""
        y = ops.channel_bias(y, ops.concat([layer.br, layer.bi]))
        if layer.slope_r is not None:
            c = layer.br.data.shape[0]
            y = ops.prelu(y, ops.concat([layer.slope_r] * c + [layer.slope_i] * c))
        return y

    @staticmethod
    def _frames(x: Tensor) -> ComplexFeature:
        """A stacked [2C, F, T] map as complex [T x C*F] features."""
        c2, f, frames = x.data.shape
        flat = ops.reshape(ops.transpose(x, (2, 0, 1)), (frames, c2 * f))
        return ComplexFeature.from_stacked(flat, axis=1)

    def encode(self, spec: ComplexSpec) -> tuple[ComplexFeature, list[Tensor]]:
        """Run the convolutional encoder; returns flattened [T x D] features and
        the stacked [2C, F, T] skips."""
        if spec.real.shape[1] != self.cfg.stft.bins:
            raise ContractError(
                f"spectrum has {spec.real.shape[1]} bins, model expects {self.cfg.stft.bins}"
            )
        cur = constant(np.stack([spec.real.T, spec.imag.T]).astype(self.dtype))
        skips = []
        for layer in self.encoder:
            conv = ops.conv2d(
                self._time_pad(cur),
                complex_kernel(layer.kr, layer.ki),
                stride=(FREQ_STRIDE, 1),
                padding=(FREQ_PAD, 0),
            )
            cur = self._activate(conv, layer)
            skips.append(cur)
        return self._frames(cur), skips

    def enhance(self, y: ComplexFeature, clue: Tensor) -> ComplexFeature:
        return complex_lstm_enhance(
            y, clue, self.lstm_r, self.lstm_i, self.proj_r, self.proj_i
        )

    def decode(self, f_out: ComplexFeature, skips: list[Tensor]) -> ComplexFeature:
        """Mirror the encoder back to a [T x F] complex spectrum estimate."""
        if len(skips) != len(self.decoder):
            raise ContractError(
                f"expected {len(self.decoder)} skip features, got {len(skips)}"
            )
        frames = f_out.shape[0]
        c, f = self.cfg.channels[-1], self.cfg.freq_sizes()[-1]
        cur = ops.transpose(ops.reshape(f_out.stacked(axis=1), (frames, 2 * c, f)), (1, 2, 0))
        for layer, skip in zip(self.decoder, reversed(skips)):
            if cur.data.shape != skip.data.shape:
                raise ContractError(
                    f"skip feature {skip.shape} does not match decoder input {cur.shape}"
                )
            # [cur_r, cur_i, skip_r, skip_i]: two stacked maps, two kernel groups
            up = ops.conv2d_transpose(
                ops.concat([cur, skip], axis=0),
                complex_kernel(layer.kr, layer.ki, transposed=True, groups=2),
                stride=(FREQ_STRIDE, 1),
                padding=(FREQ_PAD, 0),
            )
            cur = self._activate(ops.slice_axis(up, 2, 1, frames + 1), layer)
        return self._frames(cur)

    # -- clue routing ---------------------------------------------------------

    def tag_clue(self, onehot: np.ndarray, frames: int) -> Tensor:
        vec = np.asarray(onehot, dtype=self.dtype).reshape(1, -1)
        if vec.shape[1] != self.num_classes:
            raise ContractError(
                f"tag one-hot has length {vec.shape[1]}, expected {self.num_classes}"
            )
        embedded = apply_linear(constant(vec), self.tag_tile)
        return ops.tile_rows(embedded, frames)


@dataclass
class ModelOutput:
    real: Tensor
    imag: Tensor
    wave: Tensor
    attention: Tensor | None = None
    segments: list[tuple[str, int, int]] | None = None


@dataclass
class MixtureEncoding:
    """The part of the forward that the clue does not enter.

    Every clue set for one mixture reuses it: the spectrum, the flattened
    [T x D] bottleneck features, the encoder skips (each a stacked
    [2C, F, T] map, real channels then imaginary) and, in stage 2 only, the
    sound-embedding queries.
    """

    spec: ComplexSpec
    features: ComplexFeature
    skips: list[Tensor]
    sound: EmbeddingSeq | None
    length: int  # samples in the mixture, and so in the estimate


def encode_mixture(model: Model, mixture: np.ndarray) -> MixtureEncoding:
    """STFT, U-Net encoder and (stage 2) sound embedding of one waveform."""
    mixture = np.asarray(mixture, dtype=np.float64).reshape(-1)
    cfg = model.cfg.stft
    spec_c = stft_array(mixture, cfg)
    spec = ComplexSpec(spec_c.real.copy(), spec_c.imag.copy(), cfg)
    features, skips = model.encode(spec)
    sound = encode_sound(spec, model.clue) if model.stage == 2 else None
    return MixtureEncoding(spec, features, skips, sound, len(mixture))


def run_encoded(
    model: Model,
    enc: MixtureEncoding,
    clues: ClueSet,
    precomputed: dict[str, np.ndarray] | None = None,
) -> ModelOutput:
    """The clue step: condition, enhance and decode an encoded mixture."""
    frames = enc.spec.frames
    attention = None
    segments = None
    if model.stage == 1:
        if clues.tag is None:
            raise ContractError("a stage-1 model conditions on the tag clue only")
        clue_vec = model.tag_clue(clues.tag, frames)
    else:
        u, segments = concat_clues(encode_clues(clues, model.clue, precomputed))
        fused, attention = fuse_clues(enc.sound, u, model.clue.mha)
        clue_vec = upsample_clue(fused.data, frames, model.clue.downsample)
    enhanced = model.enhance(enc.features, clue_vec)
    decoded = model.decode(enhanced, enc.skips)
    wave = istft_op(decoded.real, decoded.imag, model.cfg.stft, out_len=enc.length)
    return ModelOutput(decoded.real, decoded.imag, wave, attention, segments)


def run_model(
    model: Model,
    mixture: np.ndarray,
    clues: ClueSet,
    precomputed: dict[str, np.ndarray] | None = None,
) -> ModelOutput:
    """Full differentiable forward pass from waveform to waveform."""
    return run_encoded(model, encode_mixture(model, mixture), clues, precomputed)


def check_sample_rate(mixture: AudioClip) -> None:
    """Reject a mixture that is not at the model's rate; nothing is resampled."""
    if mixture.sample_rate != SAMPLE_RATE:
        raise InputError(
            f"mixture is sampled at {mixture.sample_rate} Hz; the model expects "
            f"{SAMPLE_RATE} Hz"
        )


def _estimate(out: ModelOutput, rate: int) -> tuple[AudioClip, np.ndarray | None]:
    clip = AudioClip(np.asarray(out.wave.data, dtype=np.float64), rate)
    attention = None if out.attention is None else np.array(out.attention.data)
    return clip, attention


def extract(
    mixture: AudioClip,
    clues: ClueSet,
    model: Model,
    precomputed: dict[str, np.ndarray] | None = None,
) -> tuple[AudioClip, np.ndarray | None]:
    """Run the trained model on one mixture; returns the estimate and attention.

    The forward runs under no_grad(), so no graph is kept while it runs.
    The mixture must be at the model's rate; nothing is resampled.
    """
    check_sample_rate(mixture)
    with no_grad():
        out = run_model(model, mixture.samples, clues, precomputed)
    return _estimate(out, mixture.sample_rate)


def extract_each(
    mixture: AudioClip,
    clue_sets: list[ClueSet],
    model: Model,
) -> list[tuple[AudioClip, np.ndarray | None]]:
    """extract() of one mixture under each clue set, encoding the mixture once.

    The results are byte-identical to calling extract() once per clue set:
    the clue step runs the same ops on the same encoded arrays, and under
    no_grad() nothing it computes is written back into them.
    """
    check_sample_rate(mixture)
    with no_grad():
        enc = encode_mixture(model, mixture.samples)
        return [_estimate(run_encoded(model, enc, clues), mixture.sample_rate)
                for clues in clue_sets]


# ---------------------------------------------------------------------------
# checkpoints


def model_section(cfg: DccrnConfig = DccrnConfig(), clue_cfg: ClueConfig = ClueConfig(),
                  vocab_size: int = VOCAB_SIZE) -> dict:
    """The JSON form of an architecture: the "model" settings of a config file.

    With "stage" and "num_classes" added it is a checkpoint's header.
    """
    section = asdict(cfg)
    section.update(channels=list(cfg.channels), vocab_size=vocab_size, clue=asdict(clue_cfg))
    return section


def _fits(default, value) -> bool:
    """Whether value has the JSON type of default; an integer fits a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(default, dict):
        sample = next(iter(default.values()))
        return isinstance(value, dict) and all(_fits(sample, v) for v in value.values())
    kinds = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kinds) and not isinstance(value, bool)


def overlay_settings(defaults: dict, given, trail: str = "", complete: bool = False,
                     whole: frozenset = frozenset()) -> dict:
    """given's settings laid over defaults, whose values fix each setting's type.

    An unknown key, a value of another JSON type than its default and, when
    complete, a missing key are InputErrors naming the dotted key. Objects
    merge key by key, except the dict-valued settings named in whole, which
    are replaced.
    """
    if not isinstance(given, dict):
        raise InputError(f"config key {trail!r} must be an object" if trail
                         else "config must be a JSON object")

    def dotted(key: str) -> str:
        return f"{trail}.{key}" if trail else key

    unknown = [key for key in given if key not in defaults]
    if unknown:
        raise InputError(f"unknown config key {dotted(unknown[0])!r}")
    missing = [key for key in defaults if key not in given]
    if complete and missing:
        raise InputError(f"config is missing key {dotted(missing[0])!r}")
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        default = defaults[key]
        if isinstance(default, dict) and key not in whole:
            merged[key] = overlay_settings(default, value, dotted(key), complete, whole)
        elif not _fits(default, value):
            raise InputError(f"config key {dotted(key)!r} must have the type of "
                             f"{default!r}, got {value!r}")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def model_from_config(config: dict, rng: np.random.Generator | None = None,
                      dtype=np.float32) -> Model:
    """The model that model_section() plus "stage" and "num_classes" describes."""
    template = {**model_section(), "stage": 1, "num_classes": 1}  # values fix only types
    settings = overlay_settings(template, config, complete=True)
    backbone = {f.name: settings.pop(f.name) for f in fields(DccrnConfig)}
    backbone.update(channels=tuple(backbone["channels"]), stft=StftConfig(**backbone["stft"]))
    return Model(rng or np.random.default_rng(0), DccrnConfig(**backbone),
                 clue_cfg=ClueConfig(**settings.pop("clue")), dtype=dtype, **settings)


def save_checkpoint(path, model: Model) -> None:
    """Write the model to path atomically: a failed write leaves path as it was."""
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    header = {**model_section(model.cfg, model.clue_cfg, model.vocab_size),
              "stage": model.stage, "num_classes": model.num_classes}
    cfg_json = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(cfg_json))
    blob += cfg_json
    named = model.named_tensors()
    for name in sorted(named):
        tensor = named[name]
        data = np.ascontiguousarray(tensor.data, dtype="<f4")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", data.ndim)
        blob += struct.pack(f"<{data.ndim}I", *data.shape)
        blob += data.tobytes()
    # Write beside the target, then rename over it: the rename is atomic, so
    # an interrupted or failed write never leaves a half-written file at path.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> Model:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None

    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise InputError(f"{path}: truncated checkpoint")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(len(CKPT_MAGIC))) != CKPT_MAGIC:
        raise InputError(f"{path} is not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CKPT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = json.loads(bytes(take(cfg_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: unreadable checkpoint config: {exc}") from None

    try:
        model = model_from_config(config, dtype=np.float32)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    expected = model.named_tensors()
    seen = set()
    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(dims)
        if name not in expected:
            raise InputError(f"{path}: unexpected parameter record {name!r}")
        target = expected[name]
        if tuple(target.data.shape) != tuple(dims):
            raise InputError(
                f"{path}: parameter {name!r} has shape {dims}, "
                f"config implies {tuple(target.data.shape)}"
            )
        target.data = data.astype(np.float32).copy()
        seen.add(name)
    missing = sorted(set(expected) - seen)
    if missing:
        raise InputError(f"{path}: checkpoint is missing parameters {missing[:5]}")
    return model

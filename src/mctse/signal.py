"""STFT/iSTFT frontend, SNR-controlled mixing, SNR metrics and WAV files.

The analysis transform uses a periodic Hann window with reflective padding of
win_len/2 on each side, so a clip of n samples yields
T = 1 + (n + 2*pad - win_len) // hop frames. Synthesis is weighted
overlap-add with window-square normalization. Both transforms exist twice:
as plain numpy functions and as fused tape operations whose backward rules
are the exact adjoints of the linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor, make_node

SAMPLE_RATE = 16000  # the rate every model is built for
SNR_CLAMP_DB = 120.0
_OLA_FLOOR = 1e-10


def periodic_hann(win_len: int) -> np.ndarray:
    n = np.arange(win_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len)


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 512
    win_len: int = 400
    hop: int = 100

    def __post_init__(self):
        if not (0 < self.hop <= self.win_len <= self.fft_size):
            raise ConfigError(
                f"need 0 < hop <= win_len <= fft_size, got "
                f"hop={self.hop}, win_len={self.win_len}, fft_size={self.fft_size}"
            )

    @property
    def pad(self) -> int:
        return self.win_len // 2

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1

    def window(self) -> np.ndarray:
        return periodic_hann(self.win_len)

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.win_len:
            raise InputError(
                f"clip of {n_samples} samples is shorter than the {self.win_len}-sample window"
            )
        return 1 + (n_samples + 2 * self.pad - self.win_len) // self.hop


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.samples)):
            raise InputError("audio samples must be finite")
        if self.sample_rate <= 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class ComplexSpec:
    real: np.ndarray
    imag: np.ndarray
    cfg: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        self.real = np.asarray(self.real)
        self.imag = np.asarray(self.imag)
        if self.real.shape != self.imag.shape:
            raise ContractError(
                f"real/imag shapes differ: {self.real.shape} vs {self.imag.shape}"
            )
        if self.real.ndim != 2 or self.real.shape[1] != self.cfg.bins:
            raise ContractError(
                f"expected [T x {self.cfg.bins}] spectrum, got {self.real.shape}"
            )

    @property
    def frames(self) -> int:
        return self.real.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.real, self.imag)


# ---------------------------------------------------------------------------
# framing helpers


def _frame_indices(cfg: StftConfig, frames: int) -> np.ndarray:
    return cfg.hop * np.arange(frames)[:, None] + np.arange(cfg.win_len)[None, :]


def _reflect_index_map(n: int, pad: int) -> np.ndarray:
    """Indices such that x[map] == np.pad(x, pad, mode='reflect')."""
    return np.pad(np.arange(n), pad, mode="reflect")


def _ola_normalizer(cfg: StftConfig, frames: int, dtype) -> np.ndarray:
    buf_len = (frames - 1) * cfg.hop + cfg.win_len
    norm = np.zeros(buf_len, dtype=dtype)
    w2 = (cfg.window() ** 2).astype(dtype)
    idx = _frame_indices(cfg, frames)
    np.add.at(norm, idx.reshape(-1), np.broadcast_to(w2, idx.shape).reshape(-1))
    return norm


def _analysis(x: np.ndarray, cfg: StftConfig):
    """Shared forward path: reflect-pad, frame, window, rfft."""
    n = x.shape[0]
    frames = cfg.frame_count(n)
    pad_map = _reflect_index_map(n, cfg.pad)
    idx = _frame_indices(cfg, frames)
    win = cfg.window().astype(x.dtype)
    seg = x[pad_map][idx] * win
    spec = np.fft.rfft(seg, n=cfg.fft_size, axis=1)
    return spec, pad_map, idx, win


def stft_array(x: np.ndarray, cfg: StftConfig | None = None) -> np.ndarray:
    """Complex [T x F] spectrum of a 1-D signal."""
    cfg = cfg or StftConfig()
    spec, _, _, _ = _analysis(np.asarray(x), cfg)
    return spec


def stft(clip: AudioClip, cfg: StftConfig | None = None) -> ComplexSpec:
    cfg = cfg or StftConfig()
    spec = stft_array(clip.samples, cfg)
    return ComplexSpec(spec.real.copy(), spec.imag.copy(), cfg)


def _synthesis(spec: np.ndarray, cfg: StftConfig, out_len: int):
    """WOLA reconstruction; returns (signal, emit slice info) for reuse in adjoints."""
    frames = spec.shape[0]
    seg = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.win_len]
    win = cfg.window().astype(seg.dtype)
    seg = seg * win
    buf_len = (frames - 1) * cfg.hop + cfg.win_len
    buf = np.zeros(buf_len, dtype=seg.dtype)
    idx = _frame_indices(cfg, frames)
    np.add.at(buf, idx.reshape(-1), seg.reshape(-1))
    norm = _ola_normalizer(cfg, frames, seg.dtype)
    avail = min(out_len, max(0, buf_len - cfg.pad))
    sl = slice(cfg.pad, cfg.pad + avail)
    if avail and float(norm[sl].min()) < _OLA_FLOOR:
        raise ConfigError(
            f"overlap-add normalizer below {_OLA_FLOOR} for win_len={cfg.win_len}, hop={cfg.hop}"
        )
    out = np.zeros(out_len, dtype=seg.dtype)
    out[:avail] = buf[sl] / norm[sl]
    return out, norm, idx, win, sl, avail


def istft_array(spec: np.ndarray, cfg: StftConfig | None = None, out_len: int | None = None) -> np.ndarray:
    cfg = cfg or StftConfig()
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.bins:
        raise ContractError(f"expected [T x {cfg.bins}] spectrum, got {spec.shape}")
    if out_len is None:
        out_len = (spec.shape[0] - 1) * cfg.hop + cfg.win_len - 2 * cfg.pad
    out, *_ = _synthesis(spec, cfg, out_len)
    return out


def istft(spec: ComplexSpec, out_len: int, sample_rate: int = SAMPLE_RATE) -> AudioClip:
    samples = istft_array(spec.real + 1j * spec.imag, spec.cfg, out_len)
    return AudioClip(samples, sample_rate)


# ---------------------------------------------------------------------------
# differentiable transforms
#
# The rfft of a real frame is linear, so the backward rule is its exact
# adjoint. With theta = 2*pi*k*m/N and onesided bins k = 0..N/2:
#   R_k = sum_m x_m cos(theta),  I_k = -sum_m x_m sin(theta)
# hence d x_m = sum_k gR_k cos(theta) - gI_k sin(theta)
#             = N * irfft(c * (gR + i*gI))_m  with c = (1, 1/2, ..., 1/2, 1),
# the imaginary parts at DC and Nyquist contributing nothing. The irfft
# adjoint runs the same identity in reverse with c = (1, 2, ..., 2, 1)/N.


def _half_weights(bins: int, dtype) -> np.ndarray:
    c = np.full(bins, 0.5, dtype=dtype)
    c[0] = 1.0
    c[-1] = 1.0
    return c


def stft_op(x: Tensor, cfg: StftConfig | None = None) -> tuple[Tensor, Tensor]:
    """Differentiable analysis transform; returns (real, imag) [T x F] tensors."""
    cfg = cfg or StftConfig()
    spec, pad_map, idx, win = _analysis(x.data, cfg)
    n = x.data.shape[0]
    fft = cfg.fft_size

    def scatter_back(dspec_half: np.ndarray) -> np.ndarray:
        dframe = fft * np.fft.irfft(dspec_half, n=fft, axis=1)[:, : cfg.win_len]
        dxp = np.zeros(n + 2 * cfg.pad, dtype=x.data.dtype)
        np.add.at(dxp, idx.reshape(-1), (dframe * win).reshape(-1))
        dx = np.zeros(n, dtype=x.data.dtype)
        np.add.at(dx, pad_map, dxp)
        return dx

    c_half = _half_weights(cfg.bins, spec.real.dtype)

    def rule_real(g, sink):
        sink(x, scatter_back(g * c_half + 0j))

    def rule_imag(g, sink):
        gi = g * c_half
        h = 1j * gi
        h[:, 0] = 0.0
        h[:, -1] = 0.0
        sink(x, scatter_back(h))

    real_t = make_node(np.ascontiguousarray(spec.real), (x,), rule_real)
    imag_t = make_node(np.ascontiguousarray(spec.imag), (x,), rule_imag)
    return real_t, imag_t


def istft_op(real: Tensor, imag: Tensor, cfg: StftConfig | None = None, out_len: int | None = None) -> Tensor:
    """Differentiable WOLA synthesis from separate real/imag [T x F] tensors."""
    cfg = cfg or StftConfig()
    if real.data.shape != imag.data.shape:
        raise ContractError(f"real/imag shapes differ: {real.shape} vs {imag.shape}")
    if real.data.ndim != 2 or real.data.shape[1] != cfg.bins:
        raise ContractError(f"expected [T x {cfg.bins}] spectrum, got {real.shape}")
    if out_len is None:
        out_len = (real.data.shape[0] - 1) * cfg.hop + cfg.win_len - 2 * cfg.pad
    spec = real.data + 1j * imag.data
    # DC and Nyquist of a real signal's spectrum are real; drop any imaginary
    # leakage so those inputs are exactly ignored (matching the adjoint below).
    spec[:, 0] = real.data[:, 0]
    spec[:, -1] = real.data[:, -1]
    out, norm, idx, win, sl, avail = _synthesis(spec, cfg, out_len)
    fft = cfg.fft_size

    def rule(g, sink):
        dbuf = np.zeros(norm.shape[0], dtype=g.dtype)
        dbuf[sl] = g[:avail] / norm[sl]
        dseg = dbuf[idx] * win
        dfull = np.zeros((idx.shape[0], fft), dtype=g.dtype)
        dfull[:, : cfg.win_len] = dseg
        f = np.fft.rfft(dfull, n=fft, axis=1)
        c = np.full(cfg.bins, 2.0 / fft, dtype=g.dtype)
        c[0] = 1.0 / fft
        c[-1] = 1.0 / fft
        dr = c * f.real
        di = c * f.imag
        di[:, 0] = 0.0
        di[:, -1] = 0.0
        sink(real, dr)
        sink(imag, di)

    return make_node(out, (real, imag), rule)


# ---------------------------------------------------------------------------
# mixing and metrics


def _energy(x: np.ndarray) -> float:
    return float(np.dot(x, x))


def mix_at_snr(target: AudioClip, interferer: AudioClip, snr_db: float) -> tuple[AudioClip, AudioClip]:
    """Scale the interferer so the pair sits at exactly snr_db, then sum."""
    if len(target) != len(interferer) or target.sample_rate != interferer.sample_rate:
        raise ContractError(
            f"clips disagree: {len(target)}@{target.sample_rate} vs "
            f"{len(interferer)}@{interferer.sample_rate}"
        )
    es = _energy(target.samples)
    en = _energy(interferer.samples)
    if es == 0.0 or en == 0.0:
        raise InputError("mix_at_snr needs nonzero-energy inputs")
    gain = np.sqrt(es / (en * 10.0 ** (snr_db / 10.0)))
    scaled = AudioClip(gain * interferer.samples, interferer.sample_rate)
    mixture = AudioClip(target.samples + scaled.samples, target.sample_rate)
    return mixture, scaled


def snr(reference: AudioClip, estimate: AudioClip) -> float:
    """10*log10(signal/error) clamped to +/-120 dB."""
    if len(reference) != len(estimate):
        raise ContractError(f"length mismatch: {len(reference)} vs {len(estimate)}")
    es = _energy(reference.samples)
    if es == 0.0:
        raise InputError("snr needs a nonzero reference")
    err = _energy(reference.samples - estimate.samples)
    value = 10.0 * np.log10(es / max(err, 1e-12 * es))
    return float(np.clip(value, -SNR_CLAMP_DB, SNR_CLAMP_DB))


def snr_improvement(mixture: AudioClip, estimate: AudioClip, reference: AudioClip) -> float:
    return snr(reference, estimate) - snr(reference, mixture)


# ---------------------------------------------------------------------------
# WAV files


def read_wav(path) -> AudioClip:
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except ValueError as exc:
        raise InputError(f"unreadable WAV file {path}: {exc}") from None
    if data.ndim != 1:
        raise InputError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InputError(f"{path}: unsupported sample format {data.dtype}")
    return AudioClip(samples, int(rate))


def write_wav(path, clip: AudioClip, pcm16: bool = True) -> None:
    if pcm16:
        scaled = np.clip(clip.samples, -1.0, 1.0 - 1.0 / 32768.0)
        wavfile.write(path, clip.sample_rate, (scaled * 32768.0).astype(np.int16))
    else:
        wavfile.write(path, clip.sample_rate, clip.samples.astype(np.float32))

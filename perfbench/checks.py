"""Correctness checks for the benchmark's workloads.

Each check compares a program output with a value computed apart from the
program, or with a property the method must have. A check returns a list of
failure messages (empty when it passes), so ``selftest.py`` can hand it a
deliberately wrong value and confirm that it rejects it.
"""

from __future__ import annotations

import numpy as np

from mctse import dccrn, tensor, train_eval
from mctse.clue_net import ClueSet

# Adam's defaults in train_eval.AdamState.
BETA1, BETA2 = 0.9, 0.999
# The gradient and reference checks run on the first 0.5 s of a 16 kHz clip.
CHECK_SAMPLES = 8000
# Relative error allowed between two estimates that must agree: after a clue
# permutation (exact up to summation order), and against the float64 numpy
# reference (the stage-1 model computes in float32).
PERMUTATION_RTOL = 1e-5
REFERENCE_RTOL = 1e-4


# ---------------------------------------------------------------------------
# train


def check_losses(history: list[dict]) -> list[str]:
    return [
        f"epoch {row['epoch']}: non-finite {key} {row[key]}"
        for row in history
        for key in ("train_loss", "valid_loss")
        if not np.isfinite(row[key])
    ]


def adam_step_bound(t: int) -> float:
    """Largest |m_hat| / sqrt(v_hat) Adam can reach at step t.

    By Cauchy-Schwarz over the moment sums, with g = beta1^2 / beta2:
    |m_t| <= (1-b1) sqrt(sum g^k) sqrt(v_t / (1-b2)), then bias-correct.
    """
    gamma = BETA1**2 / BETA2
    return ((1 - BETA1) / (1 - BETA1**t)
            * np.sqrt((1 - gamma**t) / (1 - gamma))
            * np.sqrt((1 - BETA2**t) / (1 - BETA2)))


def check_adam_displacement(before: dict, after: dict, lrs: list[float]) -> list[str]:
    """No parameter moved further than len(lrs) Adam steps at those rates allow."""
    bound = sum(lr * adam_step_bound(t) for t, lr in enumerate(lrs, start=1))
    failures = []
    for name, old in before.items():
        new = after[name]
        # float32 storage may round each step by up to one ulp of the value.
        slack = len(lrs) * np.spacing(np.maximum(np.abs(old), np.abs(new)).astype(old.dtype))
        moved = np.abs(new.astype(np.float64) - old.astype(np.float64))
        excess = moved - (bound + slack)
        if np.any(excess > 0):
            failures.append(
                f"{name} moved {float(moved.max()):.3e}, Adam allows {bound:.3e}")
    return failures


def float64_copy(model: dccrn.Model) -> dccrn.Model:
    copy = dccrn.Model(np.random.default_rng(0), model.cfg, num_classes=model.num_classes,
                       vocab_size=model.vocab_size, clue_cfg=model.clue_cfg,
                       stage=model.stage, dtype=np.float64)
    source = model.named_tensors()
    for name, t in copy.named_tensors().items():
        t.data = source[name].data.astype(np.float64)
    return copy


def directional_derivatives(model: dccrn.Model, mixture, target, clues: ClueSet,
                            seed: int, eps: float = 1e-6) -> tuple[float, float]:
    """(backward's gradient . d, central difference of the loss along d).

    d is a random unit direction over all of the stage's parameters, on a
    float64 copy of the model.
    """
    m64 = float64_copy(model)
    params = m64.trainable_tensors()
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]

    def loss_value():
        out = dccrn.run_model(m64, mixture.samples, clues)
        return train_eval.extraction_loss(target, out, m64.cfg.stft)

    tensor.zero_grads(params)
    tensor.backward(loss_value())
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, direction))
    base = [p.data.copy() for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, direction):
            p.data = b + sign * eps * d
        values.append(float(loss_value().data))
    numeric = (values[0] - values[1]) / (2 * eps)
    return analytic, numeric


def check_gradient(analytic: float, numeric: float, rtol: float = 1e-3) -> list[str]:
    if abs(analytic - numeric) <= rtol * max(abs(analytic), abs(numeric), 1e-3):
        return []
    return [f"directional derivative {analytic:.8e} from backward, "
            f"{numeric:.8e} from central differences"]


# ---------------------------------------------------------------------------
# evaluate


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    return float(10.0 * np.log10(np.sum(reference**2) / np.sum((reference - estimate) ** 2)))


def restrict(clues: ClueSet, subset: str) -> ClueSet:
    names = subset.split("+")
    return ClueSet(tag=clues.tag if "tag" in names else None,
                   text=clues.text if "text" in names else None,
                   video=clues.video if "video" in names else None)


def recompute_snri(example, subset: str, model: dccrn.Model) -> float:
    estimate, _ = dccrn.extract(example.mixture, restrict(example.clues, subset), model)
    target = example.target.samples
    return snr_db(target, estimate.samples) - snr_db(target, example.mixture.samples)


def check_report_rows(rows: list[dict], ids: list[str], subsets) -> list[str]:
    expected = sorted((i, s) for i in ids for s in subsets)
    got = sorted((r["id"], r["subset"]) for r in rows)
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))
    return [f"report has {len(got)} rows, expected {len(expected)} (one per record "
            f"and subset); missing {missing[:3]}"]


def check_snri(reported: float, recomputed: float, tol_db: float = 1e-6) -> list[str]:
    if np.isfinite(reported) and abs(reported - recomputed) <= tol_db:
        return []
    return [f"reported SNRi {reported:.9f} dB, recomputed {recomputed:.9f} dB"]


# ---------------------------------------------------------------------------
# extract


def check_estimate(estimate, mixture) -> list[str]:
    failures = []
    if len(estimate.samples) != len(mixture.samples):
        failures.append(f"estimate has {len(estimate.samples)} samples, "
                        f"mixture {len(mixture.samples)}")
    if estimate.sample_rate != mixture.sample_rate:
        failures.append(f"estimate rate {estimate.sample_rate}, mixture {mixture.sample_rate}")
    if not np.all(np.isfinite(estimate.samples)):
        failures.append("estimate has non-finite samples")
    return failures


def check_attention(weights: np.ndarray, tol: float = 1e-6) -> list[str]:
    failures = []
    if np.any(weights < 0):
        failures.append(f"negative attention weight {float(weights.min()):.3e}")
    worst = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))
    if worst > tol:
        failures.append(f"attention row sums differ from 1 by up to {worst:.3e}")
    return failures


def check_same(a: np.ndarray, b: np.ndarray, what: str, rtol: float) -> list[str]:
    err = float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))
    return [] if err <= rtol else [f"{what}: relative difference {err:.3e} > {rtol:.0e}"]


# -- stage-1 reference forward pass in plain numpy float64 -------------------


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _stft(x: np.ndarray, fft: int, win: int, hop: int) -> np.ndarray:
    pad = win // 2
    xp = np.pad(x, pad, mode="reflect")
    frames = 1 + (len(xp) - win) // hop
    seg = np.stack([xp[t * hop : t * hop + win] for t in range(frames)]) * _hann(win)
    return np.fft.rfft(seg, n=fft, axis=1)


def _wola(spec: np.ndarray, fft: int, win: int, hop: int, out_len: int) -> np.ndarray:
    spec = spec.copy()
    spec[:, 0] = spec[:, 0].real
    spec[:, -1] = spec[:, -1].real
    frames = spec.shape[0]
    w = _hann(win)
    buf = np.zeros((frames - 1) * hop + win)
    norm = np.zeros_like(buf)
    for t in range(frames):
        buf[t * hop : t * hop + win] += np.fft.irfft(spec[t], n=fft)[:win] * w
        norm[t * hop : t * hop + win] += w * w
    pad = win // 2
    return buf[pad : pad + out_len] / norm[pad : pad + out_len]


def _conv(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex x[C,F,T] (time already left-padded) * k[O,C,5,2]; freq stride 2, pad 2."""
    _, f, t = x.shape
    xp = np.pad(x, ((0, 0), (2, 2), (0, 0)))
    f2 = (f + 4 - k.shape[2]) // 2 + 1
    t2 = t - k.shape[3] + 1
    out = np.zeros((k.shape[0], f2, t2), dtype=complex)
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            out += np.einsum("oc,cft->oft", k[:, :, i, j], xp[:, i : i + 2 * f2 - 1 : 2, j : j + t2])
    return out


def _conv_transpose(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex x[C,F,T] transposed-convolved with k[C,O,5,2]; freq stride 2, crop 2."""
    _, f, t = x.shape
    kh, kw = k.shape[2], k.shape[3]
    full = np.zeros((k.shape[1], 2 * (f - 1) + kh, t - 1 + kw), dtype=complex)
    for i in range(kh):
        for j in range(kw):
            full[:, i : i + 2 * (f - 1) + 1 : 2, j : j + t] += np.einsum("co,cft->oft", k[:, :, i, j], x)
    return full[:, 2 : full.shape[1] - 2]


def _activate(y: np.ndarray, p: dict, name: str) -> np.ndarray:
    shape = (-1, 1, 1)
    real = y.real + p[f"{name}.br"].reshape(shape)
    imag = y.imag + p[f"{name}.bi"].reshape(shape)
    if f"{name}.ar" in p:
        real = np.where(real > 0, real, p[f"{name}.ar"][0] * real)
        imag = np.where(imag > 0, imag, p[f"{name}.ai"][0] * imag)
    return real + 1j * imag


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm(x: np.ndarray, p: dict, prefix: str, layers: int) -> np.ndarray:
    """Bidirectional stacked LSTM over x[T, D]; gates packed (i, f, o, g)."""
    for layer in range(layers):
        outs = []
        for tag in ("fwd", "bwd"):
            wx, wh, b = (p[f"{prefix}.l{layer}.{tag}.{n}"] for n in ("wx", "wh", "bias"))
            hid = wh.shape[0]
            seq = x if tag == "fwd" else x[::-1]
            h = np.zeros(hid)
            c = np.zeros(hid)
            hs = []
            for row in seq:
                z = row @ wx + h @ wh + b
                i, f, o = _sigmoid(z[:hid]), _sigmoid(z[hid : 2 * hid]), _sigmoid(z[2 * hid : 3 * hid])
                c = f * c + i * np.tanh(z[3 * hid :])
                h = o * np.tanh(c)
                hs.append(h)
            hs = np.array(hs)
            outs.append(hs if tag == "fwd" else hs[::-1])
        x = np.concatenate(outs, axis=1)
    return x


def reference_stage1(model: dccrn.Model, samples: np.ndarray, tag: np.ndarray) -> np.ndarray:
    """Stage-1 estimate of one mixture, recomputed from the model's weights."""
    p = {k: v.data.astype(np.float64) for k, v in model.named_tensors().items()}
    st = model.cfg.stft
    spec = _stft(samples, st.fft_size, st.win_len, st.hop)  # [T, F]
    frames = spec.shape[0]
    cur = spec.T[None]  # [1, F, T]
    skips = []
    for i in range(len(model.cfg.channels)):
        padded = np.concatenate([np.zeros(cur.shape[:2] + (1,)), cur], axis=2)
        cur = _activate(_conv(padded, p[f"enc{i}.kr"] + 1j * p[f"enc{i}.ki"]), p, f"enc{i}")
        skips.append(cur)
    c, f, _ = cur.shape
    feats = cur.transpose(2, 0, 1).reshape(frames, c * f)
    clue = tag @ p["tag_tile.w"] + p["tag_tile.b"]
    layers = model.cfg.lstm_layers

    def transform(x, which):
        return _lstm(x, p, f"lstm_{which}", layers) @ p[f"proj_{which}.w"] + p[f"proj_{which}.b"]

    sr, si = feats.real + clue, feats.imag + clue
    real = transform(sr, "r") - transform(si, "i")
    imag = transform(sr, "i") + transform(si, "r")
    cur = (real + 1j * imag).reshape(frames, c, f).transpose(1, 2, 0)
    for i, skip in enumerate(reversed(skips)):
        merged = np.concatenate([cur, skip], axis=0)
        up = _conv_transpose(merged, p[f"dec{i}.kr"] + 1j * p[f"dec{i}.ki"])
        cur = _activate(up[:, :, 1 : frames + 1], p, f"dec{i}")
    return _wola(cur[0].T, st.fft_size, st.win_len, st.hop, len(samples))

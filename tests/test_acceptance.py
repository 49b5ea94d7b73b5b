"""End-to-end acceptance checks.

Each test guards one release criterion and prints a single [PASS]/[FAIL]
line even under output capture, so a plain pytest transcript doubles as the
acceptance report.  The slow behavioral checks (two-stage training on a toy
dataset and its evaluations) share one session-scoped run.
"""

import contextlib
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mctse import Tensor, constant, ops, zero_grads
from mctse.cli import main
from mctse.clue_net import ClueSet
from mctse.data_sim import VIDEO_FRAMES, example_from_record, simulate
from mctse.dccrn import ClueConfig, DccrnConfig, Model, load_checkpoint, run_model
from mctse.gradcheck import check_gradients, numeric_gradient
from mctse.nn_blocks import (
    ComplexFeature,
    LinearParams,
    LstmParams,
    MhaParams,
    complex_conv2d,
    complex_conv2d_transpose,
    complex_lstm_enhance,
    lstm_forward,
    multi_head_attention,
)
from mctse.signal import (
    AudioClip,
    StftConfig,
    istft_array,
    istft_op,
    mix_at_snr,
    snr_improvement,
    stft_array,
    stft_op,
)
from mctse.train_eval import (
    ALL_SUBSETS,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    extraction_loss,
    stage2_from_stage1,
    train,
)


@contextlib.contextmanager
def verdict(capfd, number, summary):
    """Print one [PASS]/[FAIL] line per criterion, visible despite capture."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with capfd.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {number}. {summary}")


# ---------------------------------------------------------------------------
# 1. gradient checks for every op and block


def _param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _away_from_zero(rng, *shape):
    """Inputs with |x| >= 0.2 keep kinked ops away from their corners."""
    mag = rng.uniform(0.2, 1.2, shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def _positive(rng, *shape):
    return Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True)


def _scalarized(rng, fn):
    """Fixed-weight scalar readout of a tensor-valued function."""
    w = constant(rng.standard_normal(fn().data.shape))
    return lambda: ops.reduce_sum(fn() * w)


def _pair_readout(rng, fn):
    """Scalar readout for functions returning a (real, imag)-style pair."""
    a, b = fn()
    wa = constant(rng.standard_normal(a.data.shape))
    wb = constant(rng.standard_normal(b.data.shape))

    def f():
        ra, rb = fn()
        return ops.reduce_sum(ra * wa) + ops.reduce_sum(rb * wb)

    return f


GRADIENT_CASES = []


def gradient_case(label, tol, two_scale=False):
    def register(build):
        GRADIENT_CASES.append((label, tol, build, two_scale))
        return build

    return register


def _two_scale_check(f, params, h=1e-5, exclude_cap=0.05):
    """Central-difference check that skips coordinates straddling a corner.

    Deep graphs route every parameter through relu/prelu/abs corners, so at
    any probe point a few coordinates sit within h of a kink, where central
    differences measure the average of the two one-sided slopes rather than
    the gradient.  Such coordinates are detected without consulting the
    analytic gradient: slope estimates at h and h/2 agree to O(h^2) wherever
    f is locally smooth and disagree across a corner.  Only the disagreeing
    coordinates are excluded, and never more than exclude_cap of the total,
    so a wrong backward pass cannot hide behind the exclusion.
    """
    zero_grads(params)
    f().backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    coarse = [numeric_gradient(f, p, h=h) for p in params]
    fine = [numeric_gradient(f, p, h=h / 2) for p in params]
    zero_grads(params)

    den = max(max(float(np.max(np.abs(g))) for g in analytic),
              max(float(np.max(np.abs(g))) for g in fine), 1e-8)
    total = excluded = 0
    worst = 0.0
    for ga, g1, g2 in zip(analytic, coarse, fine):
        smooth = np.abs(g1 - g2) <= 1e-6 * den
        total += ga.size
        excluded += int(ga.size - smooth.sum())
        if smooth.any():
            worst = max(worst, float(np.max(np.abs(ga - g2)[smooth])) / den)
    assert excluded <= exclude_cap * total, (
        f"{excluded} of {total} coordinates sit on corners"
    )
    return worst


def _unary_case(op, make):
    def build(seed):
        rng = np.random.default_rng([17, seed])
        x = make(rng, 4, 5)
        return _scalarized(rng, lambda: op(x)), [x]

    return build


for _label, _op in (("sigmoid", ops.sigmoid), ("tanh", ops.tanh), ("square", ops.square)):
    gradient_case(_label, 1e-6)(_unary_case(_op, _param))
for _label, _op in (("sqrt", ops.sqrt), ("log10", ops.log10)):
    gradient_case(_label, 1e-6)(_unary_case(_op, _positive))
for _label, _op in (("relu", ops.relu), ("abs", ops.abs_)):
    gradient_case(_label, 1e-4)(_unary_case(_op, _away_from_zero))


@gradient_case("add/sub/mul/scale with scalar broadcast", 1e-6)
def _build_arithmetic(seed):
    rng = np.random.default_rng([18, seed])
    a, b = _param(rng, 4, 5), _param(rng, 4, 5)
    shift = Tensor(rng.standard_normal(1), requires_grad=True)
    fn = lambda: ops.mul(ops.add(a, shift), ops.sub(ops.scale(a, 1.7), b))
    return _scalarized(rng, fn), [a, b, shift]


@gradient_case("prelu", 1e-4)
def _build_prelu(seed):
    rng = np.random.default_rng([19, seed])
    x = _away_from_zero(rng, 4, 5)
    slope = Tensor(rng.uniform(0.1, 0.5, 1), requires_grad=True)
    return _scalarized(rng, lambda: ops.prelu(x, slope)), [x, slope]


@gradient_case("reduce_sum/mean over axes", 1e-6)
def _build_reductions(seed):
    rng = np.random.default_rng([20, seed])
    x = _param(rng, 4, 6)
    fn = lambda: ops.add(ops.reduce_sum(x, axis=0), ops.scale(ops.mean(x, axis=0), 2.0))
    return _scalarized(rng, fn), [x]


@gradient_case("concat/slice/reshape/transpose", 1e-6)
def _build_plumbing(seed):
    rng = np.random.default_rng([21, seed])
    a, b = _param(rng, 3, 4), _param(rng, 2, 4)

    def fn():
        joined = ops.concat([a, b], axis=0)
        turned = ops.transpose(joined, (1, 0))
        window = ops.slice_axis(turned, 1, 1, 4)
        return ops.reshape(window, (3, 4))

    return _scalarized(rng, fn), [a, b]


@gradient_case("row tiling and repetition", 1e-6)
def _build_tiling(seed):
    rng = np.random.default_rng([22, seed])
    row, x = _param(rng, 1, 4), _param(rng, 3, 4)
    fn = lambda: ops.add(ops.tile_rows(row, 6), ops.repeat_rows(x, 2))
    return _scalarized(rng, fn), [row, x]


@gradient_case("row gather and per-channel bias", 1e-6)
def _build_gather_bias(seed):
    rng = np.random.default_rng([23, seed])
    table = _param(rng, 5, 3)
    ids = np.array([0, 3, 3, 1])
    x, bias = _param(rng, 2, 4, 3), _param(rng, 2)
    w1 = constant(rng.standard_normal((4, 3)))
    w2 = constant(rng.standard_normal((2, 4, 3)))
    fn = lambda: ops.reduce_sum(ops.gather_rows(table, ids) * w1) + ops.reduce_sum(
        ops.channel_bias(x, bias) * w2
    )
    return fn, [table, x, bias]


@gradient_case("softmax rows", 1e-4)
def _build_softmax(seed):
    rng = np.random.default_rng([24, seed])
    x = _param(rng, 4, 6)
    return _scalarized(rng, lambda: ops.softmax(x, axis=-1)), [x]


@gradient_case("layer normalization", 1e-4)
def _build_layer_norm(seed):
    rng = np.random.default_rng([25, seed])
    x, gain, bias = _param(rng, 5, 4), _positive(rng, 4), _param(rng, 4)
    return _scalarized(rng, lambda: ops.layer_norm(x, gain, bias)), [x, gain, bias]


@gradient_case("matmul chain", 1e-4)
def _build_matmul(seed):
    rng = np.random.default_rng([26, seed])
    a, b, c = _param(rng, 3, 4), _param(rng, 4, 5), _param(rng, 5, 2)
    return _scalarized(rng, lambda: ops.matmul(ops.matmul(a, b), c)), [a, b, c]


@gradient_case("strided padded convolution", 1e-4)
def _build_conv(seed):
    rng = np.random.default_rng([27, seed])
    x, k = _param(rng, 2, 7, 6), _param(rng, 3, 2, 3, 2)
    fn = lambda: ops.conv2d(x, k, stride=(2, 1), padding=(1, 0))
    return _scalarized(rng, fn), [x, k]


@gradient_case("transposed convolution", 1e-4)
def _build_deconv(seed):
    rng = np.random.default_rng([28, seed])
    x, k = _param(rng, 2, 4, 5), _param(rng, 2, 3, 3, 2)
    fn = lambda: ops.conv2d_transpose(x, k, stride=(2, 1), padding=(1, 0))
    return _scalarized(rng, fn), [x, k]


@gradient_case("bidirectional stacked lstm", 1e-4)
def _build_lstm(seed):
    rng = np.random.default_rng([29, seed])
    p = LstmParams(rng, 3, 2, num_layers=2, bidirectional=True)
    x = _param(rng, 5, 3)
    return _scalarized(rng, lambda: lstm_forward(x, p)), [x] + p.tensors()


MINI_STFT = StftConfig(fft_size=16, win_len=16, hop=8)


@gradient_case("analysis transform", 1e-4)
def _build_stft(seed):
    rng = np.random.default_rng([30, seed])
    x = _param(rng, 40)
    return _pair_readout(rng, lambda: stft_op(x, MINI_STFT)), [x]


@gradient_case("synthesis transform", 1e-4)
def _build_istft(seed):
    rng = np.random.default_rng([31, seed])
    frames = MINI_STFT.frame_count(40)
    real, imag = _param(rng, frames, 9), _param(rng, frames, 9)
    fn = lambda: istft_op(real, imag, MINI_STFT, out_len=40)
    return _scalarized(rng, fn), [real, imag]


@gradient_case("complex convolution", 1e-4)
def _build_complex_conv(seed):
    rng = np.random.default_rng([32, seed])
    xr, xi = _param(rng, 2, 7, 6), _param(rng, 2, 7, 6)
    kr, ki = _param(rng, 3, 2, 3, 2), _param(rng, 3, 2, 3, 2)

    def fn():
        out = complex_conv2d(
            ComplexFeature(xr, xi), ComplexFeature(kr, ki), stride=(2, 1), padding=(1, 0)
        )
        return out.real, out.imag

    return _pair_readout(rng, fn), [xr, xi, kr, ki]


@gradient_case("complex transposed convolution", 1e-4)
def _build_complex_deconv(seed):
    rng = np.random.default_rng([33, seed])
    xr, xi = _param(rng, 2, 4, 5), _param(rng, 2, 4, 5)
    kr, ki = _param(rng, 2, 3, 3, 2), _param(rng, 2, 3, 3, 2)

    def fn():
        out = complex_conv2d_transpose(
            ComplexFeature(xr, xi), ComplexFeature(kr, ki), stride=(2, 1), padding=(1, 0)
        )
        return out.real, out.imag

    return _pair_readout(rng, fn), [xr, xi, kr, ki]


@gradient_case("clue-shifted complex lstm enhancement", 1e-4)
def _build_enhance(seed):
    rng = np.random.default_rng([34, seed])
    steps, width, hidden = 4, 3, 2
    lstm_r = LstmParams(rng, width, hidden, num_layers=1, bidirectional=True)
    lstm_i = LstmParams(rng, width, hidden, num_layers=1, bidirectional=True)
    proj_r = LinearParams.init(rng, 2 * hidden, width)
    proj_i = LinearParams.init(rng, 2 * hidden, width)
    yr, yi, clue = _param(rng, steps, width), _param(rng, steps, width), _param(rng, steps, width)

    def fn():
        out = complex_lstm_enhance(ComplexFeature(yr, yi), clue, lstm_r, lstm_i, proj_r, proj_i)
        return out.real, out.imag

    params = [yr, yi, clue]
    for block in (lstm_r, lstm_i, proj_r, proj_i):
        params.extend(block.tensors())
    return _pair_readout(rng, fn), params


@gradient_case("masked multi-head attention", 1e-4)
def _build_mha(seed):
    rng = np.random.default_rng([35, seed])
    p = MhaParams.init(rng, 4, 2)
    q, k, v = _param(rng, 3, 4), _param(rng, 5, 4), _param(rng, 5, 4)
    mask = np.array([False, False, True, False, False])
    w = constant(rng.standard_normal((3, 4)))

    def fn():
        out, _ = multi_head_attention(q, k, v, p, key_mask=mask)
        return ops.reduce_sum(out * w)

    return fn, [q, k, v] + p.tensors()


MICRO_CFG = DccrnConfig(channels=(1, 1), lstm_hidden=2, lstm_layers=1, stft=MINI_STFT)
MICRO_CLUE = ClueConfig(sound_channels=1, downsample=2, text_raw_dim=2, video_raw_dim=2, heads=1)


def micro_model(stage, seed):
    return Model(
        np.random.default_rng(seed),
        MICRO_CFG,
        num_classes=2,
        vocab_size=4,
        clue_cfg=MICRO_CLUE,
        stage=stage,
        dtype=np.float64,
    )


def onehot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def micro_clues(rng, seed):
    return ClueSet(
        tag=onehot(seed % 2, 2),
        text=np.array([0, 3, 1]),
        video=rng.standard_normal((3, 2)),
    )


def _model_readout(rng, model, mix, clues):
    probe = run_model(model, mix, clues)
    ww = constant(rng.standard_normal(probe.wave.data.shape))
    wr = constant(rng.standard_normal(probe.real.data.shape))
    wi = constant(rng.standard_normal(probe.imag.data.shape))

    def f():
        out = run_model(model, mix, clues)
        return (
            ops.reduce_sum(out.wave * ww)
            + ops.reduce_sum(out.real * wr)
            + ops.reduce_sum(out.imag * wi)
        )

    return f


@gradient_case("full model, tag conditioning", 1e-4, two_scale=True)
def _build_stage1_model(seed):
    model = micro_model(1, seed)
    rng = np.random.default_rng([36, seed])
    mix = rng.standard_normal(24) * 0.3
    f = _model_readout(rng, model, mix, ClueSet(tag=onehot(seed % 2, 2)))
    return f, model.trainable_tensors()


@gradient_case("full model, fused clues", 1e-4, two_scale=True)
def _build_stage2_model(seed):
    model = micro_model(2, seed)
    rng = np.random.default_rng([37, seed])
    mix = rng.standard_normal(24) * 0.3
    f = _model_readout(rng, model, mix, micro_clues(rng, seed))
    return f, model.trainable_tensors()


@gradient_case("training loss through the full model", 1e-4, two_scale=True)
def _build_loss(seed):
    model = micro_model(2, seed)
    rng = np.random.default_rng([38, seed])
    mix = rng.standard_normal(24) * 0.3
    clues = micro_clues(rng, seed)
    target = AudioClip(rng.standard_normal(24) * 0.3, 16000)
    f = lambda: extraction_loss(target, run_model(model, mix, clues), MINI_STFT)
    return f, model.trainable_tensors()


def test_gradients_match_finite_differences_everywhere(capfd):
    with verdict(capfd, 1, "every op and block passes 10-seed finite-difference checks"):
        started = time.monotonic()
        failures = []
        for label, tol, build, two_scale in GRADIENT_CASES:
            worst = 0.0
            for seed in range(10):
                f, params = build(seed)
                check = _two_scale_check if two_scale else check_gradients
                worst = max(worst, check(f, params))
            if worst > tol:
                failures.append(f"{label}: {worst:.2e} > {tol:.0e}")
        elapsed = time.monotonic() - started
        assert not failures, "; ".join(failures)
        assert elapsed < 300.0, f"gradient sweep took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 2. analysis/synthesis round trip


def test_inverse_stft_reconstruction(capfd):
    with verdict(capfd, 2, "istft(stft(x)) stays above 60 dB SNR on 100 random 2 s clips"):
        started = time.monotonic()
        cfg = StftConfig()  # 512-point FFT, 400 window, 100 hop
        rng = np.random.default_rng(2)
        worst = np.inf
        for _ in range(100):
            x = rng.standard_normal(32000)
            back = istft_array(stft_array(x, cfg), cfg, out_len=32000)
            err = max(float(np.sum((x - back) ** 2)), 1e-300)
            worst = min(worst, 10.0 * np.log10(np.sum(x**2) / err))
        elapsed = time.monotonic() - started
        assert worst >= 60.0, f"worst reconstruction {worst:.1f} dB"
        assert elapsed < 30.0, f"round trips took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 3. enhancement arithmetic with identity stubs


def test_identity_stub_enhancement_algebra(capfd):
    with verdict(capfd, 3, "identity-stub enhancement equals (a-b, a+b+2c) exactly"):
        for seed in range(5):
            rng = np.random.default_rng([3, seed])
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            c = rng.standard_normal((6, 4))
            out = complex_lstm_enhance(
                ComplexFeature(Tensor(a.copy()), Tensor(b.copy())),
                Tensor(c.copy()),
                None,
                None,
                None,
                None,
            )
            np.testing.assert_allclose(out.real.data, a - b, rtol=0, atol=1e-14)
            np.testing.assert_allclose(out.imag.data, a + b + 2.0 * c, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# 4. attention invariants


def test_attention_invariants(capfd):
    with verdict(capfd, 4, "attention rows normalize, ignore key order, match masked/absent"):
        for seed in range(5):
            rng = np.random.default_rng([4, seed])
            p = MhaParams.init(rng, 8, 2)
            q = Tensor(rng.standard_normal((5, 8)))
            k = Tensor(rng.standard_normal((7, 8)))
            v = Tensor(rng.standard_normal((7, 8)))

            out, weights = multi_head_attention(q, k, v, p)
            np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, rtol=0, atol=1e-6)

            perm = rng.permutation(7)
            permuted, _ = multi_head_attention(q, Tensor(k.data[perm]), Tensor(v.data[perm]), p)
            scale = max(float(np.max(np.abs(out.data))), 1e-12)
            assert np.max(np.abs(permuted.data - out.data)) / scale <= 1e-6

            short, _ = multi_head_attention(q, Tensor(k.data[:5]), Tensor(v.data[:5]), p)
            mask = np.array([False] * 5 + [True] * 2)
            masked, masked_w = multi_head_attention(q, k, v, p, key_mask=mask)
            scale = max(float(np.max(np.abs(short.data))), 1e-12)
            assert np.max(np.abs(masked.data - short.data)) / scale <= 1e-6
            assert np.all(masked_w.data[:, :, 5:] == 0.0)

            _, single = multi_head_attention(q, Tensor(k.data[:1]), Tensor(v.data[:1]), p)
            assert np.all(single.data == 1.0)


# ---------------------------------------------------------------------------
# 5. mixing exactness


def test_mixing_hits_requested_snr(capfd):
    with verdict(capfd, 5, "mix_at_snr lands within 1e-9 dB of the requested SNR"):
        rng = np.random.default_rng(5)

        def deviation(snr_db):
            target = AudioClip(rng.standard_normal(2000), 16000)
            interferer = AudioClip(rng.standard_normal(2000) * rng.uniform(0.2, 5.0), 16000)
            mixture, scaled = mix_at_snr(target, interferer, snr_db)
            assert np.array_equal(mixture.samples, target.samples + scaled.samples)
            got = 10.0 * np.log10(np.sum(target.samples**2) / np.sum(scaled.samples**2))
            return abs(got - snr_db)

        for snr_db in (-2.0, 0.0, 2.0):
            assert deviation(snr_db) <= 1e-9
        worst = max(deviation(float(rng.uniform(-10, 10))) for _ in range(1000))
        assert worst <= 1e-9, f"worst deviation {worst:.2e} dB"


# ---------------------------------------------------------------------------
# 6. single-example overfit at full size


def test_single_example_overfit(capfd):
    with verdict(capfd, 6, "full-size tag-conditioned model overfits one example past 5 dB"):
        started = time.monotonic()
        manifest, classes = simulate(4, {"train": 1}, seed=0)
        example = example_from_record(manifest.split("train")[0], classes)
        model = Model(np.random.default_rng(6), num_classes=4, vocab_size=64,
                      stage=1, dtype=np.float32)
        clues = ClueSet(tag=example.clues.tag)
        params = model.trainable_tensors()
        state = AdamState(params)

        reached = None
        for step in range(2000):
            zero_grads(params)
            out = run_model(model, example.mixture.samples, clues)
            estimate = AudioClip(np.asarray(out.wave.data, dtype=np.float64),
                                 example.mixture.sample_rate)
            if snr_improvement(example.mixture, estimate, example.target) >= 5.0:
                reached = step
                break
            extraction_loss(example.target, out, model.cfg.stft).backward()
            adam_step(params, [p.grad for p in params], state, lr=1e-3)
        elapsed = time.monotonic() - started
        assert reached is not None, "never reached 5 dB SNRi in 2000 steps"
        assert elapsed < 600.0, f"overfit loop took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 7/8/10. toy two-stage run shared by the behavioral checks


TOY_COUNTS = {"train": 400, "valid": 40, "test-seen": 40}
TOY_CFG = DccrnConfig(channels=(2, 4, 8, 8), lstm_hidden=16, lstm_layers=1)


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_run")
    data_dir = root / "data"
    started = time.monotonic()
    manifest, classes = simulate(4, TOY_COUNTS, seed=0, out_dir=data_dir)

    stage1 = Model(np.random.default_rng(1), TOY_CFG, num_classes=4, vocab_size=64,
                   stage=1, dtype=np.float32)
    stage1_path = root / "stage1.ckpt"
    train(manifest, classes, stage1,
          TrainConfig(stage=1, lr0=1e-3, batch_size=8, epochs=3, seed=1), stage1_path)

    stage2 = stage2_from_stage1(load_checkpoint(stage1_path), seed=2)
    stage2_path = root / "stage2.ckpt"
    train(manifest, classes, stage2,
          TrainConfig(stage=2, lr0=1e-3, batch_size=8, epochs=4, seed=3), stage2_path)

    best = load_checkpoint(stage2_path)
    clean = evaluate(manifest, classes, best, split="test-seen", subsets=ALL_SUBSETS)
    text_hit = evaluate(manifest, classes, best, split="test-seen", subsets=ALL_SUBSETS,
                        corrupt="text", corrupt_seed=11)
    video_hit = evaluate(manifest, classes, best, split="test-seen", subsets=ALL_SUBSETS,
                         corrupt="video", corrupt_seed=12)
    return SimpleNamespace(
        root=root,
        data_dir=data_dir,
        manifest=manifest,
        classes=classes,
        stage2_path=stage2_path,
        clean=clean,
        text_hit=text_hit,
        video_hit=video_hit,
        seconds=time.monotonic() - started,
    )


def test_toy_two_stage_generalization(toy_run, capfd):
    with verdict(capfd, 7, "toy run: all-clues SNRi > 0 dB and within 0.5 dB of tag-only"):
        all_clues = toy_run.clean.mean("tag+text+video")
        tag_only = toy_run.clean.mean("tag")
        assert all_clues > 0.0, f"all-clues mean {all_clues:+.2f} dB"
        assert all_clues >= tag_only - 0.5, f"{all_clues:+.2f} vs tag-only {tag_only:+.2f}"
        assert toy_run.seconds < 7200.0, f"toy run took {toy_run.seconds:.0f}s"


def test_corrupted_clues_do_not_beat_clean(toy_run, capfd):
    with verdict(capfd, 8, "corrupted text/video never beat clean clues; all subsets finite"):
        for report in (toy_run.text_hit, toy_run.video_hit):
            for subset in ALL_SUBSETS:
                assert np.isfinite(report.mean(subset)), f"{subset} mean not finite"
        assert toy_run.text_hit.mean("text") <= toy_run.clean.mean("text")
        assert toy_run.video_hit.mean("video") <= toy_run.clean.mean("video")


# ---------------------------------------------------------------------------
# 9. bit-exact reproducibility through the command line


def test_simulation_and_training_reproduce_bit_exactly(tmp_path, capfd):
    with verdict(capfd, 9, "same seeds give identical manifest and checkpoint bytes"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "model": {
                "channels": [2, 2],
                "lstm_hidden": 4,
                "lstm_layers": 1,
                "clue": {"sound_channels": 2, "downsample": 4,
                         "text_raw_dim": 4, "video_raw_dim": 8, "heads": 2},
            },
            "train": {"lr0": 1e-3, "batch_size": 2, "epochs": 2, "seed": 3},
        }))
        blobs = []
        for run in ("first", "second"):
            sim_dir = tmp_path / run
            ckpt = tmp_path / f"{run}.ckpt"
            assert main(["simulate", "--classes", "4", "--train", "6", "--valid", "2",
                         "--test", "2", "--seed", "7", "--out", str(sim_dir)]) == 0
            assert main(["train", "--stage", "1",
                         "--manifest", str(sim_dir / "manifest.jsonl"),
                         "--config", str(config_path), "--out", str(ckpt)]) == 0
            blobs.append(((sim_dir / "manifest.jsonl").read_bytes(),
                          (sim_dir / "classes.json").read_bytes(),
                          ckpt.read_bytes()))
        assert blobs[0][0] == blobs[1][0], "manifest bytes differ"
        assert blobs[0][1] == blobs[1][1], "class table bytes differ"
        assert blobs[0][2] == blobs[1][2], "checkpoint bytes differ"


# ---------------------------------------------------------------------------
# 10. attention dump layout


def test_attention_dump_layout(toy_run, capfd):
    with verdict(capfd, 10, "attention CSV has one labeled column per clue position, unit row sums"):
        record = toy_run.manifest.split("test-seen")[0]
        out_csv = toy_run.root / "attention.csv"
        assert main(["attention", "--ckpt", str(toy_run.stage2_path),
                     "--manifest", str(toy_run.data_dir / "manifest.jsonl"),
                     "--example", str(record["id"]), "--out", str(out_csv)]) == 0

        lines = out_csv.read_text().strip().split("\n")
        header = lines[0].split(",")
        n_text = len(record["clue_text_tokens"])
        assert len(header) == n_text + VIDEO_FRAMES + 1
        assert header[0] == "text:0"
        assert header[n_text] == "video:0"
        assert header[-1] == "tag:0"

        grid = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        frames = StftConfig().frame_count(2 * 16000)
        assert grid.shape[0] == -(-frames // ClueConfig().downsample)
        assert np.all(grid >= 0.0)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# 11. the other clues compensate for a corrupted one


def test_other_clues_compensate_for_a_corrupted_one(toy_run, capfd):
    with verdict(capfd, 11, "with text or video corrupted, adding another clue never scores "
                            "below the corrupted clue alone"):
        for report, corrupted in ((toy_run.text_hit, "text"), (toy_run.video_hit, "video")):
            alone = report.mean(corrupted)
            for subset in (f"tag+{corrupted}", "text+video"):
                assert report.mean(subset) >= alone, (
                    f"{corrupted} corrupted: {subset} {report.mean(subset):+.2f} dB "
                    f"< {corrupted} alone {alone:+.2f} dB")

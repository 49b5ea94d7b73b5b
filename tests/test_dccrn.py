"""Tests for the complex U-Net extraction model and its checkpoint format."""

import builtins
import json
import struct
import tracemalloc

import numpy as np
import pytest

from mctse import ConfigError, ContractError, InputError, constant
from mctse import dccrn, ops
from mctse.clue_net import ClueSet, read_embedding_file, write_embedding_file
from mctse.dccrn import (
    CKPT_MAGIC,
    ClueConfig,
    DccrnConfig,
    Model,
    encode_mixture,
    extract,
    extract_each,
    load_checkpoint,
    model_from_config,
    model_section,
    run_encoded,
    run_model,
    save_checkpoint,
)
from mctse.gradcheck import check_gradients
from mctse.signal import AudioClip, StftConfig, stft_array
from mctse.tensor import Tape
from mctse.train_eval import extraction_loss

# Small enough to be fast, deep enough to exercise every code path: two conv
# layers over a 9-bin spectrum (9 -> 5 -> 3), one bidirectional LSTM layer.
MINI_STFT = StftConfig(fft_size=16, win_len=16, hop=8)
MINI_CFG = DccrnConfig(channels=(2, 2), lstm_hidden=3, lstm_layers=1, stft=MINI_STFT)
MINI_CLUE = ClueConfig(sound_channels=2, downsample=2, text_raw_dim=4, video_raw_dim=5, heads=2)
NUM_CLASSES = 3
VOCAB = 6

# Thinner still, for finite-difference sweeps over every parameter.
MICRO_CFG = DccrnConfig(channels=(1, 1), lstm_hidden=2, lstm_layers=1, stft=MINI_STFT)
MICRO_CLUE = ClueConfig(sound_channels=1, downsample=2, text_raw_dim=2, video_raw_dim=2, heads=1)


def mini_model(stage=1, seed=0, dtype=np.float64):
    return Model(
        np.random.default_rng(seed),
        MINI_CFG,
        num_classes=NUM_CLASSES,
        vocab_size=VOCAB,
        clue_cfg=MINI_CLUE,
        stage=stage,
        dtype=dtype,
    )


def micro_model(stage=1, seed=0):
    return Model(
        np.random.default_rng(seed),
        MICRO_CFG,
        num_classes=2,
        vocab_size=4,
        clue_cfg=MICRO_CLUE,
        stage=stage,
        dtype=np.float64,
    )


def mini_clip(seed=0, n=40):
    return np.random.default_rng(seed).standard_normal(n) * 0.1


def onehot(idx, size=NUM_CLASSES):
    vec = np.zeros(size)
    vec[idx] = 1.0
    return vec


def full_clues(seed=0):
    rng = np.random.default_rng(seed)
    return ClueSet(
        tag=onehot(1),
        text=np.array([0, 2, 5]),
        video=rng.standard_normal((4, 5)),
    )


class TestConfig:
    def test_default_frequency_chain(self):
        cfg = DccrnConfig()
        assert cfg.freq_sizes() == [257, 129, 65, 33, 17]
        assert cfg.feature_dim == 32 * 17

    def test_mini_frequency_chain(self):
        assert MINI_CFG.freq_sizes() == [9, 5, 3]
        assert MINI_CFG.feature_dim == 2 * 3

    def test_even_intermediate_size_rejected(self):
        # 14-point FFT gives 8 bins; 8 halves to 4, and neither 8 nor 4 can be
        # recovered by the mirrored transposed convolution (it emits 2f-1).
        with pytest.raises(ConfigError, match="even"):
            DccrnConfig(channels=(2, 2), stft=StftConfig(fft_size=14, win_len=14, hop=7))

    def test_empty_channels_rejected(self):
        with pytest.raises(ConfigError):
            DccrnConfig(channels=())

    def test_nonpositive_channel_rejected(self):
        with pytest.raises(ConfigError):
            DccrnConfig(channels=(8, 0))

    def test_nonpositive_lstm_rejected(self):
        with pytest.raises(ConfigError):
            DccrnConfig(lstm_hidden=0)

    def test_bad_stage_rejected(self):
        with pytest.raises(ConfigError):
            mini_model(stage=3)


class TestEncodeDecode:
    def spectrum(self, seed=0, n=40):
        spec = stft_array(mini_clip(seed, n), MINI_STFT)
        from mctse.signal import ComplexSpec

        return ComplexSpec(spec.real.copy(), spec.imag.copy(), MINI_STFT)

    def test_encoder_shapes(self):
        model = mini_model()
        y, skips = model.encode(self.spectrum())
        assert y.real.data.shape == (6, 6)
        assert [s.real.data.shape for s in skips] == [(2, 5, 6), (2, 3, 6)]

    def test_zero_spectrum_encodes_to_zero(self):
        model = mini_model()
        spec = self.spectrum()
        spec.real[:] = 0.0
        spec.imag[:] = 0.0
        y, _ = model.encode(spec)
        assert np.all(y.real.data == 0.0)
        assert np.all(y.imag.data == 0.0)

    def test_decoder_mirrors_to_spectrum_shape(self):
        model = mini_model()
        y, skips = model.encode(self.spectrum())
        out = model.decode(y, skips)
        assert out.real.data.shape == (6, 9)
        assert out.imag.data.shape == (6, 9)

    @pytest.mark.parametrize("n", [16, 40, 100])
    def test_time_length_preserved(self, n):
        model = mini_model()
        spec = self.spectrum(n=n)
        frames = spec.real.shape[0]
        y, _ = model.encode(spec)
        assert y.real.data.shape[0] == frames

    def test_wrong_bin_count_rejected(self):
        model = mini_model()
        other = stft_array(np.random.default_rng(0).standard_normal(64), StftConfig(32, 32, 16))
        from mctse.signal import ComplexSpec

        spec = ComplexSpec(other.real.copy(), other.imag.copy(), StftConfig(32, 32, 16))
        with pytest.raises(ContractError, match="bins"):
            model.encode(spec)

    def test_skip_count_mismatch_rejected(self):
        model = mini_model()
        y, skips = model.encode(self.spectrum())
        with pytest.raises(ContractError, match="skip"):
            model.decode(y, skips[:1])

    def test_skip_shape_mismatch_rejected(self):
        model = mini_model()
        y, skips = model.encode(self.spectrum())
        with pytest.raises(ContractError, match="skip"):
            model.decode(y, skips[::-1])


class TestRunModel:
    def test_stage1_needs_tag(self):
        model = mini_model(stage=1)
        clues = ClueSet(text=np.array([1, 2]))
        with pytest.raises(ContractError, match="stage-1"):
            run_model(model, mini_clip(), clues)

    def test_stage1_output_length_and_no_attention(self):
        model = mini_model(stage=1)
        mix = mini_clip()
        out = run_model(model, mix, ClueSet(tag=onehot(0)))
        assert out.wave.data.shape == mix.shape
        assert out.attention is None
        assert out.segments is None

    def test_stage2_attention_layout(self):
        model = mini_model(stage=2)
        out = run_model(model, mini_clip(), full_clues())
        # 6 frames downsampled by 2 -> 3 query rows; keys: 3 text + 4 video + 1 tag.
        assert out.attention.data.shape == (2, 3, 8)
        assert out.segments == [("text", 0, 3), ("video", 3, 7), ("tag", 7, 8)]
        sums = out.attention.data.sum(axis=2)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_stage2_tag_only_attention_is_ones(self):
        model = mini_model(stage=2)
        out = run_model(model, mini_clip(), ClueSet(tag=onehot(2)))
        assert out.attention.data.shape == (2, 3, 1)
        assert np.all(out.attention.data == 1.0)
        assert out.segments == [("tag", 0, 1)]

    @pytest.mark.parametrize("n", [1600, 4800])
    def test_extract_preserves_length_and_rate(self, n):
        model = mini_model(stage=1)
        clip = AudioClip(mini_clip(n=n), 16000)
        est, attention = extract(clip, ClueSet(tag=onehot(1)), model)
        assert len(est.samples) == n
        assert est.sample_rate == 16000
        assert attention is None

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_extract_rejects_other_sample_rates(self, rate):
        clip = AudioClip(mini_clip(n=1600), rate)
        with pytest.raises(InputError, match=f"{rate} Hz.*16000 Hz"):
            extract(clip, ClueSet(tag=onehot(1)), mini_model(stage=1))

    def test_extract_returns_attention_for_stage2(self):
        model = mini_model(stage=2)
        clip = AudioClip(mini_clip(), 16000)
        _, attention = extract(clip, full_clues(), model)
        assert isinstance(attention, np.ndarray)
        assert attention.shape == (2, 3, 8)

    def test_repeat_run_is_bit_identical(self):
        mix = mini_clip()
        clues = full_clues()
        out_a = run_model(mini_model(stage=2, seed=5), mix, clues)
        out_b = run_model(mini_model(stage=2, seed=5), mix, clues)
        assert np.array_equal(out_a.wave.data, out_b.wave.data)
        assert np.array_equal(out_a.attention.data, out_b.attention.data)

    def test_float32_model_runs(self):
        model = mini_model(stage=2, dtype=np.float32)
        out = run_model(model, mini_clip(), full_clues())
        assert np.all(np.isfinite(out.wave.data))


def capture_run_model(monkeypatch):
    """Record every ModelOutput that extract() computes."""
    outputs = []

    def recording(*args, **kwargs):
        out = run_model(*args, **kwargs)
        outputs.append(out)
        return out

    monkeypatch.setattr(dccrn, "run_model", recording)
    return outputs


class TestTapeFreeExtract:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_extract_builds_no_graph(self, stage, monkeypatch):
        outputs = capture_run_model(monkeypatch)
        clues = ClueSet(tag=onehot(1)) if stage == 1 else full_clues()
        extract(AudioClip(mini_clip(), 16000), clues, mini_model(stage=stage))
        (out,) = outputs
        for t in (out.real, out.imag, out.wave, out.attention):
            if t is not None:
                assert t._parents == () and t._backward is None
                assert not t.requires_grad

    @pytest.mark.parametrize("stage", [1, 2])
    def test_extract_is_byte_identical_to_graph_forward(self, stage):
        model = mini_model(stage=stage, seed=4, dtype=np.float32)
        clip = AudioClip(mini_clip(seed=2, n=800), 16000)
        clues = ClueSet(tag=onehot(2)) if stage == 1 else full_clues(seed=3)
        graph = run_model(model, clip.samples, clues)
        assert graph.wave.requires_grad
        estimate, attention = extract(clip, clues, model)
        assert estimate.samples.tobytes() == graph.wave.data.astype(np.float64).tobytes()
        if stage == 1:
            assert attention is None
        else:
            assert attention.tobytes() == graph.attention.data.tobytes()

    def test_long_clip_memory_is_bounded(self):
        # A 30 s clip: the graph a recorded forward keeps grows with the clip,
        # while extract() holds only the layer being computed.
        stft = StftConfig(fft_size=512, win_len=512, hop=256)
        cfg = DccrnConfig(channels=(2, 2), lstm_hidden=4, lstm_layers=1, stft=stft)
        model = Model(np.random.default_rng(0), cfg, num_classes=NUM_CLASSES,
                      clue_cfg=ClueConfig(heads=1), stage=1, dtype=np.float32)
        clip = AudioClip(mini_clip(n=30 * 16000), 16000)
        clues = ClueSet(tag=onehot(0))

        def traced_peak(fn):
            tracemalloc.start()
            try:
                kept = fn()
                return tracemalloc.get_traced_memory()[1], kept
            finally:
                tracemalloc.stop()

        with_graph, out = traced_peak(lambda: run_model(model, clip.samples, clues))
        del out
        tape_free, _ = traced_peak(lambda: extract(clip, clues, model))
        assert tape_free < with_graph / 3


def training_loss(model, stage, seed=0, n=800, forward=run_model):
    """Loss of one training forward of the mini model on a seeded clip."""
    rng = np.random.default_rng(seed)
    target = AudioClip(rng.standard_normal(n) * 0.1, 16000)
    mix = target.samples + rng.standard_normal(n) * 0.1
    clues = ClueSet(tag=onehot(1)) if stage == 1 else full_clues(seed)
    return extraction_loss(target, forward(model, mix, clues), model.cfg.stft)


def float64_copy(model):
    copy = mini_model(stage=model.stage, dtype=np.float64)
    source = model.named_tensors()
    for name, t in copy.named_tensors().items():
        t.data = source[name].data.astype(np.float64)
    return copy


class TestEncodedForward:
    """The forward in two steps: encode the mixture once, then one clue step per clue set."""

    @pytest.mark.parametrize("stage", [1, 2])
    def test_two_steps_match_run_model_loss_and_gradients(self, stage):
        def two_steps(model, mix, clues):
            return run_encoded(model, encode_mixture(model, mix), clues)

        results = []
        for forward in (run_model, two_steps):
            model = mini_model(stage=stage, seed=5, dtype=np.float32)
            loss = training_loss(model, stage, seed=6, forward=forward)
            loss.backward()
            grads = {name: t.grad.tobytes() for name, t in model.named_tensors().items()}
            results.append((loss.data.tobytes(), grads))
        assert results[0] == results[1]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_extract_each_matches_extract(self, stage):
        model = mini_model(stage=stage, seed=4, dtype=np.float32)
        clip = AudioClip(mini_clip(seed=2, n=800), 16000)
        if stage == 1:
            clue_sets = [ClueSet(tag=onehot(i)) for i in range(NUM_CLASSES)]
        else:
            clue_sets = [full_clues(seed=1), ClueSet(tag=onehot(0)),
                         ClueSet(text=np.array([3, 1])), full_clues(seed=2)]
        shared = extract_each(clip, clue_sets, model)
        assert len(shared) == len(clue_sets)
        for clues, (estimate, attention) in zip(clue_sets, shared):
            reference, ref_attention = extract(clip, clues, model)
            assert estimate.sample_rate == reference.sample_rate
            assert estimate.samples.tobytes() == reference.samples.tobytes()
            if stage == 1:
                assert attention is None and ref_attention is None
            else:
                assert attention.tobytes() == ref_attention.tobytes()

    def test_stage1_encoding_has_no_sound_queries(self):
        enc = encode_mixture(mini_model(stage=1), mini_clip(n=800))
        assert enc.sound is None
        assert enc.length == 800
        assert len(enc.skips) == len(MINI_CFG.channels)

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_extract_each_rejects_other_sample_rates(self, rate):
        with pytest.raises(InputError, match=f"{rate} Hz"):
            extract_each(AudioClip(mini_clip(), rate), [ClueSet(tag=onehot(0))], mini_model())


class TestDtypeContract:
    """A model computes its forward, loss and backward in its own dtype."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_graph_loss_and_gradients_keep_model_dtype(self, dtype, stage):
        model = mini_model(stage=stage, seed=1, dtype=dtype)
        loss = training_loss(model, stage)
        stray = {str(node.data.dtype) for node in Tape.trace(loss).nodes} - {np.dtype(dtype).name}
        assert stray == set()
        assert loss.data.dtype == dtype
        loss.backward()
        params = model.named_tensors()
        assert [n for n, t in params.items() if t.grad is None] == []
        assert {n: t.grad.dtype for n, t in params.items() if t.grad.dtype != dtype} == {}

    def test_float32_extract_with_precomputed_embeddings(self, tmp_path, monkeypatch):
        outputs = capture_run_model(monkeypatch)
        model = mini_model(stage=2, seed=2, dtype=np.float32)
        path = tmp_path / "text.emb"
        rng = np.random.default_rng(0)
        write_embedding_file(path, "text", rng.standard_normal((3, model.clue.dim)))
        modality, emb = read_embedding_file(path)
        clues = ClueSet(tag=onehot(0), video=rng.standard_normal((4, 5)), text=np.array([1]))
        extract(AudioClip(mini_clip(n=800), 16000), clues, model, precomputed={modality: emb})
        (out,) = outputs
        assert out.segments[0] == ("text", 0, 3)
        for t in (out.real, out.imag, out.wave, out.attention):
            assert t.data.dtype == np.float32


class TestFloat32GradientAccuracy:
    @pytest.mark.parametrize("stage", [1, 2])
    def test_matches_float64_copy(self, stage):
        model = mini_model(stage=stage, seed=3, dtype=np.float32)
        reference = float64_copy(model)
        grads = []
        for m in (model, reference):
            training_loss(m, stage, seed=4).backward()
            grads.append(np.concatenate([t.grad.ravel() for t in m.trainable_tensors()]))
        g32, g64 = grads
        assert g32.dtype == np.float32
        assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)


class TestGradients:
    def readout(self, model, mix, clues, rng):
        """Scalar projection of all three model outputs with fixed weights."""
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

    @pytest.mark.parametrize("seed", range(3))
    def test_stage1_full_model_matches_finite_differences(self, seed):
        model = micro_model(stage=1, seed=seed)
        rng = np.random.default_rng(seed + 100)
        mix = rng.standard_normal(24) * 0.3
        f = self.readout(model, mix, ClueSet(tag=onehot(seed % 2, 2)), rng)
        assert check_gradients(f, model.trainable_tensors(), h=1e-5) <= 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_stage2_full_model_matches_finite_differences(self, seed):
        model = micro_model(stage=2, seed=seed)
        rng = np.random.default_rng(seed + 200)
        mix = rng.standard_normal(24) * 0.3
        clues = ClueSet(
            tag=onehot(seed % 2, 2),
            text=np.array([0, 3, 1]),
            video=rng.standard_normal((3, 2)),
        )
        f = self.readout(model, mix, clues, rng)
        assert check_gradients(f, model.trainable_tensors(), h=1e-5) <= 1e-4

    def test_stage2_leaves_tag_tile_untouched(self):
        model = micro_model(stage=2)
        rng = np.random.default_rng(0)
        mix = rng.standard_normal(24) * 0.3
        out = run_model(model, mix, ClueSet(tag=onehot(0, 2)))
        ops.reduce_sum(out.wave).backward()
        assert model.tag_tile.w.grad is None
        for t in model.trainable_tensors():
            t.grad = None

    def test_stage1_touches_every_parameter(self):
        model = micro_model(stage=1)
        rng = np.random.default_rng(1)
        mix = rng.standard_normal(24) * 0.3
        f = self.readout(model, mix, ClueSet(tag=onehot(1, 2)), rng)
        loss = f()
        loss.backward()
        named = model.named_tensors()
        dead = [name for name, t in named.items() if t.grad is None or not np.any(t.grad)]
        assert dead == []
        for t in named.values():
            t.grad = None


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = mini_model(stage=2, seed=3, dtype=np.float32)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, model)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_gives_identical_output(self, tmp_path):
        model = mini_model(stage=1, seed=7, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        mix = mini_clip()
        out_a = run_model(model, mix, ClueSet(tag=onehot(0)))
        out_b = run_model(loaded, mix, ClueSet(tag=onehot(0)))
        assert np.array_equal(out_a.wave.data, out_b.wave.data)

    def test_config_survives_round_trip(self, tmp_path):
        model = mini_model(stage=2, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.stage == 2
        assert loaded.cfg == model.cfg
        assert loaded.clue_cfg == model.clue_cfg
        assert loaded.num_classes == model.num_classes
        assert loaded.vocab_size == model.vocab_size

    def test_stage1_checkpoint_excludes_clue_net(self, tmp_path):
        model = mini_model(stage=1, dtype=np.float32)
        names = set(model.named_tensors())
        assert "tag_tile.w" in names
        assert not any(name.startswith("clue.") for name in names)

    def test_stage2_checkpoint_excludes_tag_tile(self):
        model = mini_model(stage=2, dtype=np.float32)
        names = set(model.named_tensors())
        assert "tag_tile.w" not in names
        assert any(name.startswith("clue.") for name in names)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = mini_model(stage=1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_unknown_record_rejected(self, tmp_path):
        model = mini_model(stage=1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        extra = struct.pack("<I", 3) + b"zzz" + struct.pack("<II", 1, 2) + b"\x00" * 8
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(InputError, match="unexpected parameter"):
            load_checkpoint(path)

    def test_missing_parameters_rejected(self, tmp_path):
        model = mini_model(stage=1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        # Keep only the header: magic, version, config length, config.
        (cfg_len,) = struct.unpack_from("<I", blob, len(CKPT_MAGIC) + 4)
        path.write_bytes(blob[: len(CKPT_MAGIC) + 8 + cfg_len])
        with pytest.raises(InputError, match="missing parameters"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, mini_model(stage=1, seed=1, dtype=np.float32))
        previous = path.read_bytes()

        class HalfWriter:
            """A file that takes half of what it is given, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(bytes(data[: len(data) // 2]))
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(dccrn, "open",
                            lambda *a, **k: HalfWriter(builtins.open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, mini_model(stage=1, seed=2, dtype=np.float32))
        monkeypatch.undo()

        assert path.read_bytes() == previous
        load_checkpoint(path)
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_config_missing_key_rejected(self):
        with pytest.raises(InputError, match="missing key"):
            model_from_config({"stage": 1})


def _split_header(path):
    """(bytes before the JSON header, the header, bytes after it) of a checkpoint."""
    blob = path.read_bytes()
    start = len(CKPT_MAGIC) + 4
    (length,) = struct.unpack_from("<I", blob, start)
    end = start + 4 + length
    return blob[:start], json.loads(blob[start + 4 : end]), blob[end:]


def _with_header(path, edit):
    """Rewrite the JSON header of the checkpoint at path through edit(header)."""
    before, header, after = _split_header(path)
    raw = json.dumps(edit(header), sort_keys=True).encode("utf-8")
    path.write_bytes(before + struct.pack("<I", len(raw)) + raw + after)


class TestCheckpointHeader:
    def test_header_is_model_section_plus_stage_and_classes(self, tmp_path):
        model = mini_model(stage=2, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        section = model_section(MINI_CFG, MINI_CLUE, VOCAB)
        assert _split_header(path)[1] == {**section, "stage": 2, "num_classes": NUM_CLASSES}
        assert section["channels"] == [2, 2]

    def test_extra_stft_key_is_input_error_naming_file_and_key(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, mini_model(stage=1, dtype=np.float32))
        _with_header(path, lambda h: {**h, "stft": {**h["stft"], "window": 3}})
        with pytest.raises(InputError, match=r"m\.ckpt: unknown config key 'stft\.window'"):
            load_checkpoint(path)

    def test_channels_not_a_list_is_input_error_naming_file_and_key(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, mini_model(stage=1, dtype=np.float32))
        _with_header(path, lambda h: {**h, "channels": 5})
        with pytest.raises(InputError, match=r"m\.ckpt: config key 'channels'"):
            load_checkpoint(path)

    def test_missing_key_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, mini_model(stage=1, dtype=np.float32))
        _with_header(path, lambda h: {k: v for k, v in h.items() if k != "lstm_hidden"})
        with pytest.raises(InputError, match=r"m\.ckpt: .*missing key 'lstm_hidden'"):
            load_checkpoint(path)

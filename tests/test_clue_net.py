"""Tests for clue encoders, concatenation order, fusion attention and upsampling."""

import numpy as np
import pytest

from mctse import ops
from mctse.clue_net import (
    ClueNetParams,
    ClueSet,
    EmbeddingSeq,
    concat_clues,
    encode_clues,
    encode_sound,
    encode_tag,
    encode_text,
    encode_video,
    fuse_clues,
    read_embedding_file,
    upsample_clue,
    write_embedding_file,
)
from mctse.errors import ContractError, InputError
from mctse.gradcheck import check_gradients
from mctse.nn_blocks import multi_head_attention
from mctse.signal import ComplexSpec, StftConfig
from mctse.tensor import constant, zero_grads

SMALL_STFT = StftConfig(fft_size=16, win_len=16, hop=8)


def small_params(seed=0, **overrides):
    kwargs = dict(
        dim=8,
        num_classes=3,
        vocab_size=6,
        bins=SMALL_STFT.bins,
        sound_channels=2,
        downsample=2,
        text_raw_dim=4,
        video_raw_dim=5,
        heads=2,
    )
    kwargs.update(overrides)
    return ClueNetParams(np.random.default_rng(seed), **kwargs)


def small_spec(seed=0, frames=6, cfg=SMALL_STFT):
    rng = np.random.default_rng(seed)
    return ComplexSpec(
        rng.standard_normal((frames, cfg.bins)), rng.standard_normal((frames, cfg.bins)), cfg
    )


def onehot(i, n=3):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestClueSet:
    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ClueSet()

    def test_modalities_listed_in_fixed_order(self):
        cs = ClueSet(tag=onehot(0), text=[1, 2], video=np.ones((2, 5)))
        assert cs.modalities == ("text", "video", "tag")

    def test_empty_text_rejected(self):
        with pytest.raises(ContractError):
            ClueSet(text=[])

    def test_bad_video_shape_rejected(self):
        with pytest.raises(ContractError):
            ClueSet(video=np.ones(5))


class TestEncodeSound:
    def test_zero_spectrum_zero_bias_gives_zero(self):
        p = small_params()
        p.sound_bias.data[...] = 0.0
        p.sound_proj.lin.b.data[...] = 0.0
        spec = ComplexSpec(np.zeros((6, 9)), np.zeros((6, 9)), SMALL_STFT)
        emb = encode_sound(spec, p)
        np.testing.assert_array_equal(emb.data.data, 0.0)

    def test_desk_scale_downsampled_length(self):
        p = ClueNetParams(
            np.random.default_rng(0), dim=16, num_classes=3, vocab_size=6, bins=257,
            sound_channels=2, downsample=4,
        )
        rng = np.random.default_rng(1)
        spec = ComplexSpec(
            rng.standard_normal((321, 257)), rng.standard_normal((321, 257)), StftConfig()
        )
        emb = encode_sound(spec, p)
        assert emb.length == 81 and emb.dim == 16

    @pytest.mark.parametrize("frames,k", [(6, 2), (7, 2), (9, 4), (8, 4)])
    def test_ceil_division_length(self, frames, k):
        p = small_params(downsample=k)
        emb = encode_sound(small_spec(frames=frames), p)
        assert emb.length == -(-frames // k)

    def test_gradients_reach_all_sound_params(self):
        p = small_params()
        spec = small_spec()

        def f():
            return ops.reduce_sum(ops.square(encode_sound(spec, p).data))

        params = p.modality_tensors("sound")
        assert check_gradients(f, params) <= 1e-5
        zero_grads(params)

    def test_too_short_spectrum_rejected(self):
        p = small_params(downsample=4)
        assert encode_sound(small_spec(frames=4), p).length == 1  # boundary is allowed
        with pytest.raises(InputError):
            encode_sound(small_spec(frames=3), p)

    def test_bin_mismatch_rejected(self):
        p = small_params()
        cfg = StftConfig(fft_size=32, win_len=32, hop=16)
        spec = ComplexSpec(np.zeros((6, cfg.bins)), np.zeros((6, cfg.bins)), cfg)
        with pytest.raises(ContractError):
            encode_sound(spec, p)


class TestEncodeText:
    def test_single_token_shape(self):
        emb = encode_text([2], small_params())
        assert (emb.length, emb.dim) == (1, 8)

    def test_repeated_token_identical_rows(self):
        emb = encode_text([3, 3, 3], small_params())
        np.testing.assert_array_equal(emb.data.data[0], emb.data.data[1])
        np.testing.assert_array_equal(emb.data.data[0], emb.data.data[2])

    def test_out_of_vocab_rejected(self):
        with pytest.raises(InputError):
            encode_text([0, 6], small_params())
        with pytest.raises(InputError):
            encode_text([-1], small_params())

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        p = small_params(seed)
        tokens = np.random.default_rng(seed).integers(0, 6, size=4)

        def f():
            return ops.reduce_sum(ops.square(encode_text(tokens, p).data))

        assert check_gradients(f, p.modality_tensors("text")) <= 1e-5


class TestEncodeVideo:
    def test_single_frame_shape(self):
        emb = encode_video(np.ones((1, 5)), small_params())
        assert (emb.length, emb.dim) == (1, 8)

    def test_zero_frames_rejected(self):
        with pytest.raises(ContractError):
            encode_video(np.ones((0, 5)), small_params())

    def test_raw_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            encode_video(np.ones((3, 4)), small_params())

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        p = small_params(seed)
        frames = np.random.default_rng(seed).standard_normal((3, 5))

        def f():
            return ops.reduce_sum(ops.square(encode_video(frames, p).data))

        assert check_gradients(f, p.modality_tensors("video")) <= 1e-5


class TestEncodeTag:
    def test_class_zero_with_zero_bias_selects_row(self):
        p = small_params()
        p.tag_lin.b.data[...] = 0.0
        emb = encode_tag(onehot(0), p)
        np.testing.assert_allclose(emb.data.data[0], p.tag_lin.w.data[0])

    def test_two_hot_rejected(self):
        v = np.zeros(3)
        v[0] = v[2] = 1.0
        with pytest.raises(ContractError):
            encode_tag(v, small_params())

    def test_wrong_magnitude_rejected(self):
        v = np.zeros(3)
        v[1] = 2.0
        with pytest.raises(ContractError):
            encode_tag(v, small_params())

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractError):
            encode_tag(np.zeros(4), small_params())

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        p = small_params(seed)

        def f():
            return ops.reduce_sum(ops.square(encode_tag(onehot(1), p).data))

        assert check_gradients(f, p.modality_tensors("tag")) <= 1e-6


class TestConcatClues:
    def test_all_present_lengths_add(self):
        p = small_params()
        enc = encode_clues(
            ClueSet(tag=onehot(1), text=list(range(6)) + [0, 1, 2], video=np.ones((30, 5))), p
        )
        u, segments = concat_clues(enc)
        assert u.length == 9 + 30 + 1
        assert segments == [("text", 0, 9), ("video", 9, 39), ("tag", 39, 40)]

    def test_video_missing(self):
        p = small_params()
        u, segments = concat_clues(encode_clues(ClueSet(tag=onehot(0), text=list(range(6)) + [0, 1, 2]), p))
        assert u.length == 10
        assert segments == [("text", 0, 9), ("tag", 9, 10)]

    def test_tag_only(self):
        u, segments = concat_clues(encode_clues(ClueSet(tag=onehot(2)), small_params()))
        assert u.length == 1
        assert segments == [("tag", 0, 1)]

    def test_order_is_fixed_regardless_of_input_order(self):
        p = small_params()
        text = encode_text([1, 2], p)
        tag = encode_tag(onehot(0), p)
        u1, seg1 = concat_clues([tag, text])
        u2, seg2 = concat_clues([text, tag])
        np.testing.assert_array_equal(u1.data.data, u2.data.data)
        assert seg1 == seg2 == [("text", 0, 2), ("tag", 2, 3)]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            concat_clues([])

    def test_duplicate_modality_rejected(self):
        p = small_params()
        e = encode_tag(onehot(0), p)
        with pytest.raises(ContractError):
            concat_clues([e, e])

    def test_segment_map_partitions_rows(self):
        p = small_params()
        enc = encode_clues(ClueSet(tag=onehot(1), text=[1, 2, 3], video=np.ones((4, 5))), p)
        u, segments = concat_clues(enc)
        covered = []
        for _, start, stop in segments:
            covered.extend(range(start, stop))
        assert covered == list(range(u.length))


class TestFuseClues:
    def test_single_clue_rows_identical(self):
        p = small_params()
        q = encode_sound(small_spec(), p)
        u, _ = concat_clues([encode_tag(onehot(0), p)])
        fused, weights = fuse_clues(q, u, p.mha)
        assert np.all(weights.data == 1.0)
        np.testing.assert_allclose(
            fused.data.data, np.tile(fused.data.data[0], (q.length, 1)), atol=1e-12
        )

    def test_row_permutation_invariance(self):
        p = small_params()
        q = encode_sound(small_spec(), p)
        enc = encode_clues(ClueSet(tag=onehot(1), text=[1, 2, 3], video=np.ones((4, 5))), p)
        u, _ = concat_clues(enc)
        fused, _ = fuse_clues(q, u, p.mha)
        perm = np.random.default_rng(0).permutation(u.length)
        shuffled = EmbeddingSeq(constant(u.data.data[perm]), "clue")
        fused_p, _ = fuse_clues(q, shuffled, p.mha)
        assert np.max(np.abs(fused.data.data - fused_p.data.data)) <= 1e-6

    def test_absent_modality_equals_masked_rows(self):
        p = small_params()
        rng = np.random.default_rng(3)
        q = encode_sound(small_spec(3), p)
        text = [1, 4, 2]
        video = rng.standard_normal((4, 5))
        all_enc = encode_clues(ClueSet(tag=onehot(1), text=text, video=video), p)
        u_all, segments = concat_clues(all_enc)
        mask = np.zeros(u_all.length, dtype=bool)
        for name, start, stop in segments:
            if name == "video":
                mask[start:stop] = True
        masked_out, _ = multi_head_attention(q.data, u_all.data, u_all.data, p.mha, key_mask=mask)

        without = encode_clues(ClueSet(tag=onehot(1), text=text), p)
        u_sub, _ = concat_clues(without)
        sub_out, _ = fuse_clues(q, u_sub, p.mha)
        assert np.max(np.abs(masked_out.data - sub_out.data.data)) <= 1e-6

    def test_dim_mismatch_rejected(self):
        p = small_params()
        q = encode_sound(small_spec(), p)
        u = EmbeddingSeq(constant(np.zeros((3, 7))), "clue")
        with pytest.raises(ContractError):
            fuse_clues(q, u, p.mha)


class TestUpsampleClue:
    def test_repetition_pattern(self):
        rows = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        up = upsample_clue(rows, 4, 2)
        np.testing.assert_array_equal(
            up.data, [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]
        )

    def test_desk_scale_trim(self):
        rows = constant(np.random.default_rng(0).standard_normal((81, 4)))
        up = upsample_clue(rows, 321, 4)
        assert up.shape == (321, 4)
        np.testing.assert_array_equal(up.data, np.repeat(rows.data, 4, axis=0)[:321])

    def test_right_pad_with_last_row(self):
        rows = constant(np.array([[1.0], [2.0], [3.0]]))
        up = upsample_clue(rows, 8, 2)
        np.testing.assert_array_equal(up.data.reshape(-1), [1, 1, 2, 2, 3, 3, 3, 3])

    def test_downsample_recovers_input(self):
        rng = np.random.default_rng(1)
        rows = constant(rng.standard_normal((5, 3)))
        up = upsample_clue(rows, 15, 3)
        np.testing.assert_array_equal(up.data[::3], rows.data)

    def test_shrinking_rejected(self):
        with pytest.raises(ContractError):
            upsample_clue(constant(np.zeros((5, 2))), 4, 1)

    def test_gradients_sum_over_repeats(self):
        rows = constant(np.ones((2, 2)))
        rows.requires_grad = True
        loss = ops.reduce_sum(ops.square(upsample_clue(rows, 5, 3)))
        loss.backward()
        # rows 0..2 come from row 0; rows 3..4 from row 1
        np.testing.assert_array_equal(rows.grad, [[6.0, 6.0], [4.0, 4.0]])


class TestGradientIsolation:
    def test_absent_modalities_receive_no_gradient(self):
        p = small_params()
        spec = small_spec()
        q = encode_sound(spec, p)
        u, _ = concat_clues(encode_clues(ClueSet(tag=onehot(1), text=[1, 2]), p))
        fused, _ = fuse_clues(q, u, p.mha)
        clue = upsample_clue(fused.data, spec.frames, p.downsample)
        ops.reduce_sum(ops.square(clue)).backward()

        for modality in ("sound", "text", "tag", "attention"):
            assert all(
                t.grad is not None and np.any(t.grad != 0)
                for t in p.modality_tensors(modality)
            ), modality
        assert all(t.grad is None for t in p.modality_tensors("video"))


class TestParameterGroups:
    def test_modalities_partition_the_named_parameters(self):
        p = small_params()
        groups = [p.modality_tensors(m) for m in ("sound", "text", "video", "tag", "attention")]
        grouped = [id(t) for group in groups for t in group]
        assert sorted(grouped) == sorted(id(t) for t in p.named_tensors().values())
        assert len(groups[0]) == 6 and len(groups[1]) == 5 and len(groups[2]) == 4
        assert sorted(map(id, p.tensors())) == sorted(grouped)

    def test_unknown_modality_rejected(self):
        with pytest.raises(ContractError, match="unknown modality"):
            small_params().modality_tensors("audio")


class TestFullPipelineGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_through_fusion(self, seed):
        p = small_params(seed)
        spec = small_spec(seed, frames=4)
        video = np.random.default_rng(seed + 10).standard_normal((3, 5))
        clues = ClueSet(tag=onehot(0), text=[1, 5], video=video)

        def f():
            q = encode_sound(spec, p)
            u, _ = concat_clues(encode_clues(clues, p))
            fused, _ = fuse_clues(q, u, p.mha)
            clue = upsample_clue(fused.data, spec.frames, p.downsample)
            return ops.reduce_sum(ops.square(clue))

        assert check_gradients(f, p.tensors()) <= 1e-4


class TestDeterminism:
    def test_encoders_are_pure(self):
        p = small_params()
        clues = ClueSet(tag=onehot(1), text=[1, 2, 3], video=np.ones((4, 5)))
        a, _ = concat_clues(encode_clues(clues, p))
        b, _ = concat_clues(encode_clues(clues, p))
        np.testing.assert_array_equal(a.data.data, b.data.data)


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 8)).astype(np.float32)
        path = tmp_path / "v.emb"
        write_embedding_file(path, "video", data)
        modality, back = read_embedding_file(path)
        assert modality == "video"
        np.testing.assert_array_equal(back, data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(InputError):
            read_embedding_file(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embedding_file(path, "text", np.ones((4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(InputError):
            read_embedding_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_embedding_file(tmp_path / "none.emb")

    def test_precomputed_embedding_bypasses_encoder(self):
        p = small_params()
        emb = np.random.default_rng(0).standard_normal((5, 8))
        enc = encode_clues(ClueSet(tag=onehot(0)), p, precomputed={"video": emb})
        u, segments = concat_clues(enc)
        assert ("video", 0, 5) in segments
        np.testing.assert_allclose(u.data.data[:5], emb)

    def test_precomputed_wrong_dim_rejected(self):
        p = small_params()
        with pytest.raises(InputError):
            encode_clues(ClueSet(tag=onehot(0)), p, precomputed={"video": np.ones((5, 7))})

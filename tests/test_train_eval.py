"""Tests for the loss, optimizer, training loop, evaluation, and attention dump."""

import csv

import numpy as np
import pytest

from mctse import ConfigError, ContractError, InputError, constant, parameter, train_eval
from mctse.clue_net import ClueSet
from mctse.data_sim import Manifest, example_from_record, simulate
from mctse.dccrn import ClueConfig, DccrnConfig, Model, ModelOutput, extract, load_checkpoint
from mctse.gradcheck import check_gradients
from mctse.signal import AudioClip, StftConfig, snr_improvement, stft_array
from mctse.train_eval import (
    ALL_SUBSETS,
    MODALITIES,
    AdamState,
    EvalReport,
    LossConfig,
    TrainConfig,
    _check_gradient_isolation,
    adam_step,
    attention_matrix,
    dump_attention,
    evaluate,
    extraction_loss,
    lr_at,
    parse_subset,
    restrict_clues,
    stage2_from_stage1,
    subset_name,
    train,
    write_report,
)

SMALL_STFT = StftConfig(fft_size=16, win_len=16, hop=8)

# A deliberately thin model over the real 2 s / 16 kHz data geometry, so the
# training-loop tests run in seconds.
TRAIN_CFG = DccrnConfig(channels=(2, 2), lstm_hidden=8, lstm_layers=1)
TRAIN_CLUE = ClueConfig(sound_channels=2, downsample=4, text_raw_dim=8,
                        video_raw_dim=32, heads=2)


def tiny_model(stage=1, seed=1):
    return Model(
        np.random.default_rng(seed),
        TRAIN_CFG,
        num_classes=4,
        vocab_size=64,
        clue_cfg=TRAIN_CLUE,
        stage=stage,
        dtype=np.float32,
    )


@pytest.fixture(scope="module")
def toy_data():
    return simulate(4, {"train": 3, "valid": 2, "test-seen": 2}, seed=0)


class TestSubsets:
    def test_canonical_order(self):
        assert parse_subset("text+tag") == ("tag", "text")
        assert parse_subset("video+text+tag") == ("tag", "text", "video")
        assert parse_subset("video") == ("video",)

    def test_subset_name_round_trip(self):
        for name in ALL_SUBSETS:
            assert subset_name(parse_subset(name)) == name

    def test_unknown_modality_rejected(self):
        with pytest.raises(InputError, match="unknown"):
            parse_subset("tag+audio")

    def test_repeated_modality_rejected(self):
        with pytest.raises(InputError, match="repeated"):
            parse_subset("tag+tag")

    def test_empty_component_rejected(self):
        with pytest.raises(InputError):
            parse_subset("tag+")

    def test_restrict_keeps_only_requested(self):
        clues = ClueSet(tag=np.eye(4)[1], text=np.array([1, 2, 3]),
                        video=np.ones((3, 2)))
        kept = restrict_clues(clues, ("tag", "video"))
        assert kept.tag is not None
        assert kept.text is None
        assert kept.video is not None

    def test_restrict_missing_modality_rejected(self):
        clues = ClueSet(tag=np.eye(4)[1])
        with pytest.raises(InputError, match="lacks"):
            restrict_clues(clues, ("tag", "text"))


class TestConfigValidation:
    def test_defaults_valid(self):
        LossConfig()
        TrainConfig()

    def test_negative_l1_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(l1_weight=-1.0)

    def test_nonpositive_clamp_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(snr_clamp_db=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stage": 3},
            {"lr0": 0.0},
            {"decay": 0.0},
            {"decay": 1.5},
            {"batch_size": 0},
            {"epochs": 0},
            {"patience": 0},
        ],
    )
    def test_bad_train_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_missing_subset_weight_rejected(self):
        weights = {k: 0.1 for k in ALL_SUBSETS if k != "video"}
        with pytest.raises(ConfigError, match="subset_weights"):
            TrainConfig(subset_weights=weights)

    def test_zero_subset_weight_rejected(self):
        weights = {k: 0.1 for k in ALL_SUBSETS}
        weights["video"] = 0.0
        with pytest.raises(ConfigError, match="positive"):
            TrainConfig(subset_weights=weights)


def loss_fixture(seed=0, n=40):
    rng = np.random.default_rng(seed)
    target = AudioClip(rng.standard_normal(n) * 0.3, 16000)
    spec = stft_array(target.samples, SMALL_STFT)
    return target, spec


class TestLoss:
    def test_perfect_estimate_hits_clamp_floor(self):
        target, spec = loss_fixture()
        output = ModelOutput(constant(spec.real.copy()), constant(spec.imag.copy()),
                             constant(target.samples.copy()))
        value = extraction_loss(target, output, SMALL_STFT)
        assert float(value.data) == -120.0

    def test_zero_estimate_is_pure_l1(self):
        target, spec = loss_fixture(1)
        output = ModelOutput(constant(np.zeros_like(spec.real)),
                             constant(np.zeros_like(spec.imag)),
                             constant(np.zeros(len(target))))
        value = extraction_loss(target, output, SMALL_STFT)
        # error energy equals signal energy, so the SNR term is exactly 0 dB
        expected = 5.0 * (np.abs(spec.real).sum() + np.abs(spec.imag).sum()) / (
            2 * spec.real.size
        )
        assert float(value.data) == pytest.approx(expected, rel=1e-12)

    def test_known_error_energy(self):
        target, spec = loss_fixture(2)
        # estimate = target + target/sqrt(10): error energy is Es/10 -> -10 dB
        est = target.samples * (1.0 + 10.0**-0.5)
        output = ModelOutput(constant(spec.real.copy()), constant(spec.imag.copy()),
                             constant(est))
        cfg = LossConfig(l1_weight=0.0)
        value = extraction_loss(target, output, SMALL_STFT, cfg)
        assert float(value.data) == pytest.approx(-10.0, abs=1e-9)

    def test_huge_error_hits_upper_clamp(self):
        target, spec = loss_fixture(3)
        output = ModelOutput(constant(spec.real.copy()), constant(spec.imag.copy()),
                             constant(target.samples * 1e13))
        cfg = LossConfig(l1_weight=0.0)
        value = extraction_loss(target, output, SMALL_STFT, cfg)
        assert float(value.data) == 120.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        target, spec = loss_fixture(seed + 10)
        rng = np.random.default_rng(seed)
        wave = parameter(rng.standard_normal(len(target)) * 0.2)
        real = parameter(rng.standard_normal(spec.real.shape) * 0.2)
        imag = parameter(rng.standard_normal(spec.imag.shape) * 0.2)

        def f():
            return extraction_loss(target, ModelOutput(real, imag, wave), SMALL_STFT)

        assert check_gradients(f, [wave, real, imag], h=1e-6) <= 1e-6

    def test_zero_target_rejected(self):
        target = AudioClip(np.zeros(40), 16000)
        spec = stft_array(np.ones(40), SMALL_STFT)
        output = ModelOutput(constant(spec.real.copy()), constant(spec.imag.copy()),
                             constant(np.zeros(40)))
        with pytest.raises(InputError, match="nonzero"):
            extraction_loss(target, output, SMALL_STFT)

    def test_length_mismatch_rejected(self):
        target, spec = loss_fixture()
        output = ModelOutput(constant(spec.real.copy()), constant(spec.imag.copy()),
                             constant(np.zeros(39)))
        with pytest.raises(ContractError, match="length"):
            extraction_loss(target, output, SMALL_STFT)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        x = parameter(np.array(1.0))
        state = AdamState([x])
        adam_step([x], [np.array(2.0)], state, lr=0.1)
        assert float(x.data) == pytest.approx(0.9, abs=1e-6)
        assert state.step_count == 1

    def test_zero_grad_leaves_parameters(self):
        x = parameter(np.array(5.0))
        state = AdamState([x])
        adam_step([x], [np.array(0.0)], state, lr=0.1)
        assert float(x.data) == 5.0

    def test_matches_reference_recursion(self):
        x = parameter(np.array(0.0))
        state = AdamState([x])
        ref_x, m, v = 0.0, 0.0, 0.0
        for t in range(1, 51):
            g = 2.0 * (float(x.data) - 3.0)
            adam_step([x], [np.asarray(g)], state, lr=0.1)
            g_ref = 2.0 * (ref_x - 3.0)
            m = 0.9 * m + 0.1 * g_ref
            v = 0.999 * v + 0.001 * g_ref * g_ref
            ref_x -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert float(x.data) == pytest.approx(ref_x, abs=1e-12)

    def test_converges_on_quadratic(self):
        x = parameter(np.array(0.0))
        state = AdamState([x])
        for _ in range(100):
            adam_step([x], [np.asarray(2.0 * (float(x.data) - 3.0))], state, lr=0.1)
        assert abs(float(x.data) - 3.0) < 0.05

    @pytest.mark.parametrize("seed", range(10))
    def test_float32_steps_stay_within_bound(self, seed):
        # |m_hat| / sqrt(v_hat) <= (1-b1)/(1-b1^t) * sqrt((1-g^t)/(1-g))
        # * sqrt((1-b2^t)/(1-b2)) with g = b1^2/b2 (Cauchy-Schwarz over the
        # moment sums), so after k steps at rate lr a parameter has moved at
        # most lr * sum of those bounds, plus one float32 rounding per step.
        b1, b2, gamma = 0.9, 0.999, 0.9**2 / 0.999
        rng = np.random.default_rng(seed)
        x = parameter(np.zeros(1000, dtype=np.float32))
        state = AdamState([x])
        lr, bound = 1e-3, 0.0
        for t in range(1, 4):
            g = (rng.standard_normal(1000) * 10.0 ** rng.uniform(-6, 2, 1000)).astype(np.float32)
            adam_step([x], [g], state, lr=lr)
            bound += lr * ((1 - b1) / (1 - b1**t) * np.sqrt((1 - gamma**t) / (1 - gamma))
                           * np.sqrt((1 - b2**t) / (1 - b2)))
            assert x.data.dtype == np.float32
            slack = t * np.spacing(np.abs(x.data))
            assert np.all(np.abs(x.data.astype(np.float64)) <= bound + slack)

    def test_moments_are_float64(self):
        x = parameter(np.zeros(3, dtype=np.float32))
        state = AdamState([x])
        adam_step([x], [np.ones(3, dtype=np.float32)], state, lr=0.1)
        assert state.m[0].dtype == np.float64 and state.v[0].dtype == np.float64

    def test_shape_mismatch_rejected(self):
        x = parameter(np.zeros(3))
        state = AdamState([x])
        with pytest.raises(ContractError, match="shape"):
            adam_step([x], [np.zeros(4)], state, lr=0.1)

    def test_count_mismatch_rejected(self):
        x = parameter(np.zeros(3))
        state = AdamState([x])
        with pytest.raises(ContractError):
            adam_step([x], [np.zeros(3), np.zeros(3)], state, lr=0.1)


class TestSchedule:
    def test_epoch_ten_value(self):
        cfg = TrainConfig()
        assert lr_at(cfg, 10) == pytest.approx(3.685e-5, abs=5e-8)

    def test_exact_formula(self):
        cfg = TrainConfig(lr0=1e-3, decay=0.9)
        for epoch in range(5):
            assert lr_at(cfg, epoch) == 1e-3 * 0.9**epoch


class TestTrain:
    def test_overfits_single_example(self, toy_data, tmp_path):
        manifest, classes = toy_data
        single = type(manifest)([manifest.split("train")[0]])
        model = tiny_model(stage=1)
        cfg = TrainConfig(stage=1, lr0=1e-3, batch_size=1, epochs=10, seed=3)
        history = train(single, classes, model, cfg, tmp_path / "m.ckpt")
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert (tmp_path / "m.ckpt").exists()

    def test_bit_reproducible(self, toy_data, tmp_path):
        manifest, classes = toy_data
        cfg = TrainConfig(stage=1, lr0=1e-3, batch_size=2, epochs=2, seed=5)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        train(manifest, classes, tiny_model(stage=1), cfg, first)
        train(manifest, classes, tiny_model(stage=1), cfg, second)
        assert first.read_bytes() == second.read_bytes()

    def test_history_follows_schedule(self, toy_data, tmp_path):
        manifest, classes = toy_data
        cfg = TrainConfig(stage=1, lr0=1e-3, batch_size=2, epochs=2, seed=5)
        history = train(manifest, classes, tiny_model(stage=1), cfg, tmp_path / "m.ckpt")
        assert [h["epoch"] for h in history] == [0, 1]
        for h in history:
            assert h["lr"] == lr_at(cfg, h["epoch"])
            assert np.isfinite(h["train_loss"]) and np.isfinite(h["valid_loss"])

    def test_metrics_file(self, toy_data, tmp_path):
        manifest, classes = toy_data
        cfg = TrainConfig(stage=1, lr0=1e-3, batch_size=2, epochs=2, seed=5)
        metrics = tmp_path / "metrics.csv"
        train(manifest, classes, tiny_model(stage=1), cfg, tmp_path / "m.ckpt",
              metrics_path=metrics)
        rows = list(csv.reader(metrics.open()))
        assert rows[0] == ["epoch", "lr", "train_loss", "valid_loss"]
        assert len(rows) == 3

    def test_early_stopping_on_flat_validation(self, toy_data, tmp_path):
        manifest, classes = toy_data
        # An update of ~1e-20 vanishes in float32, so the validation loss is
        # bit-identical every epoch and patience runs out deterministically.
        cfg = TrainConfig(stage=1, lr0=1e-20, batch_size=2, epochs=30, patience=2, seed=5)
        history = train(manifest, classes, tiny_model(stage=1), cfg, tmp_path / "m.ckpt")
        assert len(history) == 3

    def test_stage_mismatch_rejected(self, toy_data, tmp_path):
        manifest, classes = toy_data
        with pytest.raises(ContractError, match="stage"):
            train(manifest, classes, tiny_model(stage=1),
                  TrainConfig(stage=2), tmp_path / "m.ckpt")

    def test_empty_train_split_rejected(self, toy_data, tmp_path):
        _, classes = toy_data
        with pytest.raises(InputError, match="no train"):
            train(Manifest([]), classes, tiny_model(stage=1), TrainConfig(stage=1),
                  tmp_path / "m.ckpt")

    def test_non_finite_loss_names_example_stage_and_subset(self, toy_data, tmp_path):
        manifest, classes = toy_data
        record = manifest.split("train")[0]
        model = tiny_model(stage=1)
        model.decoder[-1].br.data[0] = np.nan
        cfg = TrainConfig(stage=1, batch_size=1, epochs=1)
        out = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match=(
                f"non-finite loss nan on example '{record['id']}' "
                r"\(stage 1, clue subset 'tag'\)")):
            train(type(manifest)([record]), classes, model, cfg, out)
        assert not out.exists()

    def test_non_finite_validation_loss_stops_training(self, toy_data, tmp_path,
                                                      monkeypatch):
        manifest, classes = toy_data
        record = manifest.split("valid")[0]

        def nan_target_when_valid(record, table):
            example = example_from_record(record, table)
            if record["split"] == "valid":
                example.target.samples[:] = np.nan
            return example

        monkeypatch.setattr(train_eval, "example_from_record", nan_target_when_valid)
        cfg = TrainConfig(stage=1, batch_size=2, epochs=3)
        out = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match=(
                f"non-finite validation loss nan on example '{record['id']}' "
                r"\(stage 1\)")):
            train(manifest, classes, tiny_model(stage=1), cfg, out)
        assert not out.exists()

    def test_non_finite_gradient_stops_before_adam(self, toy_data, tmp_path, monkeypatch):
        manifest, classes = toy_data
        model = tiny_model(stage=1)
        target = model.named_tensors()["dec0.kr"]
        real = train_eval._accumulate_example

        def poisoned(*args, **kwargs):
            loss = real(*args, **kwargs)
            target.grad.flat[3] = np.inf
            return loss

        monkeypatch.setattr(train_eval, "_accumulate_example", poisoned)
        before = {n: t.data.copy() for n, t in model.named_tensors().items()}
        cfg = TrainConfig(stage=1, batch_size=2, epochs=1)
        out = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match="non-finite gradient for parameter 'dec0.kr'"):
            train(manifest, classes, model, cfg, out)
        assert all(np.array_equal(t.data, before[n]) for n, t in model.named_tensors().items())
        assert not out.exists()

    def test_stage2_training_runs(self, toy_data, tmp_path):
        manifest, classes = toy_data
        model = stage2_from_stage1(tiny_model(stage=1), seed=2)
        cfg = TrainConfig(stage=2, lr0=1e-3, batch_size=2, epochs=1, seed=6)
        history = train(manifest, classes, model, cfg, tmp_path / "m.ckpt")
        assert len(history) == 1
        assert np.isfinite(history[0]["train_loss"])


class TestWarmStart:
    def test_backbone_copied_exactly(self, tmp_path):
        stage1 = tiny_model(stage=1, seed=9)
        stage2 = stage2_from_stage1(stage1, seed=4)
        assert stage2.stage == 2
        source = stage1.backbone_named()
        for name, tensor in stage2.backbone_named().items():
            assert np.array_equal(tensor.data, source[name].data)

    def test_clue_net_is_fresh(self):
        stage1 = tiny_model(stage=1, seed=9)
        a = stage2_from_stage1(stage1, seed=4)
        b = stage2_from_stage1(stage1, seed=5)
        assert not np.array_equal(a.clue.mha.wq.data, b.clue.mha.wq.data)

    def test_stage1_model_has_no_clue_net(self):
        stage1 = tiny_model(stage=1, seed=9)
        assert stage1.clue is None
        assert not any(name.startswith("clue.") for name in stage1.named_tensors())
        # The clue network is drawn last, so stage 1 draws what stage 2 draws before it.
        same_seed = tiny_model(stage=2, seed=9)
        for name, tensor in stage1.backbone_named().items():
            assert np.array_equal(tensor.data, same_seed.backbone_named()[name].data)
        assert np.array_equal(stage1.tag_tile.w.data, same_seed.tag_tile.w.data)

    def test_warm_start_draws_a_clue_net(self):
        stage2 = stage2_from_stage1(tiny_model(stage=1, seed=9), seed=4)
        fresh = tiny_model(stage=2, seed=4).clue.named_tensors()
        drawn = stage2.clue.named_tensors()
        assert sorted(drawn) == sorted(fresh)
        for name, tensor in drawn.items():
            assert np.array_equal(tensor.data, fresh[name].data)

    def test_requires_stage1(self):
        with pytest.raises(ContractError, match="stage-1"):
            stage2_from_stage1(stage2_from_stage1(tiny_model(stage=1)))

    def test_loaded_checkpoint_warm_starts(self, tmp_path):
        from mctse.dccrn import save_checkpoint

        stage1 = tiny_model(stage=1, seed=9)
        path = tmp_path / "s1.ckpt"
        save_checkpoint(path, stage1)
        stage2 = stage2_from_stage1(load_checkpoint(path), seed=1)
        source = stage1.backbone_named()
        for name, tensor in stage2.backbone_named().items():
            assert np.array_equal(tensor.data, source[name].data)


class TestGradientIsolation:
    def test_clean_grads_pass(self):
        model = tiny_model(stage=2)
        _check_gradient_isolation(model, {"tag"})

    def test_leak_detected(self):
        model = tiny_model(stage=2)
        leaked = model.clue.modality_tensors("text")[0]
        leaked.grad = np.ones_like(leaked.data)
        with pytest.raises(ContractError, match="leaked"):
            _check_gradient_isolation(model, {"tag"})
        leaked.grad = None

    def test_used_modalities_may_have_grads(self):
        model = tiny_model(stage=2)
        touched = model.clue.modality_tensors("text")[0]
        touched.grad = np.ones_like(touched.data)
        _check_gradient_isolation(model, {"tag", "text"})
        touched.grad = None


class TestEvaluate:
    def test_identity_bypass_gives_zero_snri(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=2)
        report = evaluate(
            manifest, classes, model, split="test-seen", subsets=ALL_SUBSETS,
            extract_fn=lambda mixture, clues, m: (mixture, None),
        )
        for row in report.rows:
            assert row["snri_db"] == 0.0
        assert set(report.means()) == set(ALL_SUBSETS)

    def test_row_structure(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=1)
        subsets = ["tag"]
        report = evaluate(manifest, classes, model, split="test-seen", subsets=subsets)
        assert report.split == "test-seen"
        assert len(report.rows) == len(manifest.split("test-seen"))
        assert report.count("tag") == len(report.rows)

    def test_mean_matches_independent_recomputation(self, toy_data):
        from mctse.dccrn import extract

        manifest, classes = toy_data
        model = tiny_model(stage=1)
        report = evaluate(manifest, classes, model, split="test-seen", subsets=["tag"])
        recomputed = []
        for record in manifest.split("test-seen"):
            example = example_from_record(record, classes)
            clues = restrict_clues(example.clues, ("tag",))
            estimate, _ = extract(example.mixture, clues, model)
            recomputed.append(snr_improvement(example.mixture, estimate, example.target))
        assert report.mean("tag") == pytest.approx(float(np.mean(recomputed)), abs=1e-12)

    def test_three_subsets_three_means(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=2)
        subsets = ["tag", "tag+text", "tag+text+video"]
        report = evaluate(manifest, classes, model, split="test-seen", subsets=subsets)
        assert list(report.means()) == subsets
        assert len(report.rows) == 3 * len(manifest.split("test-seen"))

    def test_corruption_is_deterministic(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=2)
        kwargs = dict(split="test-seen", subsets=["tag+text+video"],
                      corrupt="both", corrupt_seed=7)
        first = evaluate(manifest, classes, model, **kwargs)
        second = evaluate(manifest, classes, model, **kwargs)
        assert first.rows == second.rows

    def test_corruption_ignores_absent_modalities(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=2)
        clean = evaluate(manifest, classes, model, split="test-seen", subsets=["tag"])
        corrupted = evaluate(manifest, classes, model, split="test-seen",
                             subsets=["tag"], corrupt="text", corrupt_seed=3)
        assert clean.rows == corrupted.rows

    @pytest.mark.parametrize("corrupt", [None, "both"])
    @pytest.mark.parametrize("stage, subsets", [(1, ("tag",)), (2, ALL_SUBSETS)])
    def test_shared_encoding_matches_per_subset_extract(self, toy_data, stage, subsets, corrupt):
        manifest, classes = toy_data
        model = tiny_model(stage=stage)
        kwargs = dict(split="test-seen", subsets=subsets, corrupt=corrupt, corrupt_seed=7)
        shared = evaluate(manifest, classes, model, **kwargs)
        per_subset = evaluate(manifest, classes, model, extract_fn=extract, **kwargs)
        assert len(shared.rows) == len(subsets) * len(manifest.split("test-seen"))
        assert [(r["id"], r["subset"]) for r in shared.rows] == [
            (r["id"], r["subset"]) for r in per_subset.rows]
        assert np.array([r["snri_db"] for r in shared.rows]).tobytes() == np.array(
            [r["snri_db"] for r in per_subset.rows]).tobytes()

    def test_each_mixture_is_encoded_once(self, toy_data, monkeypatch):
        from mctse import dccrn

        manifest, classes = toy_data
        calls = {"encode": 0, "encode_sound": 0}
        encode, encode_sound = Model.encode, dccrn.encode_sound

        def counting_encode(self, spec):
            calls["encode"] += 1
            return encode(self, spec)

        def counting_encode_sound(spec, params):
            calls["encode_sound"] += 1
            return encode_sound(spec, params)

        monkeypatch.setattr(Model, "encode", counting_encode)
        monkeypatch.setattr(dccrn, "encode_sound", counting_encode_sound)
        evaluate(manifest, classes, tiny_model(stage=2), split="test-seen", subsets=ALL_SUBSETS)
        records = len(manifest.split("test-seen"))
        assert calls == {"encode": records, "encode_sound": records}

    def test_custom_extract_fn_called_once_per_subset(self, toy_data):
        manifest, classes = toy_data
        model = tiny_model(stage=2)
        seen = []

        def identity(mixture, clues, m):
            seen.append((mixture, clues, m))
            return mixture, None

        evaluate(manifest, classes, model, split="test-seen", subsets=ALL_SUBSETS,
                 extract_fn=identity)
        records = len(manifest.split("test-seen"))
        assert len(seen) == records * len(ALL_SUBSETS)
        assert all(m is model and isinstance(mix, AudioClip) for mix, _, m in seen)
        present = [tuple(k for k in MODALITIES if getattr(c, k) is not None) for _, c, _ in seen]
        assert present == [parse_subset(name) for name in ALL_SUBSETS] * records

    def test_mixture_at_another_rate_rejected(self, toy_data, monkeypatch):
        manifest, classes = toy_data

        def at_8k(record, table):
            example = example_from_record(record, table)
            example.mixture = AudioClip(example.mixture.samples, 8000)
            return example

        monkeypatch.setattr(train_eval, "example_from_record", at_8k)
        with pytest.raises(InputError, match="8000 Hz"):
            evaluate(manifest, classes, tiny_model(stage=1), split="test-seen", subsets=["tag"])

    def test_empty_subsets_rejected(self, toy_data):
        manifest, classes = toy_data
        with pytest.raises(InputError):
            evaluate(manifest, classes, tiny_model(), subsets=[])

    def test_unknown_corruption_rejected(self, toy_data):
        manifest, classes = toy_data
        with pytest.raises(InputError, match="corrupt"):
            evaluate(manifest, classes, tiny_model(), subsets=["tag"], corrupt="tag")

    def test_missing_split_rejected(self, toy_data):
        manifest, classes = toy_data
        with pytest.raises(InputError, match="test-unseen"):
            evaluate(manifest, classes, tiny_model(), split="test-unseen",
                     subsets=["tag"])

    def test_report_mean_without_rows_rejected(self):
        report = EvalReport(split="test-seen", subsets=["tag"], rows=[])
        with pytest.raises(InputError):
            report.mean("tag")

    def test_report_spread(self):
        values = [3.0, 9.0, 0.0, 6.0, 1.0, 10.0, 4.0, 8.0, 2.0, 7.0, 5.0]
        rows = [{"id": f"r{i}", "subset": "tag", "snri_db": v} for i, v in enumerate(values)]
        rows.append({"id": "r0", "subset": "text", "snri_db": -2.5})
        report = EvalReport(split="test-seen", subsets=["tag", "text"], rows=rows)
        assert report.spread("tag") == {"median": 5.0, "p10": 1.0, "p90": 9.0}
        assert report.spread("text") == {"median": -2.5, "p10": -2.5, "p90": -2.5}
        with pytest.raises(InputError):
            report.spread("video")


class TestWriteReport:
    def test_layout(self, toy_data, tmp_path):
        manifest, classes = toy_data
        model = tiny_model(stage=1)
        report = evaluate(manifest, classes, model, split="test-seen", subsets=["tag"])
        path = tmp_path / "report.csv"
        write_report(path, report)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["kind", "subset", "example_id", "snri_db"]
        assert rows[1][0] == "mean"
        assert rows[1][1] == "tag"
        example_rows = [r for r in rows[1:] if r[0] == "example"]
        assert len(example_rows) == len(report.rows)
        assert float(rows[1][3]) == pytest.approx(report.mean("tag"), abs=1e-5)


class TestAttentionDump:
    def example(self, toy_data):
        manifest, classes = toy_data
        return example_from_record(manifest.split("test-seen")[0], classes)

    def test_stage1_model_rejected(self, toy_data, tmp_path):
        example = self.example(toy_data)
        with pytest.raises(ContractError, match="stage-1"):
            dump_attention(tiny_model(stage=1), example.mixture, example.clues,
                           tmp_path / "att.csv")

    def test_full_clue_layout(self, toy_data, tmp_path):
        example = self.example(toy_data)
        model = tiny_model(stage=2)
        path = tmp_path / "att.csv"
        matrix = dump_attention(model, example.mixture, example.clues, path)
        t_t = example.clues.text.size
        t_v = example.clues.video.shape[0]
        rows = list(csv.reader(path.open()))
        header = rows[0]
        assert len(header) == t_t + t_v + 1
        assert header[:2] == ["text:0", "text:1"]
        assert header[t_t] == "video:0"
        assert header[-1] == "tag:0"
        # 321 STFT frames downsampled by 4 -> 81 query rows
        assert matrix.shape == (81, t_t + t_v + 1)
        assert len(rows) == 1 + 81
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.all((parsed >= 0.0) & (parsed <= 1.0))
        assert np.allclose(parsed.sum(axis=1), 1.0, atol=1e-5)

    def test_tag_only_is_single_unit_column(self, toy_data, tmp_path):
        example = self.example(toy_data)
        model = tiny_model(stage=2)
        matrix, labels = attention_matrix(
            model, example.mixture, ClueSet(tag=example.clues.tag)
        )
        assert labels == ["tag:0"]
        assert matrix.shape == (81, 1)
        assert np.all(matrix == 1.0)

"""Tests for the command-line interface."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mctse.cli import DEFAULT_CONFIG, load_config, main, parse_clues
from mctse.clue_net import write_embedding_file
from mctse.data_sim import read_manifest
from mctse.dccrn import load_checkpoint
from mctse.errors import InputError
from mctse.signal import AudioClip, read_wav, write_wav

SMALL_CONFIG = {
    "model": {
        "channels": [2, 2],
        "lstm_hidden": 8,
        "lstm_layers": 1,
        "clue": {
            "sound_channels": 2,
            "downsample": 4,
            "text_raw_dim": 8,
            "video_raw_dim": 32,
            "heads": 2,
        },
    },
    "train": {"lr0": 0.001, "batch_size": 2, "epochs": 2, "seed": 5},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated dataset plus trained stage-1/stage-2 checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    data = root / "data"
    assert main([
        "simulate", "--classes", "4", "--train", "4", "--valid", "2",
        "--test", "2", "--seed", "0", "--out", str(data), "--wav",
    ]) == 0
    manifest = data / "manifest.jsonl"
    s1 = root / "s1.ckpt"
    s2 = root / "s2.ckpt"
    assert main([
        "train", "--stage", "1", "--manifest", str(manifest),
        "--config", str(config), "--out", str(s1),
    ]) == 0
    assert main([
        "train", "--stage", "2", "--manifest", str(manifest),
        "--config", str(config), "--init", str(s1), "--out", str(s2),
    ]) == 0
    return {"root": root, "data": data, "manifest": manifest,
            "config": config, "s1": s1, "s2": s2}


class TestConfigLoading:
    def test_none_gives_defaults(self):
        assert load_config(None) == DEFAULT_CONFIG

    def test_deep_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"lstm_hidden": 16}}))
        config = load_config(path)
        assert config["model"]["lstm_hidden"] == 16
        assert config["model"]["channels"] == DEFAULT_CONFIG["model"]["channels"]
        assert config["train"] == DEFAULT_CONFIG["train"]

    def test_nested_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"stft": {"window": 3}}}))
        with pytest.raises(InputError, match="model.stft.window"):
            load_config(path)

    def test_top_level_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(InputError, match="optimizer"):
            load_config(path)

    def test_subset_weights_replaced_wholesale(self, tmp_path):
        path = tmp_path / "c.json"
        weights = {k: 1.0 for k in DEFAULT_CONFIG["train"]["subset_weights"]}
        path.write_text(json.dumps({"train": {"subset_weights": weights}}))
        assert load_config(path)["train"]["subset_weights"] == weights

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="malformed"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "absent.json")

    def test_integer_accepted_where_default_is_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"loss": {"l1_weight": 2}}))
        assert load_config(path)["loss"]["l1_weight"] == 2

    def test_readme_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == load_config(None)

    def test_defaults_not_mutated(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": {"lstm_hidden": 16}}))
        load_config(path)
        assert DEFAULT_CONFIG["model"]["lstm_hidden"] == 64


class TestParseClues:
    def model(self, workspace):
        return load_checkpoint(workspace["s1"])

    def test_tag_one_hot(self, workspace):
        clues = parse_clues("tag=2", self.model(workspace))
        assert clues.tag.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert clues.text is None and clues.video is None

    def test_text_tokens(self, workspace):
        clues = parse_clues("tag=0,text=3:7:12", self.model(workspace))
        assert clues.text.tolist() == [3, 7, 12]

    def test_video_from_embedding_file(self, workspace, tmp_path):
        path = tmp_path / "v.emb"
        rows = np.random.default_rng(0).standard_normal((5, 32))
        write_embedding_file(path, "video", rows)
        clues = parse_clues(f"tag=0,video={path}", self.model(workspace))
        assert clues.video.shape == (5, 32)

    def test_wrong_modality_file_rejected(self, workspace, tmp_path):
        path = tmp_path / "t.emb"
        write_embedding_file(path, "text", np.zeros((3, 8)))
        with pytest.raises(InputError, match="expected video"):
            parse_clues(f"video={path}", self.model(workspace))

    def test_unknown_key_rejected(self, workspace):
        with pytest.raises(InputError, match="unknown clue"):
            parse_clues("audio=1", self.model(workspace))

    def test_tag_out_of_range_rejected(self, workspace):
        with pytest.raises(InputError, match="outside"):
            parse_clues("tag=9", self.model(workspace))

    def test_non_integer_tag_rejected(self, workspace):
        with pytest.raises(InputError, match="integer"):
            parse_clues("tag=one", self.model(workspace))

    def test_empty_rejected(self, workspace):
        with pytest.raises(InputError):
            parse_clues("=", self.model(workspace))


class TestSimulateCommand:
    def test_outputs(self, workspace):
        manifest = read_manifest(workspace["manifest"])
        assert len(manifest.records) == 4 + 2 + 2 + 2
        assert (workspace["data"] / "classes.json").exists()
        assert (workspace["data"] / "train-00000_mix.wav").exists()

    def test_repeat_is_bit_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main([
                "simulate", "--classes", "4", "--train", "2", "--valid", "1",
                "--test", "1", "--seed", "9", "--out", str(tmp_path / sub),
            ]) == 0
        assert (tmp_path / "a/manifest.jsonl").read_bytes() == \
            (tmp_path / "b/manifest.jsonl").read_bytes()


class TestTrainCommand:
    def test_checkpoints_written(self, workspace):
        assert workspace["s1"].exists()
        assert workspace["s2"].exists()
        assert load_checkpoint(workspace["s1"]).stage == 1
        assert load_checkpoint(workspace["s2"]).stage == 2

    def test_metrics_written(self, workspace):
        rows = list(csv.reader((workspace["root"] / "s1.ckpt.metrics.csv").open()))
        assert rows[0] == ["epoch", "lr", "train_loss", "valid_loss"]
        assert len(rows) == 1 + SMALL_CONFIG["train"]["epochs"]

    def test_stage2_without_init_is_input_error(self, workspace, tmp_path):
        assert main([
            "train", "--stage", "2", "--manifest", str(workspace["manifest"]),
            "--config", str(workspace["config"]), "--out", str(tmp_path / "x.ckpt"),
        ]) == 2

    def test_stage2_init_must_be_stage1(self, workspace, tmp_path):
        assert main([
            "train", "--stage", "2", "--manifest", str(workspace["manifest"]),
            "--config", str(workspace["config"]), "--init", str(workspace["s2"]),
            "--out", str(tmp_path / "x.ckpt"),
        ]) == 2

    def test_bad_config_value_is_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"decay": 7}}))
        assert main([
            "train", "--stage", "1", "--manifest", str(workspace["manifest"]),
            "--config", str(bad), "--out", str(tmp_path / "x.ckpt"),
        ]) == 3

    def test_unknown_config_key_is_input_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"oops": 1}}))
        assert main([
            "train", "--stage", "1", "--manifest", str(workspace["manifest"]),
            "--config", str(bad), "--out", str(tmp_path / "x.ckpt"),
        ]) == 2

    def test_missing_class_table_is_input_error(self, workspace, tmp_path):
        lonely = tmp_path / "manifest.jsonl"
        lonely.write_bytes(workspace["manifest"].read_bytes())
        assert main([
            "train", "--stage", "1", "--manifest", str(lonely),
            "--config", str(workspace["config"]), "--out", str(tmp_path / "x.ckpt"),
        ]) == 2


    @pytest.mark.parametrize("bad,key", [
        ({"model": {"channels": 5}}, "model.channels"),
        ({"train": {"lr0": "fast"}}, "train.lr0"),
        ({"train": {"epochs": 2.5}}, "train.epochs"),
        ({"train": {"subset_weights": {"tag": "high"}}}, "train.subset_weights"),
    ])
    def test_value_of_wrong_type_is_input_error_naming_key(self, workspace, tmp_path,
                                                           capsys, bad, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "x.ckpt"
        assert main([
            "train", "--stage", "1", "--manifest", str(workspace["manifest"]),
            "--config", str(path), "--out", str(out),
        ]) == 2
        assert f"bad.json: config key '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestExtractCommand:
    def test_writes_estimate(self, workspace, tmp_path):
        mix = workspace["data"] / "train-00000_mix.wav"
        out = tmp_path / "est.wav"
        assert main([
            "extract", "--ckpt", str(workspace["s1"]), "--mix", str(mix),
            "--clues", "tag=0", "--out", str(out),
        ]) == 0
        estimate = read_wav(out)
        assert len(estimate.samples) == len(read_wav(mix).samples)

    def test_multi_clue_extraction(self, workspace, tmp_path):
        mix = workspace["data"] / "train-00000_mix.wav"
        emb = tmp_path / "v.emb"
        write_embedding_file(emb, "video",
                             np.random.default_rng(1).standard_normal((30, 32)))
        out = tmp_path / "est.wav"
        assert main([
            "extract", "--ckpt", str(workspace["s2"]), "--mix", str(mix),
            "--clues", f"tag=1,text=16:0:42,video={emb}", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_missing_mix_is_input_error(self, workspace, tmp_path):
        assert main([
            "extract", "--ckpt", str(workspace["s1"]),
            "--mix", str(tmp_path / "nope.wav"),
            "--clues", "tag=0", "--out", str(tmp_path / "x.wav"),
        ]) == 2

    def test_stage1_without_tag_is_input_error(self, workspace, tmp_path):
        mix = workspace["data"] / "train-00000_mix.wav"
        assert main([
            "extract", "--ckpt", str(workspace["s1"]), "--mix", str(mix),
            "--clues", "text=1:2:3", "--out", str(tmp_path / "x.wav"),
        ]) == 2

    def test_mixture_at_8khz_is_input_error(self, workspace, tmp_path, capsys):
        samples = read_wav(workspace["data"] / "train-00000_mix.wav").samples
        mix = tmp_path / "mix8k.wav"
        write_wav(mix, AudioClip(samples[::2], 8000))
        out = tmp_path / "x.wav"
        assert main([
            "extract", "--ckpt", str(workspace["s1"]), "--mix", str(mix),
            "--clues", "tag=0", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "8000 Hz" in err and "16000 Hz" in err
        assert not out.exists()


class TestEvaluateCommand:
    def test_report(self, workspace, tmp_path):
        report = tmp_path / "report.csv"
        assert main([
            "evaluate", "--ckpt", str(workspace["s2"]),
            "--manifest", str(workspace["manifest"]),
            "--subsets", "tag|tag+text|tag+text+video",
            "--report", str(report),
        ]) == 0
        rows = list(csv.reader(report.open()))
        assert rows[0] == ["kind", "subset", "example_id", "snri_db"]
        means = [r for r in rows[1:] if r[0] == "mean"]
        assert [r[1] for r in means] == ["tag", "tag+text", "tag+text+video"]

    def test_corruption_flags(self, workspace, tmp_path):
        report = tmp_path / "report.csv"
        assert main([
            "evaluate", "--ckpt", str(workspace["s2"]),
            "--manifest", str(workspace["manifest"]),
            "--subsets", "tag+text+video", "--corrupt", "both", "--seed", "3",
            "--report", str(report),
        ]) == 0

    def test_bad_subset_is_input_error(self, workspace, tmp_path):
        assert main([
            "evaluate", "--ckpt", str(workspace["s2"]),
            "--manifest", str(workspace["manifest"]),
            "--subsets", "tag+audio", "--report", str(tmp_path / "r.csv"),
        ]) == 2


class TestAttentionCommand:
    def test_layout(self, workspace, tmp_path):
        manifest = read_manifest(workspace["manifest"])
        record = next(r for r in manifest.records if r["split"] == "test-seen")
        out = tmp_path / "att.csv"
        assert main([
            "attention", "--ckpt", str(workspace["s2"]),
            "--manifest", str(workspace["manifest"]),
            "--example", record["id"], "--out", str(out),
        ]) == 0
        rows = list(csv.reader(out.open()))
        expected_cols = len(record["clue_text_tokens"]) + 30 + 1
        assert len(rows[0]) == expected_cols
        assert len(rows) == 1 + 81
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-5)

    def test_unknown_example_is_input_error(self, workspace, tmp_path):
        assert main([
            "attention", "--ckpt", str(workspace["s2"]),
            "--manifest", str(workspace["manifest"]),
            "--example", "nope-123", "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_stage1_checkpoint_is_contract_error(self, workspace, tmp_path):
        manifest = read_manifest(workspace["manifest"])
        assert main([
            "attention", "--ckpt", str(workspace["s1"]),
            "--manifest", str(workspace["manifest"]),
            "--example", manifest.records[0]["id"], "--out", str(tmp_path / "x.csv"),
        ]) == 3


class TestParser:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_stage_exits_two(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--stage", "3", "--manifest", str(workspace["manifest"]),
                  "--out", str(tmp_path / "x.ckpt")])
        assert excinfo.value.code == 2

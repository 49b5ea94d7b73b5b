"""Command-line interface: simulate, train, extract, evaluate, attention."""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .clue_net import ClueSet, read_embedding_file
from .data_sim import example_from_record, read_classes, read_manifest, simulate
from .dccrn import (
    Model,
    extract,
    load_checkpoint,
    model_from_config,
    model_section,
    overlay_settings,
)
from .errors import ConfigError, ContractError, InputError
from .signal import read_wav, write_wav
from .train_eval import (
    LossConfig,
    TrainConfig,
    dump_attention,
    evaluate,
    stage2_from_stage1,
    train,
    write_report,
)

# Every default comes from the config dataclasses; a train command's stage is
# its --stage option, not a setting.
DEFAULT_CONFIG = {
    "model": model_section(),
    "train": {k: v for k, v in asdict(TrainConfig()).items() if k != "stage"},
    "loss": asdict(LossConfig()),
}

# Dict-valued settings whose keys are data, not nested config structure.
_LEAF_DICTS = frozenset({"subset_weights"})


def load_config(path=None) -> dict:
    """Defaults overlaid with the JSON file at path, rejecting unknown keys."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as f:
            overrides = json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed config JSON: {exc}") from None
    try:
        return overlay_settings(DEFAULT_CONFIG, overrides, whole=_LEAF_DICTS)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def build_model(config: dict, stage: int, num_classes: int, seed: int) -> Model:
    return model_from_config({**config["model"], "stage": stage, "num_classes": num_classes},
                             np.random.default_rng(seed))


def _classes_beside(manifest_path) -> list:
    table = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), "classes.json")
    if not os.path.exists(table):
        raise InputError(f"expected a class table next to the manifest at {table}")
    return read_classes(table)


def parse_clues(spec: str, model: Model) -> ClueSet:
    """Parse 'tag=ID,text=3:7:12,video=FILE' into a ClueSet."""
    tag = text = video = None
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"clue {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "tag":
            try:
                index = int(value)
            except ValueError:
                raise InputError(f"tag id {value!r} is not an integer") from None
            if not 0 <= index < model.num_classes:
                raise InputError(
                    f"tag id {index} outside [0, {model.num_classes})"
                )
            tag = np.zeros(model.num_classes)
            tag[index] = 1.0
        elif key == "text":
            try:
                text = np.array([int(t) for t in value.split(":")], dtype=np.int64)
            except ValueError:
                raise InputError(f"text tokens {value!r} are not colon-separated "
                                 f"integers") from None
        elif key == "video":
            modality, rows = read_embedding_file(value)
            if modality != "video":
                raise InputError(
                    f"{value} holds {modality!r} embeddings, expected video"
                )
            video = np.asarray(rows, dtype=np.float64)
        else:
            raise InputError(f"unknown clue modality {key!r}")
    if tag is None and text is None and video is None:
        raise InputError("at least one clue is required, e.g. --clues tag=0")
    return ClueSet(tag=tag, text=text, video=video)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    counts = {
        "train": args.train,
        "valid": args.valid,
        "test-seen": args.test,
        "test-unseen": args.test,
    }
    manifest, classes = simulate(
        args.classes, counts, seed=args.seed, out_dir=args.out,
        unseen_classes=args.unseen_classes, materialize=args.wav,
    )
    print(
        f"wrote {len(manifest.records)} examples over {len(classes)} classes "
        f"to {os.path.join(args.out, 'manifest.jsonl')}"
    )
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    classes = _classes_beside(args.manifest)
    train_cfg = TrainConfig(stage=args.stage, **config["train"])
    loss_cfg = LossConfig(**config["loss"])

    if args.stage == 2:
        if args.init is None:
            raise InputError("stage 2 needs --init pointing at a stage-1 checkpoint")
        stage1 = load_checkpoint(args.init)
        if stage1.stage != 1:
            raise InputError(f"{args.init} is a stage-{stage1.stage} checkpoint")
        model = stage2_from_stage1(stage1, seed=train_cfg.seed)
    elif args.init is not None:
        model = load_checkpoint(args.init)
        if model.stage != 1:
            raise InputError(f"{args.init} is a stage-{model.stage} checkpoint")
    else:
        model = build_model(config, 1, len(classes), train_cfg.seed)

    if model.num_classes != len(classes):
        raise InputError(
            f"model expects {model.num_classes} classes but the class table "
            f"has {len(classes)}"
        )
    history = train(
        manifest, classes, model, train_cfg, args.out, loss_cfg=loss_cfg,
        metrics_path=f"{args.out}.metrics.csv", log=print,
    )
    best = min(history, key=lambda h: h["valid_loss"])
    print(
        f"finished after {len(history)} epochs; best valid loss "
        f"{best['valid_loss']:.4f} at epoch {best['epoch']}; saved {args.out}"
    )
    return 0


def cmd_extract(args) -> int:
    model = load_checkpoint(args.ckpt)
    mixture = read_wav(args.mix)
    clues = parse_clues(args.clues, model)
    if model.stage == 1 and clues.tag is None:
        raise InputError("this checkpoint conditions on the tag clue; pass tag=ID")
    estimate, _ = extract(mixture, clues, model)
    write_wav(args.out, estimate)
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.ckpt)
    manifest = read_manifest(args.manifest)
    classes = _classes_beside(args.manifest)
    subsets = [s.strip() for s in args.subsets.split("|") if s.strip()]
    report = evaluate(
        manifest, classes, model, split=args.split, subsets=subsets,
        corrupt=args.corrupt, corrupt_seed=args.seed,
    )
    write_report(args.report, report)
    for name in report.subsets:
        print(f"{name}: mean SNRi {report.mean(name):+.3f} dB over {report.count(name)}")
    print(f"wrote {args.report}")
    return 0


def cmd_attention(args) -> int:
    model = load_checkpoint(args.ckpt)
    manifest = read_manifest(args.manifest)
    classes = _classes_beside(args.manifest)
    matches = [r for r in manifest.records if r["id"] == args.example]
    if not matches:
        raise InputError(f"manifest has no example with id {args.example!r}")
    example = example_from_record(matches[0], classes)
    dump_attention(model, example.mixture, example.clues, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctse",
        description="Multi-clue target sound extraction at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p.add_argument("--classes", type=int, default=4, help="number of sound classes")
    p.add_argument("--train", type=int, default=400, help="training examples")
    p.add_argument("--valid", type=int, default=40, help="validation examples")
    p.add_argument("--test", type=int, default=40,
                   help="examples in each of test-seen and test-unseen")
    p.add_argument("--unseen-classes", type=int, default=2,
                   help="classes held out of training targets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--wav", action="store_true",
                   help="also materialize mixture/target WAV files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train one stage of the model")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--manifest", required=True,
                   help="manifest.jsonl with classes.json beside it")
    p.add_argument("--config", default=None, help="JSON config overriding defaults")
    p.add_argument("--init", default=None,
                   help="stage-1 checkpoint (required for --stage 2)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract the target sound from a mixture")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mix", required=True, help="mixture WAV file")
    p.add_argument("--clues", required=True,
                   help="e.g. tag=2 or tag=2,text=3:7:12,video=clip.emb")
    p.add_argument("--out", required=True, help="estimate WAV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="mean SNR improvement per clue subset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subsets", required=True,
                   help="pipe-separated, e.g. 'tag|tag+text|tag+text+video'")
    p.add_argument("--split", default="test-seen",
                   choices=("train", "valid", "test-seen", "test-unseen"))
    p.add_argument("--corrupt", default=None, choices=("text", "video", "both"))
    p.add_argument("--seed", type=int, default=0, help="corruption seed")
    p.add_argument("--report", required=True, help="CSV report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attention", help="dump fused-clue attention as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--example", required=True, help="example id from the manifest")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

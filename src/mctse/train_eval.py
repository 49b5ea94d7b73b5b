"""Loss, optimizer, two-stage training, evaluation, and attention export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ops
from .clue_net import ClueSet
from .data_sim import (
    Manifest,
    SoundClass,
    corrupt_text,
    corrupt_video,
    example_from_record,
)
from .dccrn import Model, ModelOutput, extract_each, run_model, save_checkpoint
from .errors import ConfigError, ContractError, InputError
from .signal import SNR_CLAMP_DB, AudioClip, StftConfig, snr_improvement, stft_array
from .tensor import Tensor, constant, no_grad, zero_grads

MODALITIES = ("tag", "text", "video")
ALL_SUBSETS = (
    "tag", "text", "video", "tag+text", "tag+video", "text+video", "tag+text+video",
)
DEFAULT_SUBSET_WEIGHTS = {
    "tag+text+video": 0.4,
    "tag+text": 0.1,
    "tag+video": 0.1,
    "text+video": 0.1,
    "tag": 0.1,
    "text": 0.1,
    "video": 0.1,
}


def parse_subset(name: str) -> tuple[str, ...]:
    """Turn 'text+tag' into the canonical modality tuple ('tag', 'text')."""
    parts = [p.strip() for p in name.split("+")]
    if not parts or any(not p for p in parts):
        raise InputError(f"empty modality in subset {name!r}")
    unknown = [p for p in parts if p not in MODALITIES]
    if unknown:
        raise InputError(f"unknown modalities {unknown} in subset {name!r}")
    if len(set(parts)) != len(parts):
        raise InputError(f"repeated modality in subset {name!r}")
    return tuple(m for m in MODALITIES if m in parts)


def subset_name(subset: tuple[str, ...]) -> str:
    return "+".join(subset)


def restrict_clues(clues: ClueSet, subset: tuple[str, ...]) -> ClueSet:
    missing = [m for m in subset if getattr(clues, m) is None]
    if missing:
        raise InputError(f"example lacks clue modalities {missing}")
    return ClueSet(
        tag=clues.tag if "tag" in subset else None,
        text=clues.text if "text" in subset else None,
        video=clues.video if "video" in subset else None,
    )


# ---------------------------------------------------------------------------
# loss


@dataclass(frozen=True)
class LossConfig:
    l1_weight: float = 5.0
    snr_clamp_db: float = SNR_CLAMP_DB

    def __post_init__(self):
        if self.l1_weight < 0:
            raise ConfigError(f"l1_weight must be >= 0, got {self.l1_weight}")
        if self.snr_clamp_db <= 0:
            raise ConfigError(f"snr_clamp_db must be positive, got {self.snr_clamp_db}")


def extraction_loss(target: AudioClip, output: ModelOutput, stft: StftConfig,
                    cfg: LossConfig = LossConfig()) -> Tensor:
    """Negative waveform SNR plus weighted L1 spectrum distance.

    The SNR term is computed division-free so the whole expression is a
    differentiable graph: 10*log10(max(error_energy, floor)) - 10*log10(Es),
    where the floor pins the value at -snr_clamp_db for perfect estimates.
    """
    if output.wave.data.shape != (len(target),):
        raise ContractError(
            f"estimate length {output.wave.data.shape} does not match "
            f"target length {len(target)}"
        )
    es = float(np.sum(target.samples**2))
    if es == 0.0:
        raise InputError("loss needs a nonzero-energy target")

    # Targets and constants take the estimate's dtype, so a float32 model's
    # loss, and the backward seeded from it, stay float32.
    dtype = output.wave.data.dtype
    err = ops.reduce_sum(ops.square(ops.sub(output.wave, constant(target.samples, dtype))))
    floor = es * 10.0 ** (-cfg.snr_clamp_db / 10.0)
    clamped = ops.relu(ops.sub(err, floor)) + constant(floor, dtype)
    snr_term = ops.scale(ops.log10(clamped), 10.0) - 10.0 * np.log10(es)
    cap = constant(cfg.snr_clamp_db, dtype)
    snr_term = ops.sub(cap, ops.relu(ops.sub(cap, snr_term)))

    target_spec = stft_array(target.samples, stft)
    diff_r = ops.abs_(ops.sub(output.real, constant(target_spec.real, dtype)))
    diff_i = ops.abs_(ops.sub(output.imag, constant(target_spec.imag, dtype)))
    entries = 2.0 * target_spec.real.size
    l1 = ops.scale(ops.reduce_sum(diff_r) + ops.reduce_sum(diff_i), 1.0 / entries)

    return snr_term + ops.scale(l1, cfg.l1_weight)


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment estimates for one fixed parameter list.

    The moments are float64 whatever the parameter dtype, so a float32
    gradient cannot round an update past Adam's step bound.
    """

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(p.data.shape) for p in params]
        self.v = [np.zeros(p.data.shape) for p in params]


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place.

    The update is computed in float64 and cast to the parameter dtype once.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError(
            f"adam_step got {len(params)} params, {len(grads)} grads, "
            f"state of {len(state.m)}"
        )
    state.step_count += 1
    t = state.step_count
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ContractError(
                f"grad shape {g.shape} does not match parameter {p.data.shape}"
            )
        g = np.asarray(g, dtype=np.float64)
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1**t)
        v_hat = state.v[i] / (1.0 - state.beta2**t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    stage: int = 1
    lr0: float = 0.5e-4
    decay: float = 0.97
    batch_size: int = 8
    epochs: int = 200
    patience: int = 10
    seed: int = 0
    subset_weights: dict = field(default_factory=lambda: dict(DEFAULT_SUBSET_WEIGHTS))

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {self.stage}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ConfigError(
                f"batch_size, epochs, and patience must be >= 1, got "
                f"{self.batch_size}, {self.epochs}, {self.patience}"
            )
        if set(self.subset_weights) != set(ALL_SUBSETS):
            raise ConfigError(
                f"subset_weights must cover exactly {sorted(ALL_SUBSETS)}, "
                f"got {sorted(self.subset_weights)}"
            )
        if any(w <= 0 for w in self.subset_weights.values()):
            raise ConfigError("every clue subset needs positive sampling weight")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr0 * cfg.decay**epoch


def _sample_subset(rng: np.random.Generator, weights: dict) -> tuple[str, ...]:
    probs = np.array([weights[name] for name in ALL_SUBSETS])
    probs /= probs.sum()
    return parse_subset(ALL_SUBSETS[rng.choice(len(ALL_SUBSETS), p=probs)])


def _check_gradient_isolation(model: Model, used: set[str]) -> None:
    """No gradient may reach the encoder of a modality absent from the batch."""
    for modality in ("text", "video", "tag"):
        if modality in used:
            continue
        for t in model.clue.modality_tensors(modality):
            if t.grad is not None and np.any(t.grad):
                raise ContractError(
                    f"gradient leaked into the {modality} encoder, which saw "
                    f"no {modality} clue this step"
                )


def stage2_from_stage1(stage1: Model, seed: int = 0) -> Model:
    """Warm-start a stage-2 model: copy the backbone, draw a fresh clue net."""
    if stage1.stage != 1:
        raise ContractError(f"expected a stage-1 model, got stage {stage1.stage}")
    model = Model(
        np.random.default_rng(seed),
        stage1.cfg,
        num_classes=stage1.num_classes,
        vocab_size=stage1.vocab_size,
        clue_cfg=stage1.clue_cfg,
        stage=2,
        dtype=stage1.dtype,
    )
    source = stage1.backbone_named()
    for name, tensor in model.backbone_named().items():
        tensor.data = source[name].data.copy()
    return model


def _clues_for_validation(example_clues: ClueSet, stage: int) -> ClueSet:
    if stage == 1:
        return restrict_clues(example_clues, ("tag",))
    return example_clues


def _mean_valid_loss(records: list[dict], classes: list[SoundClass], model: Model,
                     loss_cfg: LossConfig) -> float:
    """Mean loss over the records; a non-finite one is rejected, so that the
    first epoch always improves on the initial best and saves a checkpoint."""
    total = 0.0
    with no_grad():
        for record in records:
            example = example_from_record(record, classes)
            clues = _clues_for_validation(example.clues, model.stage)
            out = run_model(model, example.mixture.samples, clues)
            value = float(extraction_loss(example.target, out, model.cfg.stft, loss_cfg).data)
            if not np.isfinite(value):
                raise ContractError(
                    f"non-finite validation loss {value} on example {record['id']!r} "
                    f"(stage {model.stage})"
                )
            total += value
    return total / len(records)


def _accumulate_example(record: dict, classes: list[SoundClass], model: Model,
                        subset: tuple[str, ...], loss_cfg: LossConfig) -> float:
    """Forward, loss and backward for one example; returns its loss.

    The graph is referenced only from this frame, so it is freed on return,
    before the next example's forward builds its own. A non-finite loss is
    rejected before its backward can spread it into the gradients.
    """
    example = example_from_record(record, classes)
    clues = restrict_clues(example.clues, subset)
    out = run_model(model, example.mixture.samples, clues)
    loss = extraction_loss(example.target, out, model.cfg.stft, loss_cfg)
    value = float(loss.data)
    if not np.isfinite(value):
        raise ContractError(
            f"non-finite loss {value} on example {record['id']!r} "
            f"(stage {model.stage}, clue subset {subset_name(subset)!r})"
        )
    loss.backward()
    return value


def train(manifest: Manifest, classes: list[SoundClass], model: Model,
          cfg: TrainConfig, out_path, loss_cfg: LossConfig = LossConfig(),
          metrics_path=None, log: Callable[[str], None] | None = None) -> list[dict]:
    """Fit the model on the manifest's train split; keep the best-valid epoch.

    Returns the per-epoch history. The checkpoint at out_path is rewritten
    whenever the validation loss improves, so after training it holds the
    best-validation parameters.
    """
    if model.stage != cfg.stage:
        raise ContractError(f"model is stage {model.stage} but config says {cfg.stage}")
    records = manifest.split("train")
    if not records:
        raise InputError("manifest has no train examples")
    valid_records = manifest.split("valid")

    named = model.named_tensors()
    params = list(named.values())
    state = AdamState(params)
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    best_valid = np.inf
    best_epoch = -1

    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [records[i] for i in order[start : start + cfg.batch_size]]
            zero_grads(params)
            used: set[str] = set()
            for record in batch:
                if cfg.stage == 1:
                    subset = ("tag",)
                else:
                    subset = _sample_subset(rng, cfg.subset_weights)
                used.update(subset)
                epoch_loss += _accumulate_example(record, classes, model, subset, loss_cfg)
            if cfg.stage == 2:
                _check_gradient_isolation(model, used)
            grads = [
                np.zeros_like(p.data) if p.grad is None else p.grad / len(batch)
                for p in params
            ]
            # Stop before a non-finite gradient reaches the Adam moments.
            for name, g in zip(named, grads):
                if not np.all(np.isfinite(g)):
                    raise ContractError(f"non-finite gradient for parameter {name!r}")
            adam_step(params, grads, state, lr)
        zero_grads(params)

        train_loss = epoch_loss / len(records)
        if valid_records:
            valid_loss = _mean_valid_loss(valid_records, classes, model, loss_cfg)
        else:
            valid_loss = train_loss
        history.append({
            "epoch": epoch,
            "lr": lr,
            "train_loss": train_loss,
            "valid_loss": valid_loss,
        })
        if log is not None:
            log(
                f"epoch {epoch}: lr {lr:.3e} train {train_loss:.4f} "
                f"valid {valid_loss:.4f}"
            )
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_epoch = epoch
            save_checkpoint(out_path, model)
        elif epoch - best_epoch >= cfg.patience:
            if log is not None:
                log(f"stopping: no improvement for {cfg.patience} epochs")
            break

    if metrics_path is not None:
        with open(metrics_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "lr", "train_loss", "valid_loss"])
            for row in history:
                writer.writerow([row["epoch"], row["lr"], row["train_loss"],
                                 row["valid_loss"]])
    return history


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    split: str
    subsets: list[str]
    rows: list[dict]

    def subset_rows(self, name: str) -> list[dict]:
        return [r for r in self.rows if r["subset"] == name]

    def count(self, name: str) -> int:
        return len(self.subset_rows(name))

    def _snri(self, name: str) -> np.ndarray:
        rows = self.subset_rows(name)
        if not rows:
            raise InputError(f"report has no rows for subset {name!r}")
        return np.array([r["snri_db"] for r in rows])

    def mean(self, name: str) -> float:
        return float(np.mean(self._snri(name)))

    def spread(self, name: str) -> dict[str, float]:
        """Median, 10th and 90th percentile of the subset's SNRi (linear interpolation)."""
        p10, median, p90 = np.percentile(self._snri(name), [10, 50, 90])
        return {"median": float(median), "p10": float(p10), "p90": float(p90)}

    def means(self) -> dict[str, float]:
        return {name: self.mean(name) for name in self.subsets}


def _apply_corruption(clues: ClueSet, corrupt: str | None, corrupt_seed: int,
                      record_seed: int) -> ClueSet:
    if corrupt is None:
        return clues
    text = clues.text
    video = clues.video
    if corrupt in ("text", "both") and text is not None:
        text = corrupt_text(text, [corrupt_seed, record_seed])
    if corrupt in ("video", "both") and video is not None:
        video = corrupt_video(video, seed=[corrupt_seed, record_seed])
    return ClueSet(tag=clues.tag, text=text, video=video)


def evaluate(manifest: Manifest, classes: list[SoundClass], model: Model,
             split: str = "test-seen", subsets: Sequence[str] = ("tag+text+video",),
             corrupt: str | None = None, corrupt_seed: int = 0,
             extract_fn=None) -> EvalReport:
    """Mean SNR improvement per clue subset over one manifest split.

    By default each mixture is encoded once and the encoding is shared by
    every subset (dccrn.extract_each); the rows are byte-identical to calling
    extract() once per subset. A given extract_fn(mixture, clues, model) is
    called once per record and subset instead.
    """
    if not subsets:
        raise InputError("evaluate needs at least one clue subset")
    if corrupt not in (None, "text", "video", "both"):
        raise InputError(f"corrupt must be one of text, video, both; got {corrupt!r}")
    parsed = [(name, parse_subset(name)) for name in subsets]
    records = manifest.split(split)
    if not records:
        raise InputError(f"manifest has no {split!r} examples")

    rows = []
    for record in records:
        example = example_from_record(record, classes)
        clue_sets = [
            _apply_corruption(restrict_clues(example.clues, subset), corrupt,
                              corrupt_seed, record["seed"])
            for _, subset in parsed
        ]
        if extract_fn is None:
            results = extract_each(example.mixture, clue_sets, model)
        else:
            results = [extract_fn(example.mixture, clues, model) for clues in clue_sets]
        for (name, _), (estimate, _) in zip(parsed, results):
            rows.append({
                "id": record["id"],
                "subset": name,
                "snri_db": snr_improvement(example.mixture, estimate, example.target),
            })
    return EvalReport(split=split, subsets=list(subsets), rows=rows)


def write_report(path, report: EvalReport) -> None:
    """CSV with one mean row per subset, then median, p10 and p90 rows per
    subset, then per-example rows."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "subset", "example_id", "snri_db"])
        for name in report.subsets:
            writer.writerow(["mean", name, "", f"{report.mean(name):.6f}"])
        for name in report.subsets:
            for kind, value in report.spread(name).items():
                writer.writerow([kind, name, "", f"{value:.6f}"])
        for row in report.rows:
            writer.writerow(["example", row["subset"], row["id"], f"{row['snri_db']:.6f}"])


# ---------------------------------------------------------------------------
# attention export


def attention_matrix(model: Model, mixture: AudioClip,
                     clues: ClueSet) -> tuple[np.ndarray, list[str]]:
    """Head-averaged attention over clue positions, with column labels."""
    if model.stage != 2:
        raise ContractError("a stage-1 model attends to nothing; train stage 2 first")
    with no_grad():
        out = run_model(model, mixture.samples, clues)
    averaged = np.asarray(out.attention.data, dtype=np.float64).mean(axis=0)
    labels = [
        f"{modality}:{i - start}"
        for modality, start, stop in out.segments
        for i in range(start, stop)
    ]
    return averaged, labels


def dump_attention(model: Model, mixture: AudioClip, clues: ClueSet,
                   out_path) -> np.ndarray:
    matrix, labels = attention_matrix(model, mixture, clues)
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(labels)
        for row in matrix:
            writer.writerow([f"{value:.8f}" for value in row])
    return matrix

"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__``, then runs
identical rounds. A round has a stage-1 part and a stage-2 part; each part
makes one timed call into the program (``train``, ``evaluate`` or
``extract``) and checks its output outside the timed region. The checks that
need extra forward passes run once, in ``final_checks``, after the measured
rounds.

The program is driven only through its public functions, so a change inside
those calls is measured without editing the benchmark.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import contextmanager

import numpy as np

from mctse import cli, data_sim, dccrn, train_eval
from mctse.clue_net import ClueSet
from mctse.signal import AudioClip, mix_at_snr

import checks

NUM_CLASSES = 4
SAMPLE_RATE = data_sim.SAMPLE_RATE


class Workload:
    """Shared round bookkeeping: stage spans, timing, operation counts."""

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.counting = False  # run.py turns this on for the measured rounds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @contextmanager
    def stage(self, name: str, record: bool):
        if self.tracer is not None and record:
            self.tracer.set_stage(name)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.set_stage(None)

    def timed(self, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds) or (None, None) if it raised.

        Outside the measured rounds an operation that raises ends the run.
        """
        start = time.perf_counter()
        if not self.counting:
            return fn(*args, **kwargs), time.perf_counter() - start
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation failure is counted, not fatal
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None, None
        return result, time.perf_counter() - start

    def check(self, failures: list[str]) -> None:
        self.failures.extend(failures)

    def models(self):
        """Seeded stage-1 and stage-2 checkpoints, as `mctse train` builds models."""
        m1 = cli.build_model(cli.load_config(), 1, NUM_CLASSES, self.seed)
        dccrn.save_checkpoint(self.path("stage1.ckpt"), m1)
        m2 = train_eval.stage2_from_stage1(m1, seed=self.seed)
        dccrn.save_checkpoint(self.path("stage2.ckpt"), m2)


class Train(Workload):
    """train() for stage 1, then stage 2 warm-started from its checkpoint."""

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        config = cli.load_config()
        self.manifest, self.classes = data_sim.simulate(
            NUM_CLASSES, {"train": 8, "valid": 2}, seed=seed)
        self.train_cfg = {stage: train_eval.TrainConfig(
            stage=stage, **{**config["train"], "epochs": 1, "seed": seed}) for stage in (1, 2)}
        self.loss_cfg = train_eval.LossConfig(**config["loss"])
        records = self.manifest.records
        self.warm = data_sim.Manifest([r for r in records if r["split"] == "train"][:1]
                                      + [r for r in records if r["split"] == "valid"][:1])

    def warmup(self):
        self.round(self.warm, record=False)

    def _fit(self, model, stage, manifest):
        cfg = self.train_cfg[stage]
        before = {k: t.data.copy() for k, t in model.named_tensors().items()}
        ckpt = self.path(f"stage{stage}.ckpt")
        history, seconds = self.timed(train_eval.train, manifest, self.classes, model,
                                      cfg, ckpt, self.loss_cfg)
        if history is None:
            return None
        records = len(manifest.split("train"))
        steps = -(-records // cfg.batch_size)
        lrs = [train_eval.lr_at(cfg, row["epoch"]) for row in history for _ in range(steps)]
        after = {k: t.data for k, t in model.named_tensors().items()}
        self.check(checks.check_losses(history))
        self.check(checks.check_adam_displacement(before, after, lrs))
        return records / seconds

    def round(self, manifest=None, record=True):
        manifest = manifest or self.manifest
        rates = {}
        with self.stage("s1", record):
            self.model1 = cli.build_model(cli.load_config(), 1, NUM_CLASSES, self.seed)
            rates["s1"] = self._fit(self.model1, 1, manifest)
        with self.stage("s2", record):
            stage1 = dccrn.load_checkpoint(self.path("stage1.ckpt"))
            self.model2 = train_eval.stage2_from_stage1(stage1, seed=self.seed)
            rates["s2"] = self._fit(self.model2, 2, manifest)
        return rates

    def final_checks(self):
        example = data_sim.example_from_record(self.manifest.split("train")[0], self.classes)
        mixture = AudioClip(example.mixture.samples[:checks.CHECK_SAMPLES], SAMPLE_RATE)
        target = AudioClip(example.target.samples[:checks.CHECK_SAMPLES], SAMPLE_RATE)
        for model, clues in ((self.model1, checks.restrict(example.clues, "tag")),
                             (self.model2, example.clues)):
            analytic, numeric = checks.directional_derivatives(
                model, mixture, target, clues, seed=self.seed)
            self.check(checks.check_gradient(analytic, numeric))


class Evaluate(Workload):
    """evaluate() of a stage-1 checkpoint (tag) and a stage-2 one (all subsets)."""

    SUBSETS = {"s1": ("tag",), "s2": train_eval.ALL_SUBSETS}

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.manifest, self.classes = data_sim.simulate(
            NUM_CLASSES, {"valid": 1, "test-seen": 4}, seed=seed)
        self.models()

    def warmup(self):
        self.round("valid", record=False)

    def round(self, split="test-seen", record=True):
        ids = [r["id"] for r in self.manifest.split(split)]
        rates = {}
        self.reports = {}
        for stage in ("s1", "s2"):
            with self.stage(stage, record):
                model = dccrn.load_checkpoint(self.path(f"stage{stage[1]}.ckpt"))
                report, seconds = self.timed(
                    train_eval.evaluate, self.manifest, self.classes, model,
                    split, self.SUBSETS[stage])
            if report is None:
                continue
            self.reports[stage] = (report, model)
            self.check(checks.check_report_rows(report.rows, ids, self.SUBSETS[stage]))
            rates[stage] = len(report.rows) / seconds
        return rates

    def final_checks(self):
        rng = np.random.default_rng(self.seed)
        by_id = {r["id"]: r for r in self.manifest.records}
        for stage, samples in (("s1", 1), ("s2", 2)):
            report, model = self.reports[stage]
            for index in rng.choice(len(report.rows), size=samples, replace=False):
                row = report.rows[index]
                example = data_sim.example_from_record(by_id[row["id"]], self.classes)
                recomputed = checks.recompute_snri(example, row["subset"], model)
                self.check(checks.check_snri(row["snri_db"], recomputed))


class ExtractLong(Workload):
    """extract() on one 10 s mixture: stage 1 with the tag, stage 2 with all clues."""

    SECONDS = 10.0

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = np.random.default_rng(seed)
        classes = data_sim.default_classes(NUM_CLASSES)
        target_id, interferer_id = (int(c) for c in rng.choice(NUM_CLASSES, 2, replace=False))
        source_seed = int(rng.integers(2**31))
        target = data_sim.gen_source(classes[target_id], source_seed, self.SECONDS)
        interferer = data_sim.gen_source(classes[interferer_id], source_seed, self.SECONDS)
        self.mixture, _ = mix_at_snr(target, interferer, float(rng.uniform(-2.0, 2.0)))
        # 15 video frames per second of audio, from consecutive 2 s clue clips.
        clips = int(self.SECONDS / data_sim.DURATION)
        video = np.concatenate([data_sim.make_video(target_id, source_seed + k)
                                for k in range(clips)])
        tag = np.eye(NUM_CLASSES)[target_id]
        self.clues = {
            "s1": ClueSet(tag=tag),
            "s2": ClueSet(tag=tag, text=data_sim.make_text(classes[target_id], source_seed),
                          video=video),
        }
        self.models()

    def warmup(self):
        self.round(record=False)

    def round(self, record=True):
        rates = {}
        self.outputs = {}
        for stage in ("s1", "s2"):
            with self.stage(stage, record):
                model = dccrn.load_checkpoint(self.path(f"stage{stage[1]}.ckpt"))
                result, seconds = self.timed(dccrn.extract, self.mixture, self.clues[stage], model)
            if result is None:
                continue
            estimate, attention = result
            self.outputs[stage] = (estimate, attention, model)
            self.check(checks.check_estimate(estimate, self.mixture))
            if stage == "s2":
                self.check(checks.check_attention(attention))
            rates[stage] = self.mixture.duration / seconds
        return rates

    def final_checks(self):
        rng = np.random.default_rng(self.seed)
        estimate, _, model = self.outputs["s2"]
        clues = self.clues["s2"]
        # A cyclic shift is never the identity, however short the text.
        for name, permuted in (
            ("video frames", ClueSet(tag=clues.tag, text=clues.text,
                                     video=clues.video[rng.permutation(len(clues.video))])),
            ("text tokens", ClueSet(tag=clues.tag, text=np.roll(clues.text, 1),
                                    video=clues.video)),
        ):
            again, _ = dccrn.extract(self.mixture, permuted, model)
            self.check(checks.check_same(again.samples, estimate.samples,
                                         f"stage-2 estimate after permuting {name}",
                                         checks.PERMUTATION_RTOL))
        _, _, model = self.outputs["s1"]
        short = AudioClip(self.mixture.samples[:checks.CHECK_SAMPLES], SAMPLE_RATE)
        estimate, _ = dccrn.extract(short, self.clues["s1"], model)
        reference = checks.reference_stage1(model, short.samples, self.clues["s1"].tag)
        self.check(checks.check_same(estimate.samples, reference,
                                     "stage-1 estimate against the numpy reference",
                                     checks.REFERENCE_RTOL))


WORKLOADS = {"train": Train, "evaluate": Evaluate, "extract_long": ExtractLong}

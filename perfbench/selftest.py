"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Each check gets a correct value, which it must accept, and a deliberately
wrong one (a perturbed estimate, a gradient with its sign flipped, a dropped
report row, ...), which it must reject. It also confirms that BENCHMARK.json
lists exactly the metrics the benchmark prints. Exits 1 if any case goes
the wrong way.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from mctse import cli, data_sim, dccrn, train_eval
from mctse.signal import AudioClip

import checks
import tracing

RESULTS = []


def expect(name: str, good: list[str], bad: list[str]) -> None:
    ok = not good and bool(bad)
    RESULTS.append(ok)
    detail = bad[0] if bad else "wrong value was accepted"
    if good:
        detail = f"correct value was rejected: {good[0]}"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def main() -> int:
    rng = np.random.default_rng(0)
    manifest, classes = data_sim.simulate(4, {"test-seen": 1}, seed=0)
    record = manifest.records[0]
    example = data_sim.example_from_record(record, classes)
    m1 = cli.build_model(cli.load_config(), 1, 4, seed=0)
    m2 = train_eval.stage2_from_stage1(m1, seed=0)
    short = AudioClip(example.mixture.samples[: checks.CHECK_SAMPLES])
    target = AudioClip(example.target.samples[: len(short)])

    # train
    history = [{"epoch": 0, "train_loss": 3.2, "valid_loss": 2.9}]
    expect("check_losses", checks.check_losses(history),
           checks.check_losses([{**history[0], "valid_loss": float("nan")}]))

    lr = 5e-5
    before = {"w": rng.standard_normal(100).astype(np.float32)}
    step = (lr * np.sign(rng.standard_normal(100))).astype(np.float32)
    expect("check_adam_displacement",
           checks.check_adam_displacement(before, {"w": before["w"] - step}, [lr]),
           checks.check_adam_displacement(before, {"w": before["w"] - 2 * step}, [lr]))

    for model, clues in ((m1, checks.restrict(example.clues, "tag")), (m2, example.clues)):
        analytic, numeric = checks.directional_derivatives(model, short, target, clues, seed=1)
        expect(f"check_gradient (stage {model.stage}, sign flipped)",
               checks.check_gradient(analytic, numeric), checks.check_gradient(-analytic, numeric))
        expect(f"check_gradient (stage {model.stage}, 1% off)",
               checks.check_gradient(analytic, numeric),
               checks.check_gradient(1.01 * analytic, numeric))

    # evaluate
    subsets = ("tag", "text+video")
    report = train_eval.evaluate(manifest, classes, m2, "test-seen", subsets)
    ids = [record["id"]]
    expect("check_report_rows (row dropped)", checks.check_report_rows(report.rows, ids, subsets),
           checks.check_report_rows(report.rows[:-1], ids, subsets))
    expect("check_report_rows (row repeated)", checks.check_report_rows(report.rows, ids, subsets),
           checks.check_report_rows(report.rows + report.rows[:1], ids, subsets))
    row = report.rows[1]
    recomputed = checks.recompute_snri(example, row["subset"], m2)
    expect("check_snri (0.01 dB off)", checks.check_snri(row["snri_db"], recomputed),
           checks.check_snri(row["snri_db"] + 0.01, recomputed))
    other = checks.recompute_snri(example, "tag", m2)
    expect("check_snri (other subset's row)", checks.check_snri(row["snri_db"], recomputed),
           checks.check_snri(other, recomputed))

    # extract
    estimate, attention = dccrn.extract(example.mixture, example.clues, m2)
    expect("check_estimate (one sample short)", checks.check_estimate(estimate, example.mixture),
           checks.check_estimate(AudioClip(estimate.samples[:-1], estimate.sample_rate),
                                 example.mixture))
    expect("check_estimate (other rate)", checks.check_estimate(estimate, example.mixture),
           checks.check_estimate(AudioClip(estimate.samples, 8000), example.mixture))
    expect("check_attention (rows scaled by 1.001)", checks.check_attention(attention),
           checks.check_attention(attention * 1.001))
    flipped = attention.copy()
    flipped[0, 0, 0] *= -1
    expect("check_attention (a negative weight)", checks.check_attention(attention),
           checks.check_attention(flipped))
    perturbed = estimate.samples * (1 + 1e-3 * rng.standard_normal(len(estimate.samples)))
    rtol = checks.PERMUTATION_RTOL
    expect("check_same (perturbed estimate)",
           checks.check_same(estimate.samples, estimate.samples.copy(), "estimate", rtol),
           checks.check_same(perturbed, estimate.samples, "estimate", rtol))
    tag_clues = checks.restrict(example.clues, "tag")
    s1_estimate, _ = dccrn.extract(short, tag_clues, m1)
    reference = checks.reference_stage1(m1, short.samples, tag_clues.tag)
    m1.decoder[0].br.data = m1.decoder[0].br.data + 0.1
    wrong, _ = dccrn.extract(short, tag_clues, m1)
    rtol = checks.REFERENCE_RTOL
    expect("stage-1 reference (decoder bias moved by 0.1)",
           checks.check_same(s1_estimate.samples, reference, "reference", rtol),
           checks.check_same(wrong.samples, reference, "reference", rtol))

    # BENCHMARK.json against what run.py prints
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = listed == tracing.PER_LAYER
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json per_layer matches the traced run's metrics")

    print(f"{sum(RESULTS)} of {len(RESULTS)} cases as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

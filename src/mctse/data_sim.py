"""Synthetic mixtures with aligned tag/text/video clues.

Sources are parametric signals (tone complexes, chirps, filtered noise,
amplitude-modulated noise) whose dominant frequency bands are pairwise
disjoint, so a small model can actually learn to separate them.  Every
example is a pure function of integer seeds: a manifest stores only seeds
and metadata, and regenerating it yields bit-identical audio and clues.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .clue_net import ClueSet
from .errors import ConfigError, ContractError, InputError
from .signal import SAMPLE_RATE, AudioClip, mix_at_snr, write_wav

DURATION = 2.0
VIDEO_FRAMES = 30  # 2 s at 15 frames per second
VIDEO_DIM = 32
VIDEO_JITTER = 0.1

KINDS = ("tone", "chirp", "band", "am")
SPLITS = ("train", "valid", "test-seen", "test-unseen")

CLASS_NOUNS = (
    "bell", "horn", "drum", "flute", "engine", "siren", "whistle", "organ",
    "guitar", "violin", "piano", "trumpet", "chime", "motor", "wind", "static",
)
ADJECTIVES = (
    "low", "high", "deep", "bright", "soft", "loud", "steady", "pulsing",
    "humming", "ringing", "buzzing", "droning", "sharp", "mellow", "rising",
    "falling", "distant", "close", "clear", "rough", "smooth", "warm", "thin",
    "full",
)
FILLERS = (
    "a", "the", "sound", "of", "is", "playing", "in", "background", "with",
    "tone", "noise", "faint", "audible", "nearby", "recording", "short",
    "burst", "and", "very", "quiet", "some", "heard", "there", "it",
)

VOCAB = CLASS_NOUNS + ADJECTIVES + FILLERS
VOCAB_INDEX = {word: i for i, word in enumerate(VOCAB)}

_REQUIRED_FIELDS = (
    "id", "split", "target_class", "interferer_class", "snr_db", "seed",
    "clue_text_tokens", "video_seed",
)


@dataclass(frozen=True)
class SoundClass:
    """One synthetic source family confined to a frequency band."""

    id: int
    name: str
    kind: str
    freq_lo: float
    freq_hi: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown synth kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.freq_lo < self.freq_hi:
            raise ConfigError(
                f"band must satisfy 0 < lo < hi, got [{self.freq_lo}, {self.freq_hi}]"
            )
        if self.name not in VOCAB_INDEX:
            raise ConfigError(f"class name {self.name!r} is not in the vocabulary")


def default_classes(count: int) -> list[SoundClass]:
    """Classes on disjoint geometric bands covering 150-7000 Hz."""
    if not 3 <= count <= len(CLASS_NOUNS):
        raise InputError(f"class count must be in [3, {len(CLASS_NOUNS)}], got {count}")
    edges = np.geomspace(150.0, 7000.0, count + 1)
    return [
        SoundClass(
            id=i,
            name=CLASS_NOUNS[i],
            kind=KINDS[i % len(KINDS)],
            freq_lo=float(edges[i] * 1.01),
            freq_hi=float(edges[i + 1] * 0.99),
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# source synthesis


def tone_partials(cls: SoundClass) -> np.ndarray:
    """The three partial frequencies of a tone-complex class."""
    return np.geomspace(cls.freq_lo * 1.05, cls.freq_hi * 0.95, 3)


def _bandpass(x: np.ndarray, lo: float, hi: float, rate: int) -> np.ndarray:
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), 1.0 / rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n=len(x))


def gen_source(cls: SoundClass, seed: int, duration: float = DURATION,
               rate: int = SAMPLE_RATE) -> AudioClip:
    """Deterministic source for (class, seed), peak-normalized to 0.5."""
    rng = np.random.default_rng([cls.id, seed])
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    if cls.kind == "tone":
        x = np.zeros(n)
        for freq in tone_partials(cls):
            amp = rng.uniform(0.6, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += amp * np.sin(2.0 * np.pi * freq * t + phase)
    elif cls.kind == "chirp":
        f0 = cls.freq_lo * 1.05
        f1 = cls.freq_hi * 0.95
        phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) / duration * t**2)
        x = np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))
    elif cls.kind == "band":
        x = _bandpass(rng.standard_normal(n), cls.freq_lo, cls.freq_hi, rate)
    else:  # amplitude-modulated noise
        carrier = _bandpass(rng.standard_normal(n), cls.freq_lo, cls.freq_hi, rate)
        mod_rate = 2.0 + (cls.id % 4)
        envelope = 1.0 + 0.9 * np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0.0, 2.0 * np.pi))
        x = carrier * envelope / 1.9
    x = x * (0.5 / np.max(np.abs(x)))
    return AudioClip(x, rate)


# ---------------------------------------------------------------------------
# clue synthesis

# Each template mentions the class noun exactly once, so a text clue can be
# decoded back to its class by vocabulary lookup.
_TEMPLATES = (
    lambda noun, a, b: ("the", noun, "sound"),
    lambda noun, a, b: ("a", a, noun, "sound"),
    lambda noun, a, b: ("the", noun, "is", "playing"),
    lambda noun, a, b: ("the", "sound", "of", "a", a, noun),
    lambda noun, a, b: ("a", a, noun, "is", "playing", "in", "the", "background"),
    lambda noun, a, b: ("there", "is", "a", "very", a, "and", b, noun, "nearby"),
)


def make_text(cls: SoundClass, seed: int) -> np.ndarray:
    """Token ids of a short template sentence naming the class."""
    rng = np.random.default_rng([seed, 17, cls.id])
    template = _TEMPLATES[rng.integers(len(_TEMPLATES))]
    adj_a, adj_b = (ADJECTIVES[i] for i in rng.choice(len(ADJECTIVES), 2, replace=False))
    words = template(cls.name, adj_a, adj_b)
    return np.array([VOCAB_INDEX[w] for w in words], dtype=np.int64)


def decode_text(tokens: np.ndarray, classes: list[SoundClass]) -> SoundClass | None:
    """The unique class named in the tokens, or None if ambiguous/absent."""
    by_noun = {VOCAB_INDEX[c.name]: c for c in classes}
    named = [by_noun[t] for t in np.asarray(tokens).reshape(-1) if int(t) in by_noun]
    return named[0] if len(named) == 1 else None


def video_pattern(class_id: int) -> np.ndarray:
    """The fixed frame-feature pattern associated with a class."""
    return np.random.default_rng([9999, class_id]).standard_normal((VIDEO_FRAMES, VIDEO_DIM))


def make_video(class_id: int, seed: int) -> np.ndarray:
    jitter = np.random.default_rng([seed, 23]).standard_normal((VIDEO_FRAMES, VIDEO_DIM))
    return video_pattern(class_id) + VIDEO_JITTER * jitter


# ---------------------------------------------------------------------------
# examples


@dataclass
class MixtureExample:
    mixture: AudioClip
    target: AudioClip
    target_class: int
    interferer_class: int
    snr_db: float
    clues: ClueSet
    seed: int


def make_example(classes: list[SoundClass], target_id: int, interferer_id: int,
                 snr_db: float, seed: int) -> MixtureExample:
    """Mixture at the requested SNR plus consistent tag/text/video clues."""
    if target_id == interferer_id:
        raise ContractError(f"target and interferer must differ, both are {target_id}")
    by_id = {c.id: c for c in classes}
    try:
        target_cls = by_id[target_id]
        interferer_cls = by_id[interferer_id]
    except KeyError as exc:
        raise ContractError(f"unknown class id {exc}") from None

    target = gen_source(target_cls, seed)
    interferer = gen_source(interferer_cls, seed)
    mixture, _ = mix_at_snr(target, interferer, snr_db)

    tag = np.zeros(len(classes))
    tag[target_id] = 1.0
    clues = ClueSet(
        tag=tag,
        text=make_text(target_cls, seed),
        video=make_video(target_id, seed),
    )
    return MixtureExample(mixture, target, target_id, interferer_id, snr_db, clues, seed)


def corrupt_text(tokens: np.ndarray, seed: int, vocab_size: int = len(VOCAB)) -> np.ndarray:
    """Replace exactly floor(n/3) tokens with random different vocab ids."""
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    n = tokens.size
    if n < 3:
        raise InputError(f"need at least 3 tokens to corrupt, got {n}")
    rng = np.random.default_rng(seed)
    positions = rng.choice(n, size=n // 3, replace=False)
    out = tokens.copy()
    # Draw from a range one short of the vocabulary and skip over the original
    # id, so the replacement is uniform over the other vocab_size - 1 words.
    draws = rng.integers(0, vocab_size - 1, size=positions.size)
    out[positions] = draws + (draws >= tokens[positions])
    return out


def corrupt_video(frames: np.ndarray, noise_db: float = -2.5, seed: int = 0) -> np.ndarray:
    """Add white Gaussian noise at exactly the given frames-to-noise ratio."""
    frames = np.asarray(frames, dtype=np.float64)
    signal_energy = float(np.sum(frames**2))
    if signal_energy == 0.0:
        raise InputError("cannot corrupt zero-energy video frames")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(frames.shape)
    gain = np.sqrt(signal_energy / (np.sum(noise**2) * 10.0 ** (noise_db / 10.0)))
    return frames + gain * noise


# ---------------------------------------------------------------------------
# manifests


@dataclass
class Manifest:
    records: list[dict]

    def split(self, name: str) -> list[dict]:
        return [r for r in self.records if r["split"] == name]


def _validate_record(record: dict, where: str) -> None:
    missing = [f for f in _REQUIRED_FIELDS if f not in record]
    if missing:
        raise InputError(f"{where}: record is missing fields {missing}")
    if record["split"] not in SPLITS:
        raise InputError(f"{where}: unknown split {record['split']!r}")
    if record["target_class"] == record["interferer_class"]:
        raise InputError(f"{where}: target and interferer class coincide")


def _validate_split_disjointness(records: list[dict], where: str) -> None:
    train = {r["target_class"] for r in records if r["split"] == "train"}
    unseen = {r["target_class"] for r in records if r["split"] == "test-unseen"}
    overlap = sorted(train & unseen)
    if overlap:
        raise InputError(
            f"{where}: classes {overlap} appear as targets in both train and test-unseen"
        )


def write_manifest(path, manifest: Manifest) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in manifest.records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from None
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: malformed manifest line: {exc}") from None
        if not isinstance(record, dict):
            raise InputError(f"{path}:{lineno}: manifest line is not an object")
        _validate_record(record, f"{path}:{lineno}")
        records.append(record)
    _validate_split_disjointness(records, str(path))
    return Manifest(records)


def write_classes(path, classes: list[SoundClass]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump([asdict(c) for c in classes], f, indent=2, sort_keys=True)
        f.write("\n")


def read_classes(path) -> list[SoundClass]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read class table {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed class table: {exc}") from None
    try:
        classes = [SoundClass(**entry) for entry in raw]
    except (TypeError, ConfigError) as exc:
        raise InputError(f"{path}: bad class entry: {exc}") from None
    if [c.id for c in classes] != list(range(len(classes))):
        raise InputError(f"{path}: class ids must be 0..{len(classes) - 1} in order")
    return classes


def example_from_record(record: dict, classes: list[SoundClass]) -> MixtureExample:
    """Regenerate a manifest record's audio and clues from its seeds."""
    _validate_record(record, f"record {record.get('id', '?')}")
    n = len(classes)
    target_id = record["target_class"]
    interferer_id = record["interferer_class"]
    if not (0 <= target_id < n and 0 <= interferer_id < n):
        raise InputError(
            f"record {record['id']}: class ids ({target_id}, {interferer_id}) "
            f"outside table of {n} classes"
        )
    example = make_example(classes, target_id, interferer_id,
                           record["snr_db"], record["seed"])
    example.clues = ClueSet(
        tag=example.clues.tag,
        text=np.asarray(record["clue_text_tokens"], dtype=np.int64),
        video=make_video(target_id, record["video_seed"]),
    )
    return example


# ---------------------------------------------------------------------------
# dataset simulation


def _draw_pair(rng: np.random.Generator, target_pool: list[int],
               interferer_pool: list[int]) -> tuple[int, int]:
    target = int(target_pool[rng.integers(len(target_pool))])
    others = [c for c in interferer_pool if c != target]
    return target, int(others[rng.integers(len(others))])


def simulate(num_classes: int, counts: dict[str, int], seed: int,
             out_dir=None, unseen_classes: int = 2,
             materialize: bool = False) -> tuple[Manifest, list[SoundClass]]:
    """Build a manifest of seeded examples, optionally writing it to disk.

    counts maps split name -> example count.  The last unseen_classes classes
    never appear as train/valid/test-seen targets; test-unseen examples take
    their targets from that held-out pool.
    """
    classes = default_classes(num_classes)
    if not 1 <= unseen_classes <= num_classes - 2:
        raise InputError(
            f"unseen_classes must leave at least two seen classes, "
            f"got {unseen_classes} of {num_classes}"
        )
    unknown = set(counts) - set(SPLITS)
    if unknown:
        raise InputError(f"unknown split names {sorted(unknown)}")
    seen_ids = [c.id for c in classes[: num_classes - unseen_classes]]
    unseen_ids = [c.id for c in classes[num_classes - unseen_classes:]]

    rng = np.random.default_rng(seed)
    records = []
    for split in SPLITS:
        for index in range(counts.get(split, 0)):
            target_pool = unseen_ids if split == "test-unseen" else seen_ids
            target_id, interferer_id = _draw_pair(rng, target_pool, seen_ids)
            snr_db = float(rng.uniform(-2.0, 2.0))
            ex_seed = int(rng.integers(2**31))
            target_cls = classes[target_id]
            records.append({
                "id": f"{split}-{index:05d}",
                "split": split,
                "target_class": target_id,
                "interferer_class": interferer_id,
                "snr_db": snr_db,
                "seed": ex_seed,
                "clue_text_tokens": [int(t) for t in make_text(target_cls, ex_seed)],
                "video_seed": ex_seed,
            })

    manifest = Manifest(records)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if materialize:
            for record in manifest.records:
                example = example_from_record(record, classes)
                mix_path = os.path.join(out_dir, f"{record['id']}_mix.wav")
                target_path = os.path.join(out_dir, f"{record['id']}_target.wav")
                write_wav(mix_path, example.mixture)
                write_wav(target_path, example.target)
                record["mix_wav"] = mix_path
                record["target_wav"] = target_path
        write_manifest(os.path.join(out_dir, "manifest.jsonl"), manifest)
        write_classes(os.path.join(out_dir, "classes.json"), classes)
    return manifest, classes

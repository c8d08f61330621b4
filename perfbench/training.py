"""pipeline-eager and pretrain-replay: the paper's Fig. 1 training path.

pipeline-eager pretrains TURL eagerly (MLM + MER) on a generated wiki
corpus (tables of one fixed shape, see :data:`TABLE_SHAPE`, and one
longer anchor table, see :func:`_with_anchor`) with the
``benchmarks/conftest.py`` ``config`` model, batch 8 and a snapshot
every :data:`SNAPSHOT_EVERY` steps into a temporary directory, then
fine-tunes an ``EntityImputer`` on that encoder (as in
E1).  Tensor autograd, the heads and losses, the optimizer and
checkpointing do the work; compiled replay does none.

pretrain-replay trains the same model with ``PretrainConfig(compile=
True)`` on 8 tables, so every batch pads to one signature (as in E14;
one fixed anchor table sets its length, see :func:`_inputs`):
the first step records a program and ``nn.compile``'s ``TapeExecutor``
replays every later one.

Work is fixed per run (``4 + 5 * seconds`` pretraining steps, the first
:data:`WARMUP_STEPS` untimed), so the loss is comparable between
commits.  Step times come from the trainer's injectable clock, which it
reads at the start and end of every ``train_step``; a step's time runs
from its start to the next step's start, so a snapshot written after a
step counts toward that step.  Throughput is the median over windows of
:data:`SNAPSHOT_EVERY` consecutive timed steps (each holding one
pipeline-eager snapshot) of padded tokens / window time, so a few
seconds of host slowdown move one window, not the figure.

Predictions (see ``layers.py``): kernel changes shared by eager and
replay (gelu, masked-gather heads, gradient accumulation) move
``throughput`` on both workloads; a Tensor-dispatch change moves only
pipeline-eager; neither moves serve-hot.

Correctness, outside the timed region: no pretraining or fine-tuning
loss is non-finite, and pretrain-replay's final model bytes equal an
eager run of the same last :data:`REPLAY_CHECK_STEPS` steps resumed from
the compiled run's own snapshot.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import common
import spans as spanlib
from common import Outcome

BATCH_SIZE = 8
WARMUP_STEPS = 4
SNAPSHOT_EVERY = 5
SETUP_REPEATS = 5
CORPUS_TABLES = 80
# pipeline-eager draws its batches from the train split of this many
# seed-drawn tables.  A batch pads to its longest table, so in a small
# pool the few long tables one seed happens to draw set the step-time
# tail; a larger pool brings every seed's batch lengths close to the
# generator's distribution.
TRAIN_TABLES = 400
REPLAY_TABLES = 8
REPLAY_CHECK_STEPS = 8
FINETUNE_TABLES = 40
FINETUNE_EPOCHS = 2
# Generated tables have fixed shapes (rows, attribute columns), so the
# seed changes table content but not input size: with the generator's
# default 3-8 rows and 2-4 attributes, the padded length of a batch (and
# with it the step time) moves by 8% between seeds, and by a third on
# pretrain-replay's single 8-table signature.
TABLE_SHAPE = (6, 3)
REPLAY_SHAPE = (5, 2)
ANCHOR_SHAPE = (8, 3)
# pipeline-eager's anchor: about 133 tokens, where the longest of 325
# seed-drawn (6, 3) tables measured 104-120 over seeds 1-10.
EAGER_ANCHOR_SHAPE = (12, 3)
LOSS_WINDOW = 10
_EXTRA_TEXTS = ["what is the when how many entries are there lowest highest "
                "total average where and not below above at most least "
                "select from t sum avg min max count limit"] * 3


def pretrain_steps(seconds: int) -> int:
    return WARMUP_STEPS + 5 * seconds


class RecordingClock:
    """``time.perf_counter`` that remembers every reading."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def __call__(self) -> float:
        now = time.perf_counter()
        self.readings.append(now)
        return now


# ----------------------------------------------------------------------
# Set-up: tokenizer build + model + trainer construction
# ----------------------------------------------------------------------
def _set_up(corpus, num_entities: int, config_kwargs: dict):
    from repro.core import build_tokenizer_for_tables, create_model
    from repro.models import EncoderConfig
    from repro.pretrain import Pretrainer, PretrainConfig

    clock = RecordingClock()
    started = time.perf_counter()
    tokenizer = build_tokenizer_for_tables(corpus, vocab_size=1400,
                                           extra_texts=_EXTRA_TEXTS)
    config = EncoderConfig(
        vocab_size=len(tokenizer.vocab), dim=32, num_heads=4, num_layers=2,
        hidden_dim=64, max_position=192, max_rows=24, max_columns=12,
        num_entities=num_entities)
    model = create_model("turl", tokenizer, config=config, seed=0)
    trainer = Pretrainer(model, PretrainConfig(
        batch_size=BATCH_SIZE, seed=0, **config_kwargs), clock=clock)
    return trainer, clock, time.perf_counter() - started


def _set_up_repeated(corpus, num_entities, config_kwargs):
    times = []
    for _ in range(SETUP_REPEATS):
        trainer, clock, seconds = _set_up(corpus, num_entities, config_kwargs)
        times.append(seconds)
    return trainer, clock, times


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _pretrain(trainer, clock: RecordingClock, tables, directory: Path
              ) -> dict:
    history = trainer.train(tables, checkpoint_dir=directory)
    finished = time.perf_counter()
    starts = clock.readings[0::2]
    if len(starts) != len(history):
        raise common.BenchError("trainer clock was read an unexpected "
                                f"number of times ({len(clock.readings)})")
    bounds = starts + [finished]
    step_ms = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    timed = slice(WARMUP_STEPS, None)
    tokens = [record.tokens for record in history[timed]]
    windows = [(sum(tokens[i:i + SNAPSHOT_EVERY]),
                sum(step_ms[timed][i:i + SNAPSHOT_EVERY]) / 1e3)
               for i in range(0, len(tokens) - SNAPSHOT_EVERY + 1,
                              SNAPSHOT_EVERY)]
    cadence = trainer.config.checkpoint_every
    snapshots = sum(1 for i, record in enumerate(history, start=1)
                    if cadence and i % cadence == 0
                    and not record.extras.get("skipped"))
    return {
        "history": history,
        "step_ms": step_ms[timed],
        "tokens_per_s": sum(tokens) / (finished - starts[WARMUP_STEPS]),
        "window_tokens_per_s": common.median(t / s for t, s in windows),
        "windows": len(windows),
        "loss_final": common.mean(r.loss for r in history[-LOSS_WINDOW:]),
        "skipped": sum(1 for r in history if r.extras.get("skipped")),
        "snapshot_share": snapshots / len(history),
    }


def _finetune_examples(tables, seed: int):
    from repro.corpus import build_imputation_dataset

    rng = np.random.default_rng([seed, 2])
    return [e for e in build_imputation_dataset(tables[:FINETUNE_TABLES], rng,
                                                per_table=2)
            if e.answer_entity_id is not None]


def _finetune(model, examples) -> dict:
    from repro.tasks import EntityImputer, FinetuneConfig, finetune

    imputer = EntityImputer(model)
    started = time.perf_counter()
    history = finetune(imputer, examples, FinetuneConfig(
        epochs=FINETUNE_EPOCHS, batch_size=BATCH_SIZE, learning_rate=5e-4))
    elapsed = time.perf_counter() - started
    last_epoch = [r.loss for r in history
                  if r.extras.get("epoch") == FINETUNE_EPOCHS - 1]
    return {"history": history,
            "examples_per_s": len(examples) * FINETUNE_EPOCHS / elapsed,
            "loss_final": common.mean(last_epoch),
            "skipped": sum(1 for r in history if r.extras.get("skipped"))}


def _model_bytes(model) -> bytes:
    return b"".join(np.ascontiguousarray(value).tobytes()
                    for _, value in sorted(model.state_dict().items()))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _shape(rows: int, attributes: int):
    from repro.corpus import WikiTablesConfig

    return WikiTablesConfig(min_rows=rows, max_rows=rows,
                            min_attributes=attributes,
                            max_attributes=attributes)


def _inputs(seed: int, replay: bool):
    """The knowledge base, the tokenizer's corpus and the tables trained on.

    The tokenizer is part of the model, so it is built from one fixed
    corpus (seed 0, as in ``benchmarks/conftest.py``); the workload seed
    draws the tables trained on.  A seed-built vocabulary would change
    the size of the full-vocabulary MLM head, and with it the step time.
    """
    from repro.corpus import KnowledgeBase, generate_wiki_corpus, split_tables

    kb = KnowledgeBase(seed=0)
    vocabulary_corpus = generate_wiki_corpus(kb, CORPUS_TABLES, seed=0)
    if replay:
        # Every batch holds all 8 tables, so the longest one sets the
        # padded length of the one recorded program.  A fixed anchor
        # table longer than any seed-drawn one keeps that length, and
        # the program, the same for every seed.
        tables = generate_wiki_corpus(kb, REPLAY_TABLES - 1, seed=seed,
                                      config=_shape(*REPLAY_SHAPE))
        tables.append(_anchor(kb, ANCHOR_SHAPE))
    else:
        corpus = generate_wiki_corpus(kb, TRAIN_TABLES, seed=seed,
                                      config=_shape(*TABLE_SHAPE))
        tables, _, _ = split_tables(corpus)
    return kb, vocabulary_corpus, tables


def _anchor(kb, shape):
    from repro.corpus.wikitables import generate_wiki_table

    return generate_wiki_table(kb, np.random.default_rng(0),
                               config=_shape(*shape), table_id="anchor")


def _with_anchor(tables, kb, trainer):
    """Put a fixed table, longer than any seed-drawn one, where the first
    batch draws it (the trainer's RNG is seeded, so that slot is the same
    for every seed).  The longest batch, and with it peak memory, is then
    the same for every seed: with seed-drawn tables alone, the longest
    batch padded to 832-960 tokens and peak RSS read 189-217 MB."""
    peek = np.random.default_rng()
    peek.bit_generator.state = trainer.rng.bit_generator.state
    first = int(peek.choice(len(tables), size=BATCH_SIZE, replace=False)[0])
    tables = list(tables)
    tables[first] = _anchor(kb, EAGER_ANCHOR_SHAPE)
    return tables


def _one_pass(seed: int, workdir: Path, steps: int, replay: bool,
              recorder: spanlib.SpanRecorder | None) -> dict:
    """Set up, train (and fine-tune), returning measurements and spans."""
    kb, vocabulary_corpus, tables = _inputs(seed, replay)
    if replay:
        config = {"steps": steps, "compile": True,
                  "checkpoint_every": steps - REPLAY_CHECK_STEPS,
                  "keep_checkpoints": 2}
    else:
        config = {"steps": steps, "checkpoint_every": SNAPSHOT_EVERY,
                  "keep_checkpoints": 2}
    trainer, clock, setup_times = _set_up_repeated(
        vocabulary_corpus, kb.num_entities, config)
    if not replay:
        tables = _with_anchor(tables, kb, trainer)
    directory = workdir / ("ckpt-traced" if recorder else "ckpt")
    out = {"setup_times": setup_times, "trainer": trainer,
           "directory": directory, "tables": tables, "config": config,
           "vocabulary_corpus": vocabulary_corpus, "kb": kb}
    root = recorder.open("bench.pretrain") if recorder else None
    out["pretrain"] = _pretrain(trainer, clock, tables, directory)
    if recorder:
        recorder.close(root)
        out["pretrain_spans"] = recorder.take()
    if not replay:
        examples = _finetune_examples(tables, seed)
        root = recorder.open("bench.finetune") if recorder else None
        out["finetune"] = _finetune(trainer.model, examples)
        if recorder:
            recorder.close(root)
            out["finetune_spans"] = recorder.take()
    return out


def _check_replay(result: dict, outcome: Outcome) -> None:
    """The E14 contract: replayed steps leave eager's exact bytes."""
    trainer = result["trainer"]
    config = dict(result["config"], compile=False)
    eager, _, _ = _set_up(result["vocabulary_corpus"],
                          result["kb"].num_entities, config)
    steps = config["steps"]
    snapshot = result["directory"] / (
        f"ckpt-{steps - REPLAY_CHECK_STEPS:08d}.npz")
    eager.resume(snapshot)
    eager.train(result["tables"])
    if _model_bytes(eager.model) != _model_bytes(trainer.model):
        outcome.fail_check("compiled replay model bytes differ from an "
                           f"eager run of the last {REPLAY_CHECK_STEPS} "
                           "steps")
    outcome.details["replay_checked_steps"] = REPLAY_CHECK_STEPS


def _end_to_end(result: dict, outcome: Outcome) -> None:
    pretrain = result["pretrain"]
    outcome.add("setup_s", common.median(result["setup_times"]), "s",
                "lower", len(result["setup_times"]))
    outcome.add("peak_rss_mb", common.vm_hwm_mb(), "MB", "lower")
    outcome.add("throughput", pretrain["window_tokens_per_s"], "1/s",
                "higher", pretrain["windows"])
    outcome.add("latency_p50_ms", common.percentile(pretrain["step_ms"], 50),
                "ms", "lower", len(pretrain["step_ms"]))
    outcome.add("latency_p90_ms", common.percentile(pretrain["step_ms"], 90),
                "ms", "lower", len(pretrain["step_ms"]))


def _workload_metrics(result: dict, outcome: Outcome) -> None:
    """Workload-named figures, failure counts, checks and shares."""
    pretrain = result["pretrain"]
    steps = len(pretrain["history"])
    named = {"pretrain.tokens_per_s": pretrain["tokens_per_s"],
             "pretrain.step_ms_p50": outcome.metrics["latency_p50_ms"].value,
             "pretrain.step_ms_p90": outcome.metrics["latency_p90_ms"].value,
             "pretrain.loss_final": pretrain["loss_final"]}
    skipped = pretrain["skipped"]
    attempted = steps
    if "finetune" in result:
        finetune = result["finetune"]
        named["finetune.examples_per_s"] = finetune["examples_per_s"]
        named["finetune.loss_final"] = finetune["loss_final"]
        skipped += finetune["skipped"]
        attempted += len(finetune["history"])
    named["failed_share"] = skipped / attempted
    outcome.attempted, outcome.failed = attempted, skipped
    outcome.details["named"] = named
    losses = [r.loss for r in pretrain["history"]]
    if "finetune" in result:
        losses += [r.loss for r in result["finetune"]["history"]]
    if not all(math.isfinite(loss) for loss in losses):
        outcome.fail_check("a training loss is not finite")
    programs = result["trainer"]._programs
    recorded = len(programs) if programs is not None else 0
    outcome.details["shares"] = {
        "serve.cache.hit_share": 0.0,
        "nn.compile.replay_share": ((steps - recorded) / steps
                                    if programs is not None else 0.0),
        "pretrain.snapshot_share": pretrain["snapshot_share"],
    }


def _layer_table(layers: dict, names, per: int) -> dict[str, tuple]:
    out = {}
    for name in names:
        entry = layers.get(name, {"self": 0.0, "count": 0})
        out[f"{name}_ms"] = (entry["self"] * 1e3 / per, entry["count"])
    return out


def _pretrain_layers(spans: list[list], steps: int) -> dict[str, tuple]:
    """Per-step self times of the pretraining layers."""
    layers = spanlib.self_times(spans, {
        "heads": "pretrain.heads_loss",
        "nn.compile.replay.run": "nn.compile.replay",
        "nn.io.save": "nn.io.checkpoint",
        "pretrain.step": "pretrain.self",
        "bench.pretrain": "pretrain.unattributed"})
    out = _layer_table(layers, (
        "models.batch", "pretrain.masking", "models.forward",
        "pretrain.heads_loss", "nn.backward", "nn.optim",
        "nn.compile.replay", "nn.compile.record", "pretrain.self",
        "pretrain.unattributed"), steps)
    writes = sum(1 for span in spans if span[0] == "nn.io.save")
    checkpoint = layers.get("nn.io.checkpoint", {"self": 0.0})
    out["nn.io.checkpoint_ms"] = (checkpoint["self"] * 1e3 / max(1, writes),
                                  writes)
    replays = sum(1 for span in spans if span[0] == "nn.compile.replay.run")
    recorded = sum(1 for span in spans if span[0] == "nn.compile.record")
    out["nn.compile.programs"] = (recorded, recorded)
    out["nn.compile.replay_share"] = (replays / steps, steps)
    return out


def _finetune_layers(spans: list[list], steps: int) -> dict[str, tuple]:
    """Per-step self times of fine-tuning; the loss owns its forward."""
    layers = spanlib.self_times(spans, {
        "models.batch": None, "models.forward": None, "heads": None,
        "nn.backward": "finetune.backward", "nn.optim": "finetune.optim",
        "bench.finetune": "finetune.self"})
    return _layer_table(layers, ("finetune.loss", "finetune.backward",
                                 "finetune.optim", "finetune.self"), steps)


def run(seed: int, workdir: Path, seconds: int, replay: bool,
        traced: bool) -> Outcome:
    steps = pretrain_steps(seconds)
    outcome = Outcome()
    result = _one_pass(seed, workdir, steps, replay, recorder=None)
    _end_to_end(result, outcome)
    _workload_metrics(result, outcome)
    if replay:
        _check_replay(result, outcome)
    if traced:
        recorder = spanlib.SpanRecorder()
        installation = spanlib.install(recorder, spanlib.TRAINING_TARGETS)
        try:
            traced_result = _one_pass(seed, workdir, steps, replay, recorder)
        finally:
            installation.remove()
        layers = _pretrain_layers(traced_result["pretrain_spans"], steps)
        if not replay:
            layers.update(_finetune_layers(
                traced_result["finetune_spans"],
                len(traced_result["finetune"]["history"])))
        untraced = result["pretrain"]["tokens_per_s"]
        layers["bench.tracing_overhead_pct"] = (
            100.0 * (untraced / traced_result["pretrain"]["tokens_per_s"]
                     - 1.0), steps)
        outcome.details["layers"] = layers
    return outcome

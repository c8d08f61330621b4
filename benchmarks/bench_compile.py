"""E18 — compiled tape-replay pretraining throughput and bit-equality.

Reruns the Fig. 2c workload (TURL, batch 8, the wiki corpus) with
``PretrainConfig(compile=True)``: the first step of each padded-batch
signature records the autograd tape into a flat program, every later
step replays it through the :class:`~repro.nn.compile.TapeExecutor` —
no Tensor/node construction, fused elementwise kernels, reused buffers.
The corpus is pinned to one batch signature so 23 of the 24 steps are
replays (steady state).

The correctness half — eager and compiled model state byte-identical —
is asserted unconditionally.  The ≥2x step-throughput half is asserted
only on machines with 4+ usable cores, mirroring ``bench_parallel``:
starved runners time-slice the BLAS pool and the baseline noise swamps
the dispatch-overhead savings being measured.
"""

import os
import time

import numpy as np
import pytest

from repro.core import create_model
from repro.parallel import FixedClock
from repro.pretrain import Pretrainer, PretrainConfig

from .conftest import print_table

STEPS = 24
BATCH_SIZE = 8
SPEEDUP_TARGET = 2.0


def run_pretraining(corpus, tokenizer, config,
                    compile_flag: bool) -> tuple[float, bytes, int]:
    """One seeded Fig. 2c run; returns (seconds, state bytes, programs)."""
    model = create_model("turl", tokenizer, config=config, seed=0)
    trainer = Pretrainer(model, PretrainConfig(
        steps=STEPS, batch_size=BATCH_SIZE, learning_rate=3e-3, seed=0,
        compile=compile_flag), clock=FixedClock())
    started = time.perf_counter()
    trainer.train(corpus)
    elapsed = time.perf_counter() - started
    checkpoint = trainer.capture()
    blob = b"".join(np.ascontiguousarray(v).tobytes()
                    for _, v in sorted(checkpoint.model_state.items()))
    programs = len(trainer._programs) if trainer._programs is not None else 0
    return elapsed, blob, programs


def test_compiled_throughput(benchmark, wiki_corpus, tokenizer, config):
    """Eager vs tape-replay throughput on the Fig. 2c workload."""
    corpus = wiki_corpus[:BATCH_SIZE]  # one padded signature -> replays
    results = {}

    def experiment():
        for compile_flag in (False, True):
            results[compile_flag] = run_pretraining(
                corpus, tokenizer, config, compile_flag)
        return results

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    eager_s, eager_state, _ = results[False]
    compiled_s, compiled_state, programs = results[True]
    speedup = eager_s / compiled_s if compiled_s > 0 else float("inf")
    cores = os.cpu_count() or 1

    print_table(
        "E18: compiled tape-replay pretraining (Fig. 2c workload, TURL)",
        ["mode", "total s", "step ms", "speedup"],
        [["eager", f"{eager_s:.2f}",
          f"{eager_s / STEPS * 1e3:.1f}", "1.00x"],
         ["compiled", f"{compiled_s:.2f}",
          f"{compiled_s / STEPS * 1e3:.1f}", f"{speedup:.2f}x"]],
    )
    print(f"\nrecorded programs: {programs} "
          f"({STEPS - programs} of {STEPS} steps replayed)")

    # Correctness is unconditional: replay must not move one bit.
    assert compiled_state == eager_state, (
        "compiled model state diverged from eager")
    assert 1 <= programs < STEPS, (
        f"expected steady-state replay, recorded {programs} programs "
        f"over {STEPS} steps")

    # The throughput claim needs a machine where the eager baseline
    # isn't already starved for compute; below that, report only.
    if cores >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x step throughput from tape "
            f"replay on {cores} cores, measured {speedup:.2f}x")
    else:
        print(f"(speedup assertion skipped: {cores} usable core(s); "
              f"measured {speedup:.2f}x)")


def test_compiled_serving_latency(benchmark, wiki_corpus, tokenizer, config):
    """Forward-only replay: encoder latency with compiled inference."""
    model = create_model("turl", tokenizer, config=config, seed=0)
    batch, _ = model.batch(wiki_corpus[:BATCH_SIZE])

    def encode(runs: int) -> float:
        started = time.perf_counter()
        with model.inference():
            for _ in range(runs):
                model(batch)
        return time.perf_counter() - started

    def experiment():
        with model.inference():
            eager_out = model(batch).data.copy()
        eager_s = encode(16)
        model.enable_compiled_inference()
        with model.inference():
            compiled_out = model(batch).data.copy()  # records
        compiled_s = encode(16)
        return eager_s, compiled_s, eager_out, compiled_out

    eager_s, compiled_s, eager_out, compiled_out = benchmark.pedantic(
        experiment, rounds=1, iterations=1)
    ratio = eager_s / compiled_s if compiled_s > 0 else float("inf")
    print_table(
        "E18: forward-only encoding, batch of 8 tables",
        ["mode", "total s (16 runs)", "per batch ms", "speedup"],
        [["eager", f"{eager_s:.3f}", f"{eager_s / 16 * 1e3:.2f}", "1.00x"],
         ["compiled", f"{compiled_s:.3f}",
          f"{compiled_s / 16 * 1e3:.2f}", f"{ratio:.2f}x"]],
    )
    assert eager_out.tobytes() == compiled_out.tobytes(), (
        "compiled encoding diverged from eager")

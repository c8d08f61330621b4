"""The inference engine: per-task micro-batching over cached encoders.

:class:`InferenceEngine` is the request-oriented core every entry point
(``repro serve``, ``repro predict`` and the replicated
:class:`~repro.serve.frontend.ReplicatedFrontend`) shares.  Requests are
submitted per task, accumulate in a
:class:`~repro.serve.batching.DynamicBatcher`, and are answered through
the task's :class:`~repro.tasks.TaskPredictor` ``predict`` when a flush
is due.  A single :class:`~repro.serve.cache.EncodingCache` is installed
on every predictor's encoder, so repeated tables skip the transformer
entirely.

**Determinism contract.**  Predictions are a pure function of the model
weights and the request — *never* of batch composition, arrival order,
or which process answered.  Padded-batch forwards are not bitwise
padding-invariant (numpy's reductions associate differently as the
padded length changes), so the engine executes each request's numerics
individually inside a flushed batch: micro-batching amortizes dispatch
and keeps the cache's within-wave dedup, while every answer stays
byte-identical whether the request was served alone, inside a full
batch, or by any replica of :class:`~repro.serve.frontend` at any fleet
size.  The padded-batch throughput this trades away is empirically a
wash on this stack (``bench_serve``: BLAS already saturates one matmul
and padding wastes flops); the caching + replication wins remain.

Telemetry (all through the global :class:`~repro.runtime.MetricsRegistry`):

- ``serve.requests`` / ``serve.batches`` counters;
- ``serve.batch_size`` and ``serve.queue_depth`` histograms;
- ``serve.latency_seconds`` timer (submit → response, per request);
- one ``kind="serve_request"`` trace event per answered request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Callable

from .batching import BatchPolicy, DynamicBatcher
from .cache import EncodingCache
from ..runtime import get_registry
from ..tasks import Prediction

__all__ = ["ServeConfig", "PredictRequest", "PredictResponse",
           "InferenceEngine"]


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs shared by the HTTP server and the batch CLI."""

    max_batch: int = 8
    max_wait_seconds: float = 0.02
    cache_entries: int = 128
    metrics_prefix: str = "serve"
    compile: bool = False      # tape-replay encoders (bit-identical)

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be positive")
        BatchPolicy(self.max_batch, self.max_wait_seconds)  # validates


@dataclass(frozen=True)
class PredictRequest:
    """One submitted unit of work."""

    request_id: int
    task: str
    example: Any


@dataclass(frozen=True)
class PredictResponse:
    """One answered request."""

    request_id: int
    task: str
    prediction: Prediction
    latency_seconds: float
    batch_size: int

    def to_dict(self) -> dict[str, Any]:
        from .requests import json_safe_label

        return {
            "id": self.request_id,
            "task": self.task,
            "label": json_safe_label(self.prediction.label),
            "score": self.prediction.score,
            "latency_seconds": self.latency_seconds,
            "batch_size": self.batch_size,
        }


class InferenceEngine:
    """Micro-batching dispatcher over a set of task predictors.

    Parameters
    ----------
    predictors:
        ``task_name -> TaskPredictor``.  Each predictor's encoder gets
        the engine's shared :class:`EncodingCache` installed.
    config:
        Batching and cache limits.
    clock:
        Injectable monotonic clock (tests drive deadlines with a fake).
    compile:
        Overrides ``config.compile`` when given; enables compiled
        tape-replay (:meth:`TableEncoder.enable_compiled_inference`) on
        every predictor's encoder — bit-identical outputs, no per-op
        Python dispatch on cache-warm signatures.
    """

    def __init__(self, predictors: dict[str, Any],
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 compile: bool | None = None) -> None:
        if not predictors:
            raise ValueError("at least one task predictor is required")
        self.config = config or ServeConfig()
        if compile is not None:
            self.config = dataclass_replace(self.config, compile=compile)
        self.clock = clock
        self.predictors = dict(predictors)
        self.cache = EncodingCache(
            max_entries=self.config.cache_entries,
            metrics_prefix=f"{self.config.metrics_prefix}.cache")
        policy = BatchPolicy(self.config.max_batch,
                             self.config.max_wait_seconds)
        self._batchers = {task: DynamicBatcher(policy, clock=clock)
                          for task in self.predictors}
        self._next_id = 0
        for predictor in self.predictors.values():
            encoder = getattr(predictor, "encoder", None)
            if encoder is not None and hasattr(encoder, "set_encoding_cache"):
                encoder.set_encoding_cache(self.cache)
            if self.config.compile and encoder is not None and hasattr(
                    encoder, "enable_compiled_inference"):
                encoder.enable_compiled_inference()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting across every task queue."""
        return sum(len(b) for b in self._batchers.values())

    def submit(self, task: str, example: Any) -> PredictRequest:
        """Enqueue one example; the answer arrives from :meth:`poll`."""
        if task not in self.predictors:
            raise KeyError(f"no predictor for task {task!r}; serving "
                           f"{sorted(self.predictors)}")
        request = PredictRequest(self._next_id, task, example)
        self._next_id += 1
        self._batchers[task].push(request)
        registry = get_registry()
        prefix = self.config.metrics_prefix
        registry.counter(f"{prefix}.requests").inc()
        registry.histogram(f"{prefix}.queue_depth").observe(self.queue_depth)
        return request

    def poll(self) -> list[PredictResponse]:
        """Answer every batch that is due (size or deadline)."""
        responses: list[PredictResponse] = []
        for task, batcher in self._batchers.items():
            while batcher.due():
                responses.extend(self._run_batch(task,
                                                 batcher.pop_batch()))
        return responses

    def drain(self) -> list[PredictResponse]:
        """Flush every queue regardless of deadlines (shutdown / batch IO)."""
        responses: list[PredictResponse] = []
        for task, batcher in self._batchers.items():
            while len(batcher):
                responses.extend(self._run_batch(
                    task, batcher.pop_batch(force=True)))
        return responses

    def next_deadline(self) -> float | None:
        """Earliest pending deadline across the task queues, if any."""
        deadlines = [d for b in self._batchers.values()
                     if (d := b.next_deadline()) is not None]
        return min(deadlines) if deadlines else None

    def process(self, submissions: list[tuple[str, Any]]
                ) -> list[PredictResponse]:
        """Submit-and-drain convenience for batch-file workloads.

        Responses come back sorted by request id (= submission order).
        """
        for task, example in submissions:
            self.submit(task, example)
        responses = self.drain()
        return sorted(responses, key=lambda r: r.request_id)

    # ------------------------------------------------------------------
    def _run_batch(self, task: str,
                   batch: list[tuple[PredictRequest, float]]
                   ) -> list[PredictResponse]:
        if not batch:
            return []
        registry = get_registry()
        prefix = self.config.metrics_prefix
        requests = [request for request, _ in batch]
        # One predict call per request: canonical per-example numerics
        # (see the module docstring's determinism contract).  Repeats
        # inside the wave still dedup through the encoding cache — the
        # first occurrence misses and stores, the rest hit.  One
        # inference scope covers the whole wave; the predict, encode and
        # cache scopes nested under it enter without a module walk.
        predictor = self.predictors[task]
        with predictor.inference():
            predictions = [predictor.predict([r.example], batch_size=1)[0]
                           for r in requests]
        finished = self.clock()
        registry.counter(f"{prefix}.batches").inc()
        registry.histogram(f"{prefix}.batch_size").observe(len(batch))
        responses = []
        for (request, arrived), prediction in zip(batch, predictions):
            latency = max(0.0, finished - arrived)
            registry.timer(f"{prefix}.latency_seconds").observe(latency)
            response = PredictResponse(request.request_id, task, prediction,
                                       latency, len(batch))
            registry.emit({
                "kind": "serve_request",
                "id": request.request_id,
                "task": task,
                "latency_seconds": latency,
                "batch_size": len(batch),
                "score": prediction.score,
            })
            responses.append(response)
        return responses

"""The inference engine: one request path over cached task predictors.

:class:`InferenceEngine` is the request-oriented core every entry point
(``repro serve``, ``repro predict`` and the replicated
:class:`~repro.serve.frontend.ReplicatedFrontend`) shares.
:meth:`InferenceEngine.process` is its one entry point: it answers a
list of ``(task, example)`` submissions through each task's
:class:`~repro.tasks.TaskPredictor` ``predict``.  A single
:class:`~repro.serve.cache.EncodingCache` is installed on every
predictor's encoder, so repeated tables skip the transformer entirely.
Waves are formed upstream, by the front-end's admission queue; the
engine keeps no queue of its own.

**Determinism contract.**  Predictions are a pure function of the model
weights and the request — *never* of which requests share a call,
arrival order, or which process answered.  Padded-batch forwards are
not bitwise padding-invariant (numpy's reductions associate differently
as the padded length changes), so the engine executes each request's
numerics individually: every answer stays byte-identical whether the
request was served alone, beside others of its task, or by any replica
of :class:`~repro.serve.frontend` at any fleet size.  The padded-batch
throughput this trades away is empirically a wash on this stack
(``bench_serve``: BLAS already saturates one matmul and padding wastes
flops); the caching + replication wins remain.

Telemetry (all through the global :class:`~repro.runtime.MetricsRegistry`):

- ``serve.requests`` / ``serve.batches`` counters (one batch per task
  group in a :meth:`~InferenceEngine.process` call);
- ``serve.batch_size`` histogram;
- ``serve.latency_seconds`` timer (call → response, per request);
- one ``kind="serve_request"`` trace event per answered request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .cache import EncodingCache
from ..runtime import get_registry
from ..tasks import Prediction

__all__ = ["ServeConfig", "PredictResponse", "InferenceEngine"]


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs shared by the HTTP server and the batch CLI."""

    cache_entries: int = 128
    compile: bool = False      # tape-replay encoders (bit-identical)

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be positive")


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
    """Answers submissions through a set of task predictors.

    Parameters
    ----------
    predictors:
        ``task_name -> TaskPredictor``.  Each predictor's encoder gets
        the engine's shared :class:`EncodingCache` installed.
    config:
        Cache limit and the compile switch: ``compile=True`` enables
        compiled tape-replay (:meth:`TableEncoder.enable_compiled_inference`)
        on every predictor's encoder — bit-identical outputs, no per-op
        Python dispatch on cache-warm signatures.
    clock:
        Injectable monotonic clock for the latency telemetry.
    """

    def __init__(self, predictors: dict[str, Any],
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not predictors:
            raise ValueError("at least one task predictor is required")
        self.config = config or ServeConfig()
        self.clock = clock
        self.predictors = dict(predictors)
        self.cache = EncodingCache(max_entries=self.config.cache_entries)
        self._next_id = 0
        for predictor in self.predictors.values():
            encoder = getattr(predictor, "encoder", None)
            if encoder is not None and hasattr(encoder, "set_encoding_cache"):
                encoder.set_encoding_cache(self.cache)
            if self.config.compile and encoder is not None and hasattr(
                    encoder, "enable_compiled_inference"):
                encoder.enable_compiled_inference()

    def process(self, submissions: list[tuple[str, Any]]
                ) -> list[PredictResponse]:
        """Answer ``(task, example)`` submissions, in submission order.

        Every task is checked first: an unknown one raises ``KeyError``
        before any prediction runs or any counter moves.  Request ids
        are assigned in submission order and stay monotonic across
        calls.  Each task's requests run as one batch under one
        inference scope, so the predict, encode and cache scopes nested
        under it enter without a module walk; ``batch_size`` is that
        task group's size.
        """
        for task, _ in submissions:
            if task not in self.predictors:
                raise KeyError(f"no predictor for task {task!r}; serving "
                               f"{sorted(self.predictors)}")
        registry = get_registry()
        registry.counter("serve.requests").inc(len(submissions))
        arrived = self.clock()
        first_id = self._next_id
        self._next_id += len(submissions)
        groups: dict[str, list[int]] = {}
        for index, (task, _) in enumerate(submissions):
            groups.setdefault(task, []).append(index)
        responses: list[PredictResponse | None] = [None] * len(submissions)
        for task, indices in groups.items():
            # One predict call per request: canonical per-example
            # numerics (see the module docstring's determinism
            # contract).  Repeats inside the group still dedup through
            # the encoding cache — the first occurrence misses and
            # stores, the rest hit.
            predictor = self.predictors[task]
            with predictor.inference():
                predictions = [
                    predictor.predict([submissions[i][1]], batch_size=1)[0]
                    for i in indices]
            latency = max(0.0, self.clock() - arrived)
            size = len(indices)
            registry.counter("serve.batches").inc()
            registry.histogram("serve.batch_size").observe(size)
            for index, prediction in zip(indices, predictions):
                request_id = first_id + index
                registry.timer("serve.latency_seconds").observe(latency)
                registry.emit({
                    "kind": "serve_request",
                    "id": request_id,
                    "task": task,
                    "latency_seconds": latency,
                    "batch_size": size,
                    "score": prediction.score,
                })
                responses[index] = PredictResponse(
                    request_id, task, prediction, latency, size)
        return responses

"""Spans around calls into the program's layers, recorded from outside.

The traced run wraps public functions of the program (listed in
:data:`TRAINING_TARGETS` and :data:`SERVING_TARGETS`) so each call
records a span: name, start, end, parent span, and a trace id shared by
the spans of one request or step.  Spans stay in memory and are written
out when the run (or a server process) ends.  The untraced run installs
nothing; :func:`wrapped_targets` lets the self-test prove it.

A layer's self time is its span's duration minus the time covered by
its child spans, so the self times of one step add up to the step.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

_MARK = "__perfbench_span__"

#: (module, attribute path, span name).  Module-level functions are
#: patched in the namespace that calls them.
TRAINING_TARGETS = [
    ("repro.models.base", "TableEncoder.batch", "models.batch"),
    ("repro.models.base", "TableEncoder.forward", "models.forward"),
    ("repro.pretrain.trainer", "mask_for_mlm", "pretrain.masking"),
    ("repro.pretrain.trainer", "mask_for_mer", "pretrain.masking"),
    ("repro.models.heads", "MlmHead.forward", "heads"),
    ("repro.models.heads", "EntityRecoveryHead.forward", "heads"),
    ("repro.pretrain.trainer", "mlm_loss", "heads"),
    ("repro.pretrain.trainer", "mer_loss", "heads"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "_Optimizer.zero_grad", "nn.optim"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.pretrain.trainer", "clip_gradients", "nn.optim"),
    ("repro.tasks.common", "clip_gradients", "nn.optim"),
    ("repro.nn.compile", "TapeExecutor.run", "nn.compile.replay.run"),
    ("repro.nn.compile", "TapeExecutor.backward", "nn.compile.replay"),
    ("repro.pretrain.trainer", "record_program", "nn.compile.record"),
    ("repro.pretrain.trainer", "Pretrainer.capture", "nn.io.checkpoint"),
    ("repro.pretrain.trainer", "Pretrainer.save_checkpoint", "nn.io.save"),
    ("repro.pretrain.trainer", "Pretrainer.train_step", "pretrain.step"),
    ("repro.tasks.imputation", "EntityImputer.loss", "finetune.loss"),
]

SERVING_TARGETS = [
    ("repro.serve.server", "build_example", "serve.requests.parse"),
    ("repro.serve.frontend", "ReplicatedFrontend.submit_many",
     "serve.frontend.admit"),
    ("repro.serve.engine", "InferenceEngine.process", "serve.engine.process"),
    ("repro.serve.cache", "EncodingCache.features_for",
     "serve.cache.features"),
    ("repro.serve.cache", "EncodingCache.hidden_for", "serve.cache.hidden"),
    ("repro.serve.cache", "model_fingerprint", "serve.cache.fingerprint"),
    ("repro.models.base", "TableEncoder.forward", "models.forward"),
    ("repro.nn.module", "Module.inference", "serve.nn.inference_mode"),
] + [(module, f"{cls}.predict", "tasks.head") for module, cls in (
    ("repro.tasks.qa", "CellSelectionQA"),
    ("repro.tasks.nli", "NliClassifier"),
    ("repro.tasks.imputation", "ValueImputer"),
    ("repro.tasks.coltype", "ColumnTypePredictor"),
    ("repro.tasks.retrieval", "BiEncoderRetriever"),
    ("repro.tasks.text2sql", "SketchParser"),
)]

#: Spans with no wrapper of their own, recorded by probes in the serving
#: parent: per-ticket queue wait and dispatch-to-completion round trip.
PROBE_TARGETS = [
    ("repro.serve.frontend", "AdmissionQueue.admit_many"),
    ("repro.serve.frontend", "AdmissionQueue.pop_for"),
    ("repro.serve.frontend", "AdmissionQueue.pop_any"),
    ("repro.parallel.workers", "WorkerPool.send"),
    ("repro.serve.frontend", "ServeTicket.complete"),
]


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, trace]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if trace is None:
                if parent >= 0:
                    trace = self.spans[parent][4]
                else:
                    self._trace_ids += 1
                    trace = f"{os.getpid()}-{self._trace_ids}"
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, trace])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def take(self) -> list[list]:
        """Return the spans so far and start afresh (between phases)."""
        spans = self.spans
        self._reset()
        return spans

    def add(self, name: str, start: float, end: float, trace) -> None:
        """Record a finished span measured by a probe (no parent)."""
        with self._lock:
            self.spans.append([name, start, end, -1, trace])

    def dump(self, path: str | Path, role: str) -> None:
        payload = {"pid": os.getpid(), "role": role, "spans": self.spans}
        Path(path).write_text(json.dumps(payload))

    def dump_on_exit(self, directory: str | Path, role: str) -> None:
        """Write spans when a forked child of this process exits.

        ``multiprocessing`` children leave through ``os._exit``, which
        skips ``atexit``; its own finalizers still run, so each child
        registers one after the fork.
        """

        def after_fork(recorder: "SpanRecorder") -> None:
            recorder._reset()
            path = Path(directory) / f"spans-{role}-{os.getpid()}.json"
            multiprocessing.util.Finalize(recorder, recorder.dump,
                                          args=(path, role), exitpriority=10)

        multiprocessing.util.register_after_fork(self, after_fork)


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _span_wrapper(recorder: SpanRecorder, original, name: str):
    if name == "serve.nn.inference_mode":
        # A context manager: time entering and leaving, not the body.
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return _TimedContext(recorder, name, original(*args, **kwargs))
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)
    setattr(wrapper, _MARK, name)
    return wrapper


class _TimedContext:
    def __init__(self, recorder: SpanRecorder, name: str, context) -> None:
        self._recorder, self._name, self._context = recorder, name, context

    def __enter__(self):
        index = self._recorder.open(self._name)
        try:
            return self._context.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc_info):
        index = self._recorder.open(self._name)
        try:
            return self._context.__exit__(*exc_info)
        finally:
            self._recorder.close(index)


def _probe_wrappers(recorder: SpanRecorder) -> dict[str, object]:
    """Wrappers timing each ticket's queue wait and wave round trip."""
    admitted: dict[int, float] = {}
    sent: dict[int, float] = {}
    originals = {attr: getattr(*_resolve(module, attr))
                 for module, attr in PROBE_TARGETS}

    def admit_many(queue, tickets):
        verdicts = originals["AdmissionQueue.admit_many"](queue, tickets)
        now = time.perf_counter()
        for ticket, ok in zip(tickets, verdicts):
            if ok:
                admitted[ticket.request_id] = now
        return verdicts

    def popper(attr):
        def pop(queue, *args, **kwargs):
            taken = originals[attr](queue, *args, **kwargs)
            now = time.perf_counter()
            for ticket in taken:
                start = admitted.pop(ticket.request_id, None)
                if start is not None:
                    recorder.add("serve.frontend.queue_wait", start, now,
                                 ticket.request_id)
            return taken
        return pop

    def send(pool, slot, step, params, assigned, *args, **kwargs):
        now = time.perf_counter()
        for _, payload in assigned:
            for request_id, _task, _example in payload:
                sent[request_id] = now
            recorder.add("serve.frontend.wave", now, now, len(payload))
        return originals["WorkerPool.send"](pool, slot, step, params,
                                            assigned, *args, **kwargs)

    def complete(ticket, response):
        start = sent.pop(ticket.request_id, None)
        originals["ServeTicket.complete"](ticket, response)
        if start is not None:
            recorder.add("serve.frontend.wave_rtt", start,
                         time.perf_counter(), ticket.request_id)

    return {"AdmissionQueue.admit_many": admit_many,
            "AdmissionQueue.pop_for": popper("AdmissionQueue.pop_for"),
            "AdmissionQueue.pop_any": popper("AdmissionQueue.pop_any"),
            "WorkerPool.send": send,
            "ServeTicket.complete": complete}


class Installation:
    """Wrappers currently installed; :meth:`remove` restores originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(recorder: SpanRecorder, targets, probes: bool = False
            ) -> Installation:
    """Wrap every target (and, for the server, the queue probes)."""
    installation = Installation()
    for module, attr_path, name in targets:
        owner, attr = _resolve(module, attr_path)
        installation.patch(owner, attr,
                           _span_wrapper(recorder, owner.__dict__[attr], name))
    if probes:
        for (module, attr_path), wrapper in zip(
                PROBE_TARGETS, _probe_wrappers(recorder).values()):
            owner, attr = _resolve(module, attr_path)
            setattr(wrapper, _MARK, attr_path)
            installation.patch(owner, attr, wrapper)
    return installation


def wrapped_targets() -> list[str]:
    """Every listed target that currently carries a benchmark wrapper."""
    found = []
    for module, attr_path, *_ in (TRAINING_TARGETS + SERVING_TARGETS
                                  + PROBE_TARGETS):
        owner, attr = _resolve(module, attr_path)
        if hasattr(owner.__dict__.get(attr), _MARK):
            found.append(f"{module}:{attr_path}")
    return found


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[list], rename: dict[str, str | None] | None = None
               ) -> dict[str, dict]:
    """Per-layer ``{"self": seconds, "total": seconds, "count": n}``.

    ``rename`` maps a span name to the layer it is charged to; a name
    mapped to ``None`` is folded into its parent (its time counts as the
    parent's self time and its children become the parent's children).
    """
    rename = rename or {}
    kept = {}
    for index, (name, _start, end, _parent, _trace) in enumerate(spans):
        layer = rename.get(name, name)
        if layer is not None and end:   # end == 0: still open at exit
            kept[index] = layer

    def kept_parent(index: int) -> int:
        parent = spans[index][3]
        while parent >= 0 and parent not in kept:
            parent = spans[parent][3]
        return parent

    child_time: dict[int, float] = defaultdict(float)
    for index in kept:
        parent = kept_parent(index)
        if parent >= 0:
            child_time[parent] += spans[index][2] - spans[index][1]
    layers: dict[str, dict] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "count": 0})
    for index, layer in kept.items():
        duration = spans[index][2] - spans[index][1]
        entry = layers[layer]
        entry["total"] += duration
        entry["self"] += max(0.0, duration - child_time[index])
        entry["count"] += 1
    return dict(layers)


def load_span_files(directory: str | Path) -> list[tuple[str, list[list]]]:
    """``(role, spans)`` per server process (parent indices are per file)."""
    files = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        files.append((payload["role"], payload["spans"]))
    return files

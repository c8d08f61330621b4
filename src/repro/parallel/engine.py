"""The data-parallel step engine: shard → compute → fixed-order reduce.

:class:`DataParallelEngine` owns scheduling, reduction **and worker
supervision**; *what* a shard computes stays with the caller, passed in
as ``compute(payload) -> stats``.  The contract:

- ``compute`` runs forward+backward for one shard payload against the
  live ``parameters`` and returns a JSON-able stats dict; the engine
  harvests ``p.grad`` afterwards (as a sparse ``{param_index: grad}``
  dict) and clears it, so consecutive shards never cross-accumulate.
- Per-shard losses must already carry their global normalization (e.g.
  ``n_shard_targets / n_total_targets`` scaling), so the engine's job is
  a plain unweighted sum — performed by the fixed-order reduction tree
  in :mod:`repro.parallel.reduce`, which is what makes the combined
  gradient bit-identical for every worker count and completion order.
- ``workers=1`` runs shards in-process in shard order (no fork, no
  pickling); ``workers>1`` forks a persistent
  :class:`~repro.parallel.workers.WorkerPool` lazily on the first step
  and syncs parameter arrays to it each step.

**Elastic supervision** (``config.elastic``, default on).  Every
dispatch carries a deadline; while replies are pending the supervisor
watches each worker through three signals — process liveness, the
heartbeat frames a busy worker emits, and the wall-clock deadline.  A
worker that dies, goes silent past ``heartbeat_timeout`` or misses its
``step_deadline`` is reaped (SIGKILL, pipe closed) and replaced by a
fresh fork after exponential backoff, up to ``max_respawns`` per slot;
past that the slot is retired and the pool *degrades* to fewer workers.
Lost shards are deterministically re-executed — on the replacement, or
in-process when no replacement is permitted — which preserves the
bit-identity guarantee: a shard gradient is a pure function of the
step-start parameter bytes and the shard payload, and the reduction
tree orders by shard index, never by who computed it or when.

Telemetry lands in the process registry: ``parallel.shard_ms``/
``parallel.reduce_ms``/``parallel.imbalance`` as before, plus the
supervisor counters ``parallel.worker_deaths``, ``parallel.respawns``
and ``parallel.degraded`` with ``kind="supervisor"`` events (mirrored
through an attached :class:`~repro.runtime.HealthMonitor` when one is
wired in).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Sequence

import numpy as np

from .config import ParallelConfig
from .plan import assign_round_robin, split_waves
from .reduce import tree_reduce_grads
from .workers import WorkerFailedError, WorkerPool
from ..runtime import get_registry, telemetry_enabled

__all__ = ["DataParallelEngine", "EngineStep"]

#: How often the supervisor wakes to re-examine silent workers while
#: waiting for replies (seconds).  Purely a polling granularity — it
#: bounds detection latency, never correctness.
_POLL_GRANULARITY = 0.05

_RawResult = tuple[int, dict, dict, float]


@dataclass
class EngineStep:
    """What one engine step produced, ordered by shard index."""

    grads: dict[int, np.ndarray]
    stats: list[dict]
    shard_seconds: list[float]
    reduce_seconds: float

    @property
    def imbalance(self) -> float:
        """``max/mean - 1`` over shard compute times (0 = balanced)."""
        if len(self.shard_seconds) < 2:
            return 0.0
        mean = sum(self.shard_seconds) / len(self.shard_seconds)
        if mean <= 0.0:
            return 0.0
        return max(self.shard_seconds) / mean - 1.0


class DataParallelEngine:
    """Schedules shard computations, supervises workers, reduces grads."""

    def __init__(self, parameters: Sequence,
                 compute: Callable[[Any], dict],
                 config: ParallelConfig | None = None,
                 health=None) -> None:
        self.parameters = list(parameters)
        self.compute = compute
        self.config = config or ParallelConfig()
        self.health = health
        self._pool: WorkerPool | None = None
        self._steps = 0
        self._respawn_attempts: dict[int, int] = {}

    # -- shard execution ------------------------------------------------
    def _run_shard(self, payload: Any) -> tuple[dict[int, np.ndarray], dict]:
        """Compute one shard against the live parameters; harvest grads."""
        for parameter in self.parameters:
            parameter.zero_grad()
        stats = self.compute(payload)
        grads = {index: parameter.grad
                 for index, parameter in enumerate(self.parameters)
                 if parameter.grad is not None}
        for parameter in self.parameters:
            parameter.zero_grad()
        return grads, stats

    def _sync(self, arrays: list[np.ndarray]) -> None:
        """Overwrite parameter storage in place (worker-side per step)."""
        for parameter, value in zip(self.parameters, arrays):
            parameter.data[...] = value
            parameter.version += 1

    def _run_inline(self, shards: list[tuple[int, Any]]) -> list[_RawResult]:
        """Re-execute shards in the parent process (degraded fallback).

        Bit-identical to a worker executing them: the parent's parameter
        bytes *are* the step-start bytes every worker synced from.
        """
        results: list[_RawResult] = []
        for shard_index, payload in shards:
            started = time.perf_counter()
            grads, stats = self._run_shard(payload)
            elapsed = time.perf_counter() - started
            results.append((shard_index, grads, stats, elapsed))
        return results

    # -- the step -------------------------------------------------------
    def step(self, payloads: Sequence[Any]) -> EngineStep:
        """Run every shard payload, return the tree-combined gradients.

        The result is bit-identical for any ``workers`` setting — and
        for any pattern of worker deaths, hangs, respawns or pool
        degradation — because shard decomposition happened upstream,
        per-shard numerics run on identical parameter bytes (fork +
        per-step sync), and the reduce orders contributions by shard
        index, never by completion or by executor.
        """
        if not payloads:
            raise ValueError("engine step needs at least one shard payload")
        num_shards = len(payloads)
        waves = split_waves(num_shards, self.config.accumulate)
        step_index = self._steps
        self._steps += 1

        raw: list[_RawResult] = []
        if self.config.workers == 1:
            for wave in waves:
                raw.extend(self._run_inline(
                    [(i, payloads[i]) for i in wave]))
        else:
            pool = self._ensure_pool()
            pool.start()
            params = [parameter.data for parameter in self.parameters]
            synced: set[int] = set()
            for wave in waves:
                live = pool.live_slots()
                if not live:
                    raw.extend(self._run_inline(
                        [(i, payloads[i]) for i in wave]))
                    continue
                pending: dict[int, list[tuple[int, Any]]] = {}
                assignment = assign_round_robin(wave, len(live))
                for position, shard_ids in sorted(assignment.items()):
                    self._dispatch(live[position], step_index,
                                   [(i, payloads[i]) for i in shard_ids],
                                   pending, synced, params, raw)
                raw.extend(self._collect(pending, step_index, synced,
                                         params))

        started = time.perf_counter()
        combined = tree_reduce_grads(
            ((shard_index, grads) for shard_index, grads, _, _ in raw),
            num_shards)
        reduce_seconds = time.perf_counter() - started

        by_index = {shard_index: (stats, elapsed)
                    for shard_index, _, stats, elapsed in raw}
        result = EngineStep(
            grads=combined,
            stats=[by_index[i][0] for i in range(num_shards)],
            shard_seconds=[by_index[i][1] for i in range(num_shards)],
            reduce_seconds=reduce_seconds,
        )
        self._observe(result)
        return result

    def load_grads(self, grads: dict[int, np.ndarray]) -> None:
        """Install combined gradients; untouched parameters keep ``None``."""
        for index, parameter in enumerate(self.parameters):
            parameter.grad = grads.get(index)

    # -- elastic supervision --------------------------------------------
    def _dispatch(self, slot: int, step: int, shards: list[tuple[int, Any]],
                  pending: dict[int, list[tuple[int, Any]]],
                  synced: set[int], params: list[np.ndarray],
                  results: list[_RawResult]) -> None:
        """Send an assignment, rerouting through recovery on pipe failure."""
        while True:
            try:
                self._pool.send(slot, step,
                                None if slot in synced else params,
                                shards,
                                deadline=self.config.step_deadline)
            except (BrokenPipeError, EOFError, OSError):
                replacement = self._handle_loss(
                    slot, step, "worker pipe closed at dispatch", synced)
                if replacement is None:
                    results.extend(self._run_inline(shards))
                    return
                slot = replacement
                continue
            synced.add(slot)
            pending[slot] = shards
            return

    def _collect(self, pending: dict[int, list[tuple[int, Any]]], step: int,
                 synced: set[int],
                 params: list[np.ndarray]) -> list[_RawResult]:
        """Gather replies, detecting and recovering worker failures.

        Three detectors run per pending worker: pipe EOF / process exit
        (*died*), silence past ``heartbeat_timeout`` (*wedged*), and the
        dispatch deadline (*stuck or pathologically slow*).  Application
        errors raised inside a shard are not recoverable — re-execution
        is deterministic, so they would fail again — and surface as
        :class:`WorkerFailedError` attributed to the worker and step.
        """
        results: list[_RawResult] = []
        config = self.config
        while pending:
            for slot in sorted(pending):
                if slot not in pending:  # recovered away mid-iteration
                    continue
                status, payload = self._pool.poll(slot, timeout=0)
                if status == "ok":
                    results.extend(payload)
                    del pending[slot]
                    continue
                if status == "error":
                    raise WorkerFailedError(slot, step, payload)
                if status == "hb":
                    continue
                handle = self._pool.handle(slot)
                now = time.monotonic()
                reason = None
                if status == "dead" or not handle.alive():
                    reason = ("worker process died (exitcode="
                              f"{handle.process.exitcode})")
                elif (handle.deadline_at is not None
                        and now > handle.deadline_at):
                    reason = (f"step deadline ({config.step_deadline:g}s) "
                              f"exceeded")
                elif (config.heartbeat_interval > 0
                        and now - handle.last_seen
                        > config.heartbeat_timeout):
                    reason = (f"no heartbeat for "
                              f"{config.heartbeat_timeout:g}s")
                if reason is None:
                    continue
                lost = pending.pop(slot)
                replacement = self._handle_loss(slot, step, reason, synced)
                if replacement is None:
                    results.extend(self._run_inline(lost))
                else:
                    self._dispatch(replacement, step, lost, pending,
                                   synced, params, results)
            if pending:
                _mp_connection.wait(
                    [self._pool.handle(slot).connection
                     for slot in pending],
                    timeout=_POLL_GRANULARITY)
        return results

    def _handle_loss(self, slot: int, step: int, reason: str,
                     synced: set[int]) -> int | None:
        """Reap a failed worker; respawn it or retire the slot.

        Returns the slot number to re-dispatch to (a fresh fork), or
        ``None`` when the slot was retired — the caller then runs the
        lost shards in-process.  Raises :class:`WorkerFailedError` when
        supervision is disabled (``config.elastic=False``).
        """
        self._pool.reap(slot)
        synced.discard(slot)
        self._emit_supervisor("worker_death", step, slot, reason,
                              counter="parallel.worker_deaths")
        if not self.config.elastic:
            raise WorkerFailedError(slot, step, reason)
        attempts = self._respawn_attempts.get(slot, 0)
        if attempts < self.config.max_respawns:
            self._respawn_attempts[slot] = attempts + 1
            backoff = self.config.respawn_backoff * (2 ** attempts)
            if backoff > 0:
                time.sleep(backoff)
            self._pool.respawn(slot)
            self._emit_supervisor(
                "worker_respawn", step, slot,
                f"respawn {attempts + 1}/{self.config.max_respawns} "
                f"after {backoff:g}s backoff",
                counter="parallel.respawns")
            return slot
        self._emit_supervisor(
            "pool_degraded", step, slot,
            f"slot retired after {attempts} respawns; "
            f"{len(self._pool.live_slots())} workers remain",
            counter="parallel.degraded")
        return None

    def _emit_supervisor(self, action: str, step: int, slot: int,
                         reason: str, counter: str) -> None:
        if telemetry_enabled():
            registry = get_registry()
            registry.counter(counter).inc()
            registry.emit({
                "kind": "supervisor",
                "action": action,
                "step": int(step),
                "worker": int(slot),
                "reason": reason,
            })
        if self.health is not None:
            self.health.worker_event(step, slot, reason, action)

    def _observe(self, result: EngineStep) -> None:
        registry = get_registry()
        shard_ms = registry.histogram("parallel.shard_ms")
        for seconds in result.shard_seconds:
            shard_ms.observe(seconds * 1e3)
        registry.histogram("parallel.reduce_ms").observe(
            result.reduce_seconds * 1e3)
        registry.histogram("parallel.imbalance").observe(result.imbalance)

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                self.config.workers, self._run_shard, self._sync,
                heartbeat_interval=self.config.heartbeat_interval,
                fault_plan=self.config.faults)
        return self._pool

    def close(self) -> None:
        """Stop worker processes; safe to call twice or never start."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DataParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

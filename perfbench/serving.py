"""serve-hot and serve-cold: ``repro serve`` driven over loopback HTTP.

The server is the program's own CLI (``python -m repro.cli serve
<16 wiki tables> --replicas 2``).  Requests cycle through all six task
heads.  serve-hot draws each inline table from the served tables with
Zipf popularity (s=1.1), so most requests hit the encoding cache;
serve-cold gives every request a freshly generated git-style table, so
serialization and the model forward run on every request.

Load is an open-loop Poisson schedule over two keep-alive connections
(:mod:`loadgen`): first a light phase of ``5 * seconds`` requests at
10 req/s (200 in the standard 40-second run), which gives
``latency_p90_ms`` (and the reported ``latency_p50_ms``); then a rising
ladder of rungs, 100 requests each, stopped at the first rung that
fails.  A rung
passes when its p90 latency is at most 100 ms, no request fails, and
the backlog does not grow (the generator ends the rung with at most
:data:`BACKLOG_LIMIT` requests waiting for a connection).

Predictions (written down before measuring; see ``layers.py``):

- With two connections, the ~40 ms reply stall of a reused keep-alive
  connection holds each connection once requests arrive back to back.
  It caps ``throughput`` (max req/s) near 20-30 on serve-hot and hides
  CPU savings in ``serve.cache.*`` and ``serve.engine.*``; those can
  move the light-rate p50 only by their share, and will not move
  ``throughput`` until the stall is gone.
- serve-cold spends its time in ``serve.cache.features`` and
  ``models.forward``; a fingerprint or cache change should not move it.

Correctness, outside the timed region: every answered request's label
and score must equal ``repro predict``'s answer for the same request
stream and corpus (served is byte-identical to a single engine).
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import loadgen
import spans as spanlib
from common import BenchError, Outcome

HERE = Path(__file__).resolve().parent
SERVED_TABLES = 16
REPLICAS = 2
# Load comes from one process with at most nproc connections.
CONNECTIONS = min(2, os.cpu_count() or 1)
ZIPF_S = 1.1
LIGHT_RATE = 10.0
LIGHT_PER_SECOND = 5     # light-phase requests per --seconds (200 at 40)
RUNG_REQUESTS = 100
LADDER = (15.0, 22.5, 34.0, 50.0, 75.0, 110.0, 165.0)
P90_LIMIT_MS = 100.0
BACKLOG_LIMIT = 2
# A request sent this long after the rung's last due time was queued.
_SEND_SLACK = 0.005
SETUP_REPEATS = 5
# The arrival schedule is part of the workload, like a replayed trace:
# every seed sends its requests at the same times, so the spread between
# seeds measures the server, not how bursty one draw of arrivals was.
SCHEDULE_SEED = 20231
READY_TIMEOUT = 60.0

TASKS = ("qa", "nli", "imputation", "coltype", "retrieval", "text2sql")
_QUESTIONS = ("what is the highest value?", "how many entries are there?",
              "what is the lowest value?")
_STATEMENTS = ("the first row is the largest", "every value is positive",
               "the table has three columns")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _inline(table) -> dict:
    return {"header": list(table.header),
            "rows": [[cell.text() for cell in row] for row in table.rows]}


def _payload(task: str, table: dict, rng, turn: int,
             query: str) -> dict:
    rows, columns = len(table["rows"]), len(table["header"])
    if task == "qa":
        return {"task": task, "table": table,
                "question": _QUESTIONS[turn % 3]}
    if task == "nli":
        return {"task": task, "table": table,
                "statement": _STATEMENTS[turn % 3]}
    if task == "imputation":
        return {"task": task, "table": table,
                "row": int(rng.integers(min(rows, 2))),
                "column": int(rng.integers(min(columns, 2)))}
    if task == "coltype":
        return {"task": task, "table": table,
                "column": int(rng.integers(columns))}
    if task == "retrieval":
        return {"task": task, "query": query}
    return {"task": task, "table": table, "question": _QUESTIONS[turn % 3]}


class Inputs:
    """The served corpus and every request of one run, from the seed."""

    def __init__(self, workdir: Path, seed: int, cold: bool,
                 light_requests: int) -> None:
        from repro.corpus import (GitTablesConfig, KnowledgeBase,
                                  WikiTablesConfig, generate_git_corpus,
                                  generate_wiki_corpus)
        from repro.tables import save_table

        self.corpus = workdir / "corpus"
        self.corpus.mkdir(parents=True)
        # One table shape, so the seed changes which tables are popular
        # but not how large they are: the most popular table takes ~30%
        # of serve-hot's requests, and its size sets their cost.
        served = generate_wiki_corpus(KnowledgeBase(seed=0), SERVED_TABLES,
                                      seed=seed,
                                      config=WikiTablesConfig(6, 6, 3, 3))
        for table in served:
            save_table(table, self.corpus / f"{table.table_id}.csv")
        rng = np.random.default_rng([seed, 1])
        total = len(TASKS) + light_requests + RUNG_REQUESTS * len(LADDER)
        if cold:
            # One table shape, so the seed changes content, not size.
            fresh = generate_git_corpus(total, seed=seed + 7919,
                                        config=GitTablesConfig(
                                            min_rows=6, max_rows=6))
            tables = [_inline(t) for t in fresh]
            queries = [" ".join(cell.text() for cell in t.rows[0][:3])
                       + f" {i}" for i, t in enumerate(fresh)]
        else:
            # Zipf popularity over a seed-chosen ranking of served tables.
            ranked = [served[i] for i in rng.permutation(len(served))]
            weights = np.arange(1, len(ranked) + 1, dtype=float) ** -ZIPF_S
            picks = rng.choice(len(ranked), size=total,
                               p=weights / weights.sum())
            inline = [_inline(t) for t in ranked]
            tables = [inline[int(i)] for i in picks]
            queries = [_QUESTIONS[i % 3] for i in range(total)]
        self.payloads = [
            json.dumps(_payload(TASKS[i % len(TASKS)], tables[i], rng,
                                i // len(TASKS), queries[i])).encode()
            for i in range(total)]
        # Warm-up: one request per task, sent before anything is timed.
        self.warmup = self.payloads[:len(TASKS)]
        light_end = len(TASKS) + light_requests
        self.light = self.payloads[len(TASKS):light_end]
        self.light_offsets = loadgen.poisson_offsets(
            np.random.default_rng(SCHEDULE_SEED), LIGHT_RATE, light_requests)
        self.rungs = []
        for number, rate in enumerate(LADDER, start=1):
            start = light_end + (number - 1) * RUNG_REQUESTS
            offsets = loadgen.poisson_offsets(
                np.random.default_rng([SCHEDULE_SEED, number]), rate,
                RUNG_REQUESTS)
            self.rungs.append((rate, offsets,
                               self.payloads[start:start + RUNG_REQUESTS]))


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _get_json(port: int, path: str) -> tuple[int, dict]:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Connection: close\r\n\r\n".encode())
        reply = loadgen.Reply(0, 0.0)
        loadgen._read_reply(sock, reply)
    return reply.status, json.loads(reply.body)


class Server:
    """One ``repro serve`` process (optionally under the span launcher)."""

    def __init__(self, corpus: Path, span_dir: Path | None) -> None:
        self.port = _free_port()
        # A file, not a pipe: nothing drains stderr while the server runs.
        self.log = corpus.parent / f"serve-{self.port}.log"
        args = ["serve", str(corpus), "--replicas", str(REPLICAS),
                "--port", str(self.port)]
        if span_dir is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(span_dir), *args]
        self.started = time.perf_counter()
        with self.log.open("wb") as log:
            self.process = subprocess.Popen(
                command, env=common.program_env(), cwd=str(common.ROOT),
                stdout=subprocess.DEVNULL, stderr=log)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchError("repro serve exited during start-up: "
                                 + self.log.read_text()[-800:])
            try:
                status, health = _get_json(self.port, "/v1/healthz")
                if status == 200 and health["live_replicas"] == REPLICAS:
                    return
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.01)
        raise BenchError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid, *common.child_pids(self.process.pid)]
        return sum(common.vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _start(inputs: Inputs, span_dir: Path | None) -> tuple[Server, float]:
    """Launch, wait for every replica, warm up; returns the set-up time."""
    server = Server(inputs.corpus, span_dir)
    try:
        server.wait_ready()
        replies = loadgen.run_open_loop(server.port, [0.0] * len(TASKS),
                                        inputs.warmup, connections=1)
        if not all(reply.ok for reply in replies):
            raise BenchError("warm-up request failed: "
                             f"{[r.error or r.status for r in replies]}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


# ----------------------------------------------------------------------
# One measured pass
# ----------------------------------------------------------------------
def _rung_stats(rate: float, replies: list[loadgen.Reply]) -> dict:
    ok = [r for r in replies if r.ok]
    latencies = [r.latency * 1e3 for r in ok]
    # Requests still waiting for a connection when the last one was due.
    last_due = max(r.due for r in replies)
    backlog = sum(1 for r in replies
                  if not r.sent or r.sent > last_due + _SEND_SLACK)
    stats = {"rate": rate, "sent": len(replies), "succeeded": len(ok),
             "failed": len(replies) - len(ok), "backlog_at_end": backlog}
    if latencies:
        stats.update(
            p50_ms=common.percentile(latencies, 50),
            p90_ms=common.percentile(latencies, 90),
            ttfb_ms_p50=common.percentile([r.ttfb * 1e3 for r in ok], 50),
            reply_tail_ms_p90=common.percentile(
                [r.reply_tail * 1e3 for r in ok], 90))
    stats["passed"] = bool(latencies and stats["failed"] == 0
                           and stats["p90_ms"] <= P90_LIMIT_MS
                           and backlog <= BACKLOG_LIMIT)
    return stats


def _log_crossing(low: dict, high: dict) -> float | None:
    """Rate where p90 reaches the limit, with log p90 linear in the rate
    through two rungs (latency grows about exponentially toward
    saturation); ``None`` when the two rungs give no usable slope."""
    if (low["failed"] or high["failed"] or "p90_ms" not in low
            or high.get("p90_ms", 0.0) <= low["p90_ms"]):
        return None
    share = (math.log(P90_LIMIT_MS / low["p90_ms"])
             / math.log(high["p90_ms"] / low["p90_ms"]))
    return low["rate"] + share * (high["rate"] - low["rate"])


def _max_rps(light: dict, rungs: list[dict]) -> float:
    """Highest passing rate, interpolated to where p90 reaches the limit.

    Between the last passing rung and the first failing one the rate is
    interpolated (:func:`_log_crossing`), so the result moves smoothly
    with the server's speed instead of jumping between rungs.  When even
    the light rate fails, the first two rungs are extrapolated downward;
    the result is floored at a tenth of the light rate, so a server too
    slow for the limit reads as small, never as 0.
    """
    ladder = [light, *rungs]
    floor = LIGHT_RATE / 10
    if not light["passed"]:
        crossing = _log_crossing(light, rungs[0]) if rungs else None
        return max(floor, crossing if crossing is not None else floor)
    for below, rung in zip(ladder, ladder[1:]):
        if not rung["passed"]:
            crossing = _log_crossing(below, rung)
            if crossing is None:
                return below["rate"]
            # A rung can fail on its backlog with p90 still in bounds.
            return min(crossing, rung["rate"])
    return ladder[-1]["rate"]


def _measure(inputs: Inputs, server: Server) -> dict:
    """Light phase, then the ladder; returns replies and per-rung stats."""
    _, health_before = _get_json(server.port, "/v1/healthz")
    light = loadgen.run_open_loop(server.port, inputs.light_offsets,
                                  inputs.light, CONNECTIONS,
                                  np.random.default_rng([SCHEDULE_SEED, 0]))
    phases = [("light", _rung_stats(LIGHT_RATE, light), light)]
    sent = {len(TASKS) + i: r for i, r in enumerate(light)}
    base = len(TASKS) + len(inputs.light)
    for number, (rate, offsets, payloads) in enumerate(inputs.rungs):
        replies = loadgen.run_open_loop(
            server.port, offsets, payloads, CONNECTIONS,
            np.random.default_rng([SCHEDULE_SEED, 0, number + 1]))
        for i, reply in enumerate(replies):
            sent[base + number * RUNG_REQUESTS + i] = reply
        stats = _rung_stats(rate, replies)
        phases.append((f"rung-{number + 1}", stats, replies))
        if not stats["passed"]:
            break
    _, health_after = _get_json(server.port, "/v1/healthz")
    return {"phases": phases, "sent": sent, "health_before": health_before,
            "health_after": health_after, "peak_rss_mb": server.peak_rss_mb()}


def _pass(inputs: Inputs, workdir: Path, traced: bool,
          setups: int) -> dict:
    span_dir = None
    if traced:
        span_dir = workdir / "spans"
        span_dir.mkdir()
    setup_times = []
    for _ in range(setups - 1):
        server, seconds = _start(inputs, None)
        server.stop()
        setup_times.append(seconds)
    server, seconds = _start(inputs, span_dir)
    setup_times.append(seconds)
    try:
        result = _measure(inputs, server)
    finally:
        server.stop()
    result["setup_times"] = setup_times
    result["span_dir"] = span_dir
    return result


# ----------------------------------------------------------------------
# Correctness: served == single engine
# ----------------------------------------------------------------------
def _check_against_predict(inputs: Inputs, sent: dict, workdir: Path,
                           outcome: Outcome) -> None:
    order = sorted(sent)
    requests = workdir / "requests.jsonl"
    requests.write_text("".join(inputs.payloads[i].decode() + "\n"
                                for i in order))
    answers = workdir / "answers.jsonl"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "predict", str(requests),
         str(inputs.corpus), "--out", str(answers)],
        env=common.program_env(), cwd=str(common.ROOT),
        capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        outcome.fail_check(f"repro predict failed: {completed.stderr[-500:]}")
        return
    expected = [json.loads(line) for line in answers.read_text().splitlines()]
    mismatches = 0
    for index, reference in zip(order, expected):
        reply = sent[index]
        if not reply.ok:
            continue
        served = json.loads(reply.body)
        if (served.get("label") != reference["label"]
                or served.get("score") != reference["score"]):
            mismatches += 1
    if mismatches:
        outcome.fail_check(f"{mismatches} served answers differ from "
                           "repro predict")
    outcome.details["checked_answers"] = len(order)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _client_layers(replies: list[loadgen.Reply]) -> dict[str, tuple]:
    ok = [r for r in replies if r.ok]
    ttfb = [r.ttfb * 1e3 for r in ok]
    tail = [r.reply_tail * 1e3 for r in ok]
    lag = [r.generator_lag * 1e3 for r in ok]
    return {
        "serve.server.ttfb_ms_p50": (common.percentile(ttfb, 50), len(ttfb)),
        "serve.server.reply_tail_ms_p50": (common.percentile(tail, 50),
                                           len(tail)),
        "serve.server.reply_tail_ms_p90": (common.percentile(tail, 90),
                                           len(tail)),
        "bench.generator_lag_ms_p90": (common.percentile(lag, 90), len(lag)),
    }


def _end_to_end(result: dict, outcome: Outcome) -> None:
    phases = result["phases"]
    light = phases[0][1]
    light_ok = [r.latency * 1e3 for r in phases[0][2] if r.ok]
    rungs = [stats for _, stats, _ in phases[1:]]
    outcome.add("setup_s", common.median(result["setup_times"]), "s",
                "lower", len(result["setup_times"]))
    outcome.add("peak_rss_mb", result["peak_rss_mb"], "MB", "lower",
                REPLICAS + 1)
    outcome.add("throughput", _max_rps(light, rungs), "1/s", "higher",
                len(phases))
    outcome.add("latency_p50_ms", common.percentile(light_ok, 50), "ms",
                "lower", len(light_ok))
    outcome.add("latency_p90_ms", common.percentile(light_ok, 90), "ms",
                "lower", len(light_ok))


def _shares(result: dict) -> dict:
    before = result["health_before"]["cache"]
    after = result["health_after"]["cache"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return {"serve.cache.hit_share": hits / lookups if lookups else 0.0,
            "nn.compile.replay_share": 0.0, "pretrain.snapshot_share": 0.0}


_REPLICA_LAYERS = ("serve.engine.process", "serve.cache.features",
                   "serve.cache.hidden", "serve.cache.fingerprint",
                   "serve.nn.inference_mode", "tasks.head", "models.forward")


def _server_layers(span_dir: Path) -> dict[str, tuple]:
    """Per-request self times, waits and counts from the span files."""
    self_ms: dict[str, float] = {}
    counts: dict[str, int] = {}
    timed: dict[str, list[float]] = {"serve.frontend.queue_wait": [],
                                     "serve.frontend.wave_rtt": []}
    waves = []
    for _role, spans in spanlib.load_span_files(span_dir):
        for name, entry in spanlib.self_times(spans).items():
            self_ms[name] = self_ms.get(name, 0.0) + entry["self"] * 1e3
            counts[name] = counts.get(name, 0) + entry["count"]
        for name, start, end, _parent, trace in spans:
            if name in timed:
                timed[name].append((end - start) * 1e3)
            elif name == "serve.frontend.wave":
                waves.append(trace)
    requests = max(1, counts.get("serve.engine.process", 0))
    out = {f"{name}_ms": (self_ms.get(name, 0.0) / requests,
                          counts.get(name, 0))
           for name in ("serve.requests.parse", "serve.frontend.admit",
                        *_REPLICA_LAYERS)}
    fingerprints = counts.get("serve.cache.fingerprint", 0)
    out["serve.cache.fingerprint_calls_per_request"] = (
        fingerprints / requests, fingerprints)
    waits, rtts = timed.values()
    for q in (50, 90):
        out[f"serve.frontend.queue_wait_ms_p{q}"] = (
            common.percentile(waits, q) if waits else 0.0, len(waits))
    out["serve.frontend.wave_rtt_ms"] = (common.mean(rtts), len(rtts))
    replica_ms = sum(out[f"{name}_ms"][0] for name in _REPLICA_LAYERS)
    out["serve.frontend.pipe_ms"] = (common.mean(rtts) - replica_ms,
                                     len(rtts))
    out["serve.frontend.wave_size_mean"] = (common.mean(waves), len(waves))
    out["_queue_wait_mean_ms"] = (common.mean(waits), len(waits))
    return out


def _traced_layers(result: dict, untraced_p50: float) -> dict[str, tuple]:
    replies = [r for _, _, phase in result["phases"] for r in phase]
    ok = [r for r in replies if r.ok]
    layers = dict(_client_layers(replies))
    layers["bench.backlog_ms"] = (
        common.mean((r.sent - r.due) * 1e3 for r in ok), len(ok))
    layers.update(_server_layers(result["span_dir"]))
    attributed = (layers["bench.backlog_ms"][0]
                  + common.mean(r.reply_tail * 1e3 for r in ok)
                  + layers["serve.requests.parse_ms"][0]
                  + layers["serve.frontend.admit_ms"][0]
                  + layers.pop("_queue_wait_mean_ms")[0]
                  + layers["serve.frontend.wave_rtt_ms"][0])
    layers["serve.unattributed_ms"] = (
        common.mean(r.latency * 1e3 for r in ok) - attributed, len(ok))
    light = [r.latency * 1e3 for r in result["phases"][0][2] if r.ok]
    layers["bench.tracing_overhead_pct"] = (
        100.0 * (common.percentile(light, 50) / untraced_p50 - 1.0),
        len(light))
    return layers


def run(seed: int, workdir: Path, seconds: int, cold: bool,
        traced: bool) -> Outcome:
    inputs = Inputs(workdir, seed, cold, LIGHT_PER_SECOND * seconds)
    outcome = Outcome()
    result = _pass(inputs, workdir, traced=False, setups=SETUP_REPEATS)
    _end_to_end(result, outcome)
    replies = [r for _, _, phase in result["phases"] for r in phase]
    outcome.attempted = len(replies)
    outcome.failed = sum(1 for r in replies if not r.ok)
    outcome.details["rungs"] = [stats for _, stats, _ in result["phases"]]
    outcome.details["named"] = {
        "serve.max_rps": outcome.metrics["throughput"].value,
        "serve.p50_ms": outcome.metrics["latency_p50_ms"].value,
        "serve.p90_ms": outcome.metrics["latency_p90_ms"].value,
        "failed_share": outcome.failed / outcome.attempted}
    outcome.details["shares"] = _shares(result)
    health = result["health_after"]
    counts = {"serve.cache.evictions": health["cache"]["evictions"],
              "serve.frontend.shed": health["shed"],
              "serve.frontend.deadline_expired": health["deadline_expired"]}
    outcome.details["counts"] = counts
    client = _client_layers(replies)
    outcome.details["client_layers"] = {k: v[0] for k, v in client.items()}
    _check_against_predict(inputs, result["sent"], workdir, outcome)
    if traced:
        traced_result = _pass(inputs, workdir, traced=True, setups=1)
        layers = _traced_layers(traced_result,
                                outcome.metrics["latency_p50_ms"].value)
        layers.update({name: (value, 1) for name, value in counts.items()})
        layers["serve.cache.hit_share"] = (
            outcome.details["shares"]["serve.cache.hit_share"], 1)
        outcome.details["traced_rungs"] = [
            stats for _, stats, _ in traced_result["phases"]]
        outcome.details["layers"] = layers
    return outcome

"""Self-tests of the benchmark harness (not of the program).

Run with ``python3 perfbench/test_harness.py`` (or ``pytest perfbench``).
They check that the open-loop generator charges a stalled server for
the requests it delayed, the percentile rule, span arithmetic, the
ladder's rate interpolation, that the untraced run installs no
wrapper, and that ``BENCHMARK.json`` matches ``layers.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402

STALL_SECONDS = 0.5


class _StallingHandler(BaseHTTPRequestHandler):
    """Keep-alive stub: the first request stalls, the rest answer at once."""

    protocol_version = "HTTP/1.1"
    calls = 0
    lock = threading.Lock()

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            first = type(self).calls == 0
            type(self).calls += 1
        if first:
            time.sleep(STALL_SECONDS)
        body = b'{"ok": true}'
        # One write, so the stub has no delayed-ACK stall of its own.
        self.connection.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

    def log_message(self, *args) -> None:
        pass


class OpenLoopTest(unittest.TestCase):
    def test_requests_due_during_a_stall_carry_the_wait(self) -> None:
        _StallingHandler.calls = 0
        server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            offsets = [0.05 * i for i in range(8)]
            replies = loadgen.run_open_loop(
                server.server_address[1], offsets, [b"{}"] * len(offsets),
                connections=1)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        self.assertFalse(thread.is_alive())
        self.assertTrue(all(reply.ok for reply in replies))
        stall_end = replies[0].last_byte
        for reply in replies[1:]:
            if reply.due < stall_end:
                # Charged from its due time, not from when it got sent.
                self.assertGreaterEqual(reply.latency, stall_end - reply.due)
                self.assertGreater(reply.sent, reply.due + 0.01)
                self.assertLess(reply.last_byte - reply.sent, 0.1)
        self.assertLess(replies[0].generator_lag, 0.05)

    def test_stratified_poisson_gaps(self) -> None:
        import numpy as np

        offsets = loadgen.poisson_offsets(np.random.default_rng(0), 10.0, 100)
        self.assertEqual(len(offsets), 100)
        self.assertAlmostEqual(offsets[-1], 10.0)
        self.assertEqual(offsets, sorted(offsets))


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self) -> None:
        self.assertEqual(common.samples_beyond(100, 90), 10)
        self.assertTrue(common.supports(100, 90))
        self.assertFalse(common.supports(99, 90))
        self.assertFalse(common.supports(100, 95))
        self.assertEqual(common.highest_supported(100), 90)
        self.assertEqual(common.highest_supported(200), 95)
        self.assertEqual(common.highest_supported(1000), 99)
        self.assertEqual(common.highest_supported(20), 50)
        self.assertIsNone(common.highest_supported(5))

    def test_nearest_rank(self) -> None:
        values = list(range(1, 101))
        self.assertEqual(common.percentile(values, 50), 50)
        self.assertEqual(common.percentile(values, 90), 90)
        self.assertEqual(common.percentile([7.0], 90), 7.0)

    def test_reported_tails_are_supported(self) -> None:
        self.assertTrue(common.supports(serving.LIGHT_PER_SECOND * 20, 90))
        self.assertTrue(common.supports(serving.RUNG_REQUESTS, 90))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_children_and_folds(self) -> None:
        recorded = [["step", 0.0, 10.0, -1, 1],
                    ["forward", 1.0, 4.0, 0, 1],
                    ["heads", 2.0, 3.0, 1, 1],
                    ["backward", 5.0, 9.0, 0, 1]]
        plain = spans.self_times(recorded)
        self.assertAlmostEqual(plain["step"]["self"], 3.0)
        self.assertAlmostEqual(plain["forward"]["self"], 2.0)
        folded = spans.self_times(recorded, {"forward": None})
        self.assertAlmostEqual(folded["step"]["self"], 5.0)
        self.assertAlmostEqual(folded["heads"]["self"], 1.0)
        self.assertNotIn("forward", folded)


class LadderTest(unittest.TestCase):
    def test_rate_interpolated_between_pass_and_fail(self) -> None:
        light = {"rate": 10.0, "passed": True, "failed": 0, "p90_ms": 20.0}
        rungs = [{"rate": 20.0, "passed": True, "failed": 0, "p90_ms": 60.0},
                 {"rate": 30.0, "passed": False, "failed": 0,
                  "p90_ms": 140.0}]
        # log p90 is linear in rate: 60 -> 140 ms over 20 -> 30 req/s
        # reaches 100 ms at 20 + 10 * ln(100/60) / ln(140/60).
        self.assertAlmostEqual(serving._max_rps(light, rungs), 26.029, 3)
        self.assertEqual(serving._max_rps(light, rungs[:1]), 20.0)
        # A light rung already past the limit extrapolates downward
        # (120 -> 200 ms over 10 -> 20 req/s), never reading 0.
        slow = {"rate": 10.0, "passed": False, "failed": 0, "p90_ms": 120.0}
        faster = {"rate": 20.0, "passed": False, "failed": 0,
                  "p90_ms": 200.0}
        self.assertAlmostEqual(serving._max_rps(slow, [faster]), 6.431, 3)
        self.assertEqual(serving._max_rps(slow, []), 1.0)


class UntracedRunTest(unittest.TestCase):
    def test_untraced_pass_installs_no_wrapper(self) -> None:
        common.require_program()
        import training

        seen = []
        original = training.RecordingClock.__call__

        def checking_clock(clock):
            if not seen:
                seen.append(spans.wrapped_targets())
            return original(clock)

        training.RecordingClock.__call__ = checking_clock
        try:
            with tempfile.TemporaryDirectory() as workdir:
                training._one_pass(1, Path(workdir),
                                   steps=training.REPLAY_CHECK_STEPS + 2,
                                   replay=True, recorder=None)
        finally:
            training.RecordingClock.__call__ = original
        self.assertEqual(seen, [[]])
        self.assertEqual(spans.wrapped_targets(), [])

    def test_traced_install_is_removed(self) -> None:
        common.require_program()
        installation = spans.install(spans.SpanRecorder(),
                                     spans.SERVING_TARGETS, probes=True)
        try:
            self.assertTrue(spans.wrapped_targets())
        finally:
            installation.remove()
        self.assertEqual(spans.wrapped_targets(), [])

    def test_untraced_server_is_the_plain_cli(self) -> None:
        with tempfile.TemporaryDirectory() as workdir:
            server = serving.Server(Path(workdir) / "corpus", span_dir=None)
            try:
                self.assertEqual(server.process.args[1:3], ["-m", "repro.cli"])
            finally:
                server.stop()


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_catalogue(self) -> None:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(layers.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]],
                         [tuple(m) for m in layers.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         [(m["name"], m["unit"], m["better"])
                          for m in layers.PER_LAYER])


if __name__ == "__main__":
    unittest.main()

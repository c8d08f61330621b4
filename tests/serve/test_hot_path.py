"""The cache-hit serving path: TCP_NODELAY sockets, the weight-versioned
model fingerprint, and one inference scope per wave."""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

import repro.serve.cache as cache_module
from repro.corpus import NLIExample
from repro.nn import SGD, Adam, Module, Parameter
from repro.parallel import DataParallelEngine, ParallelConfig
from repro.serve import (
    EncodingCache,
    InferenceEngine,
    ServeConfig,
    ServerConfig,
    make_http_server,
    model_fingerprint,
)
from repro.tasks import FinetuneConfig, NliClassifier, finetune
from repro.tasks.common import _capture_snapshot, _restore_snapshot


def _inline_table(table):
    return {"header": table.header,
            "rows": [[cell.text() for cell in row] for row in table.rows[:3]]}


# ----------------------------------------------------------------------
# TCP_NODELAY sockets
# ----------------------------------------------------------------------
@pytest.fixture
def nodelay_server(encoder):
    nli = NliClassifier(encoder, np.random.default_rng(0))
    engine = InferenceEngine({"nli": nli}, ServeConfig())
    server = make_http_server(engine, ServerConfig(port=0))
    nodelay = []
    base = server.RequestHandlerClass

    class Spied(base):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

    server.RequestHandlerClass = Spied
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    yield server, nodelay
    server.shutdown()
    server.server_close()
    worker.join()


def test_accepted_sockets_set_tcp_nodelay(nodelay_server, serve_tables):
    server, nodelay = nodelay_server
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=60)
    try:
        # Two replies on one keep-alive connection: the second is the
        # one Nagle's algorithm used to hold back.
        for _ in range(2):
            connection.request("POST", "/v1/predict", body=json.dumps(
                {"task": "nli", "statement": "s",
                 "table": _inline_table(serve_tables[0])}))
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
    finally:
        connection.close()
    assert len(nodelay) == 1 and nodelay[0]     # one keep-alive socket


# ----------------------------------------------------------------------
# Weight-versioned model fingerprint
# ----------------------------------------------------------------------
def _grad_step(encoder, optimizer):
    for param in encoder.parameters():
        param.grad = np.full_like(param.data, 0.01)
    optimizer.step()


def _sync(encoder):
    engine = DataParallelEngine(list(encoder.parameters()),
                                lambda payload: {}, ParallelConfig())
    engine._sync([p.data + 0.5 for p in engine.parameters])


def _restore(encoder):
    parameters = list(encoder.parameters())
    optimizer = Adam(parameters, lr=0.1)
    snapshot = _capture_snapshot(parameters, optimizer)
    snapshot[0][0] += 1.0
    _restore_snapshot(parameters, optimizer, snapshot)


def _load_state(encoder):
    state = encoder.state_dict()
    name = next(iter(state))
    state[name] = state[name] + 1.0
    encoder.load_state_dict(state)


def _rebind(encoder):
    param = next(iter(encoder.parameters()))
    param.data = param.data + 1e-3


WRITERS = {
    "Adam.step": lambda e: _grad_step(e, Adam(e.parameters(), lr=0.1)),
    "SGD.step": lambda e: _grad_step(e, SGD(e.parameters(), lr=0.1)),
    "Module.load_state_dict": _load_state,
    "_restore_snapshot": _restore,
    "DataParallelEngine._sync": _sync,
    "param.data rebinding": _rebind,
}


class TestWeightVersionedFingerprint:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_every_writer_changes_the_fingerprint(self, encoder, writer):
        original = encoder.state_dict()
        before = model_fingerprint(encoder)
        assert model_fingerprint(encoder) == before       # memo hit
        WRITERS[writer](encoder)
        after = model_fingerprint(encoder)
        assert after != before
        # Content-addressed: the original bytes give the original digest.
        encoder.load_state_dict(original)
        assert model_fingerprint(encoder) == before

    def test_registering_a_parameter_changes_the_fingerprint(self,
                                                             encoder):
        before = model_fingerprint(encoder)
        encoder.extra = Parameter(np.ones(2))
        assert model_fingerprint(encoder) != before

    def test_memo_skips_rehashing(self, encoder, monkeypatch):
        before = model_fingerprint(encoder)
        monkeypatch.setattr(cache_module, "hashlib", None)   # no hashing
        assert model_fingerprint(encoder) == before

    def test_warm_cache_serves_fresh_states_after_finetune(
            self, encoder, serve_tables):
        table = serve_tables[0]
        nli = NliClassifier(encoder, np.random.default_rng(0))
        cache = EncodingCache()
        encoder.set_encoding_cache(cache)
        stale, _ = encoder.infer_hidden([table], ["claim"])
        encoder.infer_hidden([table], ["claim"])
        assert cache.hits == 1

        examples = [NLIExample(t, "a claim", i % 2)
                    for i, t in enumerate(serve_tables[:2])]
        finetune(nli, examples, FinetuneConfig(epochs=1, batch_size=2))
        served, _ = encoder.infer_hidden([table], ["claim"])
        encoder.set_encoding_cache(None)
        fresh, _ = encoder.infer_hidden([table], ["claim"])

        np.testing.assert_array_equal(served.data, fresh.data)
        assert not np.array_equal(served.data, stale.data)
        assert cache.misses == 2


# ----------------------------------------------------------------------
# One inference scope per wave
# ----------------------------------------------------------------------
@pytest.fixture
def eval_calls(monkeypatch):
    calls = []
    original = Module.eval

    def counting(self):
        calls.append(type(self).__name__)
        return original(self)

    monkeypatch.setattr(Module, "eval", counting)
    return calls


class TestOneScopePerWave:
    def test_nested_inference_does_no_module_walk(self, encoder,
                                                  eval_calls):
        nli = NliClassifier(encoder, np.random.default_rng(0))
        nli.train()
        with nli.inference():
            assert len(eval_calls) == 1
            with nli.inference(), encoder.inference():
                assert not encoder.training
            assert len(eval_calls) == 1
            assert not nli.training
        assert all(module.training for module in nli.modules())

    def test_uncovered_module_still_walks_and_restores(self, encoder):
        nli = NliClassifier(encoder, np.random.default_rng(0))
        other = NliClassifier(encoder, np.random.default_rng(1))
        nli.eval()
        other.train()           # shares the encoder: back in training
        with nli.inference():
            with other.inference():
                assert not any(m.training for m in other.modules())
            assert other.training
        assert not nli.training

    def test_engine_wave_walks_once(self, encoder, serve_tables,
                                    eval_calls):
        nli = NliClassifier(encoder, np.random.default_rng(0))
        engine = InferenceEngine({"nli": nli}, ServeConfig())
        wave = [("nli", NLIExample(t, "s", 0)) for t in serve_tables[:3]]
        engine.process(wave)
        assert eval_calls == ["NliClassifier"]

    def test_one_walk_per_task_group(self, encoder, serve_tables,
                                     eval_calls):
        nli = NliClassifier(encoder, np.random.default_rng(0))
        other = NliClassifier(encoder, np.random.default_rng(1))
        engine = InferenceEngine({"nli": nli, "other": other})
        engine.process([(task, NLIExample(t, "s", 0))
                        for task in ("nli", "other")
                        for t in serve_tables[:3]][::-1])
        assert eval_calls == ["NliClassifier", "NliClassifier"]

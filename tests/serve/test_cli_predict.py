"""End-to-end `repro predict` / `repro serve` through cli.main()."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.corpus import KnowledgeBase, generate_wiki_corpus
from repro.tables import save_table


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for table in generate_wiki_corpus(KnowledgeBase(seed=0), 6, seed=0):
        save_table(table, root / f"{table.table_id}.csv")
    return root


def _inline_table(corpus_dir):
    import csv

    path = sorted(corpus_dir.glob("*.csv"))[0]
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return {"header": rows[0], "rows": rows[1:4], "title": "demo"}


class TestPredictCommand:
    def test_jsonl_round_trip(self, corpus_dir, tmp_path, capsys):
        table = _inline_table(corpus_dir)
        requests = [
            {"task": "qa", "table": table, "question": "which one?"},
            {"task": "nli", "table": table, "statement": "it is so"},
            {"task": "coltype", "table": table, "column": 0},
            {"task": "retrieval", "query": "anything"},
            {"task": "qa", "table": table, "question": "which one?"},
        ]
        request_path = tmp_path / "requests.jsonl"
        request_path.write_text(
            "\n".join(json.dumps(r) for r in requests) + "\n")
        out_path = tmp_path / "responses.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"

        code = main(["predict", str(request_path), str(corpus_dir),
                     "--model", "bert", "--out", str(out_path),
                     "--metrics-out", str(metrics_path)])
        assert code == 0

        responses = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert [r["id"] for r in responses] == list(range(5))
        assert [r["task"] for r in responses] == [r["task"] for r in requests]
        # The duplicated QA request shares its batch and its answer.
        assert responses[0]["label"] == responses[4]["label"]
        assert responses[0]["batch_size"] == 2
        events = [json.loads(line)
                  for line in metrics_path.read_text().splitlines()]
        assert sum(e.get("kind") == "serve_request" for e in events) == 5

    def test_bad_request_file_fails_with_line_number(self, corpus_dir,
                                                     tmp_path, capsys):
        request_path = tmp_path / "bad.jsonl"
        request_path.write_text('{"task": "qa"}\n')   # missing table
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(request_path), str(corpus_dir),
                  "--model", "bert"])
        assert excinfo.value.code == 2
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_missing_request_file(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(tmp_path / "nope.jsonl"), str(corpus_dir)])
        assert excinfo.value.code == 2


class TestServeEndpoints:
    def test_http_round_trip(self, corpus_dir):
        import numpy as np

        from repro.cli import _load_corpus_dir, _resolve_model
        from repro.serve import (InferenceEngine, ServeConfig, ServerConfig,
                                 build_predictor, make_http_server)
        from repro.serve.requests import SERVED_TASKS

        tables = _load_corpus_dir(str(corpus_dir))
        model = _resolve_model("bert", tables, 0)
        rng = np.random.default_rng(0)
        predictors = {task: build_predictor(task, model, tables, rng)
                      for task in SERVED_TASKS}
        engine = InferenceEngine(predictors, ServeConfig())
        server = make_http_server(engine, ServerConfig(port=0))
        port = server.server_address[1]

        def call(path, payload=None):
            worker = threading.Thread(target=server.handle_request)
            worker.start()
            data = None if payload is None else json.dumps(payload).encode()
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}{path}", data=data,
                        timeout=30) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())
            finally:
                worker.join()

        try:
            status, health = call("/v1/healthz")
            assert status == 200 and health["status"] == "ok"
            assert set(health["tasks"]) == set(SERVED_TASKS)

            table = _inline_table(corpus_dir)
            status, body = call("/v1/predict", {"task": "nli", "table": table,
                                                "statement": "hello"})
            assert status == 200 and body["label"] in (0, 1)

            status, body = call("/v1/predict", [
                {"task": "qa", "table": table, "question": "q?"},
                {"task": "qa", "table": table, "question": "q?"},
            ])
            assert status == 200 and len(body) == 2
            assert body[0]["batch_size"] == 2

            status, body = call("/v1/predict", {"task": "unknown"})
            assert status == 400 and "error" in body

            status, metrics = call("/v1/metrics")
            names = {m.get("name") for m in metrics}
            assert "serve.requests" in names
        finally:
            server.server_close()


class TestServeOperatorErrors:
    """Bad serve knobs are operator errors: exit 2, one line, no traceback."""

    @pytest.mark.parametrize("flags, fragment", [
        (["--replicas", "-1"], "replicas"),
        (["--deadline-ms", "-5"], "deadline_ms"),
        (["--max-queue", "0"], "max_queue"),
    ])
    def test_invalid_knobs_exit_2(self, corpus_dir, flags, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(corpus_dir), "--model", "bert", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and fragment in err

    def test_busy_port_exits_2(self, corpus_dir, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", str(corpus_dir), "--model", "bert",
                      "--port", str(port)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: cannot serve on "
                              f"127.0.0.1:{port}:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_of_range_port_exits_2(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(corpus_dir), "--model", "bert",
                  "--port", "70000"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cannot serve on "
                              "127.0.0.1:70000:")
        assert err.count("\n") == 1

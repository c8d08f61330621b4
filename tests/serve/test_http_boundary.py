"""Hostile input at the HTTP boundary: every request gets a structured
400, never a dropped connection, a traceback or a file read."""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

import repro.serve.requests as requests_module
from repro.cli import main
from repro.serve import (
    InferenceEngine,
    ServeConfig,
    ServerConfig,
    build_predictor,
    make_http_server,
)
from repro.tables import save_table


@pytest.fixture
def server(encoder, serve_tables):
    predictors = {task: build_predictor(task, encoder, serve_tables,
                                        np.random.default_rng(0))
                  for task in ("nli", "imputation", "coltype")}
    server = make_http_server(InferenceEngine(predictors, ServeConfig()),
                              ServerConfig(port=0))
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    yield server
    server.shutdown()
    server.server_close()
    worker.join()


def _inline_table(table):
    return {"header": table.header,
            "rows": [[cell.text() for cell in row] for row in table.rows[:3]]}


def _raw_post(server, headers: str, body: bytes = b""):
    """POST with hand-written headers; returns ``(status, envelope,
    Connection header)``."""
    with socket.create_connection(("127.0.0.1", server.server_address[1]),
                                  timeout=60) as sock:
        sock.sendall(f"POST /v1/predict HTTP/1.1\r\nHost: x\r\n{headers}"
                     "\r\n".encode("latin-1") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return (response.status, json.loads(response.read()),
                response.getheader("Connection"))


def _post(server, payload):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=60)
    try:
        connection.request("POST", "/v1/predict", body=json.dumps(payload))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _assert_bad_request(status, envelope):
    assert status == 400
    assert envelope["error"]["code"] == "bad_request"
    assert envelope["error"]["retryable"] is False


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", "+3", "²",
                                       str(2**40)])
    def test_malformed_or_negative_answers_400(self, server, value):
        status, envelope, connection = _raw_post(
            server, f"Content-Length: {value}\r\n")
        _assert_bad_request(status, envelope)
        assert "Content-Length" in envelope["error"]["message"]
        # The body's extent is unknown, so the server closes the socket
        # and says so: a keep-alive client must not reuse it.
        assert connection == "close"

    @pytest.mark.parametrize("body", [b"\xff\xfe\x00", b"[" * 100_000])
    def test_undecodable_body_answers_400(self, server, body):
        status, envelope, connection = _raw_post(
            server, f"Content-Length: {len(body)}\r\n", body)
        _assert_bad_request(status, envelope)
        assert connection is None             # still keep-alive


class TestFieldCoercion:
    @pytest.mark.parametrize("payload", [
        {"task": "imputation", "row": "abc", "column": 0},
        {"task": "imputation", "row": 0, "column": "x"},
        {"task": "imputation", "row": 0.5, "column": 0},
        {"task": "imputation", "row": True, "column": 0},
        {"task": "coltype", "column": "x"},
        {"task": "coltype", "column": [0]},
        {"task": "coltype", "column": None},
    ])
    def test_non_integer_cell_fields_answer_400(self, server, serve_tables,
                                                payload):
        payload = {**payload, "table": _inline_table(serve_tables[0])}
        status, envelope = _post(server, payload)
        _assert_bad_request(status, envelope)

    def test_integer_strings_still_accepted(self, server, serve_tables):
        status, body = _post(server, {
            "task": "coltype", "column": "0",
            "table": _inline_table(serve_tables[0])})
        assert status == 200 and body["task"] == "coltype"

    def test_non_list_rows_answer_400(self, server):
        status, envelope = _post(server, {
            "task": "nli", "statement": "s",
            "table": {"header": ["a"], "rows": [1, 2]}})
        _assert_bad_request(status, envelope)


@pytest.fixture
def table_file(tmp_path, serve_tables):
    path = tmp_path / "table.csv"
    save_table(serve_tables[0], path)
    return path


class TestNoFileReadsFromTheNetwork:
    @pytest.mark.parametrize("form", ["bare", "csv"])
    def test_path_tables_answer_400_without_opening(
            self, server, table_file, monkeypatch, form):
        touched = []
        monkeypatch.setattr(requests_module, "load_table",
                            lambda *a, **k: touched.append(a))
        monkeypatch.setattr(requests_module.Path, "is_file",
                            lambda self: touched.append(self) or True)
        table = str(table_file) if form == "bare" \
            else {"csv": str(table_file)}
        status, envelope = _post(server, {"task": "nli", "statement": "s",
                                          "table": table})
        _assert_bad_request(status, envelope)
        assert "inline" in envelope["error"]["message"]
        assert touched == []

    def test_local_predict_still_reads_path_tables(self, tmp_path,
                                                   table_file, serve_tables):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for table in serve_tables[:4]:
            save_table(table, corpus / f"{table.table_id}.csv")
        requests = [
            {"task": "nli", "statement": "s", "table": str(table_file)},
            {"task": "nli", "statement": "s",
             "table": {"csv": str(table_file)}},
        ]
        request_path = tmp_path / "requests.jsonl"
        request_path.write_text(
            "\n".join(json.dumps(r) for r in requests) + "\n")
        out_path = tmp_path / "responses.jsonl"
        assert main(["predict", str(request_path), str(corpus),
                     "--model", "bert", "--out", str(out_path)]) == 0
        responses = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert [r["task"] for r in responses] == ["nli", "nli"]
        assert responses[0]["label"] == responses[1]["label"]

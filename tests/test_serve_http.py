"""The minimal HTTP/1.1 layer (repro.serve.http)."""

import asyncio
import json

import pytest

from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    BadRequest,
    HttpRequest,
    json_body,
    read_request,
    render_response,
)
from tests.http_client import parse_response


def parse(data: bytes):
    """Run read_request over an in-memory stream."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


def request_bytes(method="POST", path="/price", headers=(),
                  body=b'{"app": "dc"}'):
    lines = [f"{method} {path} HTTP/1.1", "Host: t",
             f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class TestReadRequest:
    def test_roundtrip_post(self):
        request = parse(request_bytes())
        assert request.method == "POST"
        assert request.path == "/price"
        assert request.headers["host"] == "t"
        assert request.json() == {"app": "dc"}
        assert request.keep_alive  # HTTP/1.1 default

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_query_string_is_stripped_from_path(self):
        request = parse(request_bytes(method="GET", path="/stats?x=1",
                                      body=b""))
        assert request.path == "/stats"

    def test_connection_close_disables_keep_alive(self):
        request = parse(request_bytes(headers=["Connection: close"]))
        assert not request.keep_alive

    @pytest.mark.parametrize("version,headers,expected", [
        ("HTTP/1.1", [], True),
        ("HTTP/1.1", ["Connection: close"], False),
        ("HTTP/1.1", ["Connection: keep-alive"], True),
        ("HTTP/1.0", [], False),  # 1.0 defaults to close
        ("HTTP/1.0", ["Connection: close"], False),
        ("HTTP/1.0", ["Connection: keep-alive"], True),
        ("HTTP/1.0", ["Connection: Keep-Alive"], True),
    ])
    def test_keep_alive_matrix(self, version, headers, expected):
        lines = ["GET /healthz " + version, "Host: t", *headers]
        request = parse(("\r\n".join(lines) + "\r\n\r\n").encode())
        assert request.version == version
        assert request.keep_alive is expected

    def test_duplicate_content_length_is_400(self):
        raw = (b"POST /price HTTP/1.1\r\nHost: t\r\n"
               b"Content-Length: 5\r\nContent-Length: 50\r\n\r\nhello")
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert info.value.status == 400
        assert "duplicate Content-Length" in str(info.value)

    def test_duplicate_content_length_same_value_still_400(self):
        raw = (b"POST /price HTTP/1.1\r\nHost: t\r\n"
               b"Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
        with pytest.raises(BadRequest):
            parse(raw)

    def test_other_duplicate_headers_are_comma_joined(self):
        request = parse(request_bytes(
            headers=["X-Tag: one", "X-Tag: two"]))
        assert request.headers["x-tag"] == "one, two"

    def test_content_length_with_transfer_encoding_is_400(self):
        raw = (b"POST /price HTTP/1.1\r\nHost: t\r\n"
               b"Content-Length: 5\r\n"
               b"Transfer-Encoding: chunked\r\n\r\nhello")
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert "chunked" in str(info.value)

    def test_pipelined_requests_parse_sequentially(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(request_bytes(path="/a")
                             + request_bytes(path="/b"))
            reader.feed_eof()
            first = await read_request(reader)
            second = await read_request(reader)
            third = await read_request(reader)
            return first, second, third
        first, second, third = asyncio.run(go())
        assert (first.path, second.path) == ("/a", "/b")
        assert third is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(BadRequest) as info:
            parse(b"GARBAGE\r\n\r\n")
        assert info.value.status == 400

    def test_unknown_method_is_405(self):
        with pytest.raises(BadRequest) as info:
            parse(request_bytes(method="BREW", body=b""))
        assert info.value.status == 405

    def test_unsupported_protocol_is_400(self):
        with pytest.raises(BadRequest):
            parse(b"GET / SPDY/3\r\n\r\n")

    def test_malformed_header_is_400(self):
        with pytest.raises(BadRequest):
            parse(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n")

    def test_header_flood_is_400(self):
        headers = [f"X-{i}: v" for i in range(MAX_HEADERS + 1)]
        with pytest.raises(BadRequest) as info:
            parse(request_bytes(method="GET", headers=headers, body=b""))
        assert "too many headers" in str(info.value)

    def test_oversized_body_is_413(self):
        raw = (b"POST /price HTTP/1.1\r\nContent-Length: "
               + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n")
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert info.value.status == 413

    @pytest.mark.parametrize("length", ["-5", "many"])
    def test_bad_content_length_is_400(self, length):
        raw = (f"POST /price HTTP/1.1\r\nContent-Length: {length}"
               f"\r\n\r\n").encode()
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert info.value.status == 400

    def test_truncated_body_is_400(self):
        raw = b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert "truncated" in str(info.value)

    @pytest.mark.parametrize("raw", [
        b"GET /stats HTTP/1.1\r\n",
        b"GET /stats HTTP/1.1\r\nHost: x\r\n",
    ])
    def test_eof_inside_header_block_is_400(self, raw):
        # Only EOF before the request line is a clean close; a header
        # block the client never finished is not a complete request.
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert info.value.status == 400
        assert "truncated" in str(info.value)

    def test_chunked_bodies_rejected(self):
        raw = (b"POST /p HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n")
        with pytest.raises(BadRequest) as info:
            parse(raw)
        assert "chunked" in str(info.value)


class TestJsonBody:
    def test_empty_body_is_400(self):
        with pytest.raises(BadRequest):
            HttpRequest("POST", "/price").json()

    def test_undecodable_body_is_400(self):
        request = HttpRequest("POST", "/price", body=b"{not json")
        with pytest.raises(BadRequest) as info:
            request.json()
        assert "invalid JSON body" in str(info.value)


class TestResponses:
    def test_render_parse_roundtrip(self):
        body = json_body({"x": 1})
        raw = render_response(200, body, keep_alive=False)
        status, headers, parsed = parse_response(raw)
        assert status == 200
        assert headers["connection"] == "close"
        assert headers["content-length"] == str(len(body))
        assert json.loads(parsed) == {"x": 1}

    def test_parse_response_rejects_truncation(self):
        raw = render_response(200, json_body({"x": 1}))
        with pytest.raises(ValueError):
            parse_response(raw[:10])  # no header terminator
        with pytest.raises(ValueError):
            parse_response(raw[:-2])  # short body

    def test_unknown_status_still_renders(self):
        raw = render_response(418, b"{}")
        status, _headers, _body = parse_response(raw)
        assert status == 418

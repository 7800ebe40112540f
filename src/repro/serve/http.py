"""Minimal HTTP/1.1 layer over asyncio streams — stdlib only.

The serve front end speaks just enough HTTP for JSON request/response
traffic: request-line + headers + ``Content-Length`` bodies in,
``Content-Length``-framed responses out, with keep-alive connections
(``Connection: close`` honoured both ways).  No chunked encoding, no
TLS, no multipart — a reverse proxy owns those concerns in a real
deployment; the model server owns pricing.

Malformed input never raises past :func:`read_request`: every parse
failure is a :class:`BadRequest` carrying the status code and message
the caller turns into a JSON error body.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Request bodies past this size are refused with 413 (one JSON sweep
#: request is a few KiB; a megabyte means a confused client).
MAX_BODY_BYTES = 1 << 20

#: Request line / single header line ceiling.
MAX_LINE_BYTES = 8 << 10

#: Header count ceiling (defence against header floods).
MAX_HEADERS = 64

#: Methods the router understands at all.
KNOWN_METHODS = ("GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS")

#: Reason phrases for the statuses the server emits.
REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class BadRequest(Exception):
    """A protocol-level parse failure, mapped to an HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Connection persistence, per the request's protocol version.

        HTTP/1.0 connections close unless the client explicitly opted
        in with ``Connection: keep-alive``; HTTP/1.1 connections persist
        unless the client sent ``Connection: close``.
        """
        tokens = {token.strip() for token in
                  self.headers.get("connection", "").lower().split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens

    def json(self) -> object:
        """Decode the body as JSON (400 on undecodable bodies)."""
        if not self.body:
            raise BadRequest("request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc


async def _read_line(reader: asyncio.StreamReader,
                     first: bool = False) -> Optional[bytes]:
    """One CRLF-terminated line; ``None`` on EOF before a request line
    (``first``), which is a clean close between requests.  EOF anywhere
    after the request line truncates the request."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if first and not exc.partial:
            return None
        raise BadRequest("truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequest("request line too long", status=400) from exc
    if len(line) > MAX_LINE_BYTES:
        raise BadRequest("request line too long")
    return line[:-2]


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[HttpRequest]:
    """Parse one request, ``None`` on clean EOF, BadRequest otherwise."""
    start = await _read_line(reader, first=True)
    if not start:
        return None
    parts = start.decode("latin-1").split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line {start[:64]!r}")
    method, target, version = parts
    if method not in KNOWN_METHODS:
        raise BadRequest(f"unknown method {method!r}", status=405)
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")
    path = target.split("?", 1)[0]

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        if len(headers) >= MAX_HEADERS:
            raise BadRequest("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise BadRequest(f"malformed header line {line[:64]!r}")
        key = name.strip().lower()
        if key in headers:
            # Duplicate Content-Length is the request-smuggling shape:
            # two parsers disagreeing on which value frames the body.
            # Refuse outright rather than silently keeping either.
            if key == "content-length":
                raise BadRequest("duplicate Content-Length header")
            headers[key] = f"{headers[key]}, {value.strip()}"
        else:
            headers[key] = value.strip()

    if "transfer-encoding" in headers:
        # Never framed by Transfer-Encoding — and never alongside
        # Content-Length, where the two framings can disagree.
        raise BadRequest("chunked bodies are not supported")
    body = b""
    length_text = headers.get("content-length", "")
    if length_text:
        try:
            length = int(length_text)
        except ValueError:
            raise BadRequest(
                f"invalid Content-Length {length_text!r}") from None
        if length < 0:
            raise BadRequest(f"invalid Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit", status=413)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise BadRequest("truncated request body") from exc
    return HttpRequest(method=method, path=path, headers=headers,
                       body=body, version=version)


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Optional[Dict[str, str]] = None
                    ) -> bytes:
    """Serialize one Content-Length-framed HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True, default=str)
            + "\n").encode("utf-8")


async def write_json(writer: asyncio.StreamWriter, status: int,
                     payload: object, keep_alive: bool = True,
                     extra_headers: Optional[Dict[str, str]] = None
                     ) -> None:
    writer.write(render_response(status, json_body(payload),
                                 keep_alive=keep_alive,
                                 extra_headers=extra_headers))
    await writer.drain()

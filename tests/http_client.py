"""Client side of the HTTP layer, for the serve tests.

:func:`parse_response` reads back what :mod:`repro.serve.http` renders.
"""

from typing import Dict, Tuple


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """Parse a full response buffer.

    Returns ``(status, headers, body)``; raises ValueError on anything
    that is not one complete Content-Length-framed response.
    """
    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("incomplete response: no header terminator")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line {lines[0]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", len(rest)))
    if len(rest) < length:
        raise ValueError("incomplete response body")
    return status, headers, rest[:length]

"""The HTTP/1.1 header-block rule (RFC 9112 §5 and §6) by which the remote
client reads responses and scripts/serve_synthetic.py reads requests, with
no I/O of its own. README "Remote backends" states it for users.
"""

from http import HTTPStatus
from http.client import HTTPException

MAX_LINE = 65536  # bytes in one line, its line ending included
MAX_HEADERS = 100
_MAX_DIGITS = 18  # so every length fits in 63 bits


class FramingError(HTTPException):
    """A header block that frames no message; `status` is a server's reply to it."""

    def __init__(self, status: HTTPStatus, reason: str):
        super().__init__(reason)
        self.status = status


def framing(next_line) -> tuple[int | None, bool, bool]:
    """Read a header block from `next_line()`, which returns each line
    without its line ending, up to and including the blank line that ends
    it: (Content-Length or None, chunked, Connection: close)."""
    length, chunked, close = None, False, False
    for _ in range(MAX_HEADERS + 1):
        line = next_line()
        if not line:
            if chunked and length is not None:
                raise FramingError(HTTPStatus.NOT_IMPLEMENTED, "both Content-Length and chunked framing")
            return length, chunked, close
        name, colon, value = line.partition(b":")
        if not colon or not name or name.strip() != name:
            raise FramingError(HTTPStatus.BAD_REQUEST, f"bad header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        if name == b"content-length":
            if length is not None or not value.isdigit():
                raise FramingError(HTTPStatus.BAD_REQUEST, f"bad Content-Length {value[:80]!r}")
            if len(value) > _MAX_DIGITS:
                raise FramingError(HTTPStatus.REQUEST_ENTITY_TOO_LARGE, f"Content-Length of {len(value)} digits")
            length = int(value)
        elif name == b"transfer-encoding":
            if chunked or value.lower() != b"chunked":
                raise FramingError(HTTPStatus.NOT_IMPLEMENTED, f"unsupported Transfer-Encoding {value[:80]!r}")
            chunked = True
        elif name == b"connection":
            close = close or b"close" in [token.strip() for token in value.lower().split(b",")]
    raise FramingError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, f"more than {MAX_HEADERS} headers")

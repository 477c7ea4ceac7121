"""HTTP/1.1 framing shared by the serving client and server.

Both serving hops speak a strict subset of HTTP/1.1: a request line or
status line, at most :data:`MAX_HEADER_LINES` header lines of at most
:data:`MAX_LINE_BYTES` each, and a body framed by ``Content-Length``
alone — no chunked transfer coding on either side. This module holds
what the two sides share: the limits and the header-field parser.
"""

from __future__ import annotations

from typing import Optional

#: Largest JSON body either side sends or accepts (a liveness guard, not
#: a quota). The client refuses a larger payload before sending a byte.
MAX_BODY_BYTES = 1 << 20

#: Header lines per message; a request with more is answered 431.
MAX_HEADER_LINES = 100

#: Bytes per header line, line ending included.
MAX_LINE_BYTES = 1 << 16


class Headers(dict):
    """Header fields keyed by lower-cased name; lookups ignore case.

    A repeated field is folded into one comma-separated value, as
    RFC 9110 §5.3 allows for list-valued fields.
    """

    def get(  # type: ignore[override]
        self, name: str, default: Optional[str] = None
    ) -> Optional[str]:
        return dict.get(self, name.lower(), default)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and dict.__contains__(self, name.lower())

    def add_line(self, line: bytes) -> bool:
        """Add one ``name: value`` line; ``False`` if it has no colon."""
        name, colon, value = line.partition(b":")
        if not colon:
            return False
        key = name.strip().decode("latin-1").lower()
        text = value.strip().decode("latin-1")
        previous = dict.get(self, key)
        dict.__setitem__(
            self, key, text if previous is None else f"{previous}, {text}"
        )
        return True

    def content_length(self) -> Optional[int]:
        """The declared body length, or ``None`` when none is declared.

        Raises :class:`ValueError` for a value that is not a plain
        decimal, and for repeated fields that disagree.
        """
        declared = dict.get(self, "content-length")
        if declared is None:
            return None
        values = {value.strip() for value in declared.split(",")}
        if len(values) != 1:
            raise ValueError(f"conflicting Content-Length {declared!r}")
        (value,) = values
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"malformed Content-Length {declared!r}")
        return int(value)

    def has_token(self, name: str, token: str) -> bool:
        """Whether the comma-separated field ``name`` lists ``token``."""
        value = dict.get(self, name.lower())
        if value is None:
            return False
        return token in (part.strip().lower() for part in value.split(","))

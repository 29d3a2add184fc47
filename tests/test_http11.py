"""The HTTP/1.1 header-block rule: a property test of framing() over
generated header blocks, and a guard that no other module under
src/spec_funnel/ or scripts/ holds a second copy of the rule."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spec_funnel.backends.http11 import MAX_HEADERS, FramingError, framing

ROOT = Path(__file__).resolve().parents[1]
FRAMING_HEADERS = {"content-length", "transfer-encoding", "connection"}
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "spec_funnel").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    if path.name != "http11.py"
)

NAMES = [b"Content-Length", b"content-length", b"Transfer-Encoding", b"TRANSFER-ENCODING", b"Connection", b"Host", b""]
VALUES = [
    b"0", b"12", b"007", b"9" * 18, b"9" * 19, b"-1", b"+5", b"0x10", b"1 2", b"", b"\t12 ",
    b"chunked", b"Chunked", b"gzip", b"chunked, gzip", b"close", b"keep-alive, Close",
]  # fmt: skip
header_lines = st.builds(
    lambda lead, name, gap, value: lead + name + gap + b":" + value,
    st.sampled_from([b"", b" ", b"\t"]),
    st.sampled_from(NAMES),
    st.sampled_from([b"", b" "]),
    st.one_of(st.sampled_from(VALUES), st.sampled_from(VALUES).map(lambda v: b" " + v)),
)
# readers hand framing() each line without its line ending, so no line holds a LF
lines = st.one_of(header_lines, st.binary(max_size=20).map(lambda raw: raw.replace(b"\n", b"")))
blocks = st.builds(
    lambda padding, block: [b"X-Pad: 1"] * padding + block,
    st.sampled_from([0, MAX_HEADERS - 2, MAX_HEADERS]),
    st.lists(lines, max_size=8),
)


@settings(max_examples=500, deadline=None)
@given(block=blocks)
def test_framing_reads_one_block_and_fails_only_with_a_status(block):
    sent = [*block, b"", b"Content-Length: 1", b""]  # what follows the block must stay unread
    end = sent.index(b"") + 1
    read = []

    def next_line():
        read.append(sent[len(read)])
        return read[-1]

    try:
        length, _, _ = framing(next_line)
    except FramingError as exc:
        assert exc.status in (400, 413, 431, 501)
        assert len(read) <= end
        return
    assert len(read) == end
    values = [
        value for name, _, value in (line.partition(b":") for line in read) if name.lower() == b"content-length"
    ]
    if length is None:
        assert values == []
    else:
        assert len(values) == 1 and int(values[0]) == length


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for leaf in ast.walk(node):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, (str, bytes)):
                    text = leaf.value if isinstance(leaf.value, str) else leaf.value.decode("latin-1")
                    if text.strip().lower() in FRAMING_HEADERS:
                        yield f"line {node.lineno}: compares with {leaf.value!r}"


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"remote.py", "serve_synthetic.py", "cli.py"}


def test_guard_sees_a_header_loop():
    tree = ast.parse('if name.lower() == b"Content-Length": pass\nelif name in ("connection",): pass')
    assert len(list(_violations(tree))) == 2


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_header_rule_outside_http11(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_violations(tree)) == []

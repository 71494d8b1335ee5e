"""The python examples of README.md run, in order and in one namespace,
and each `print(...)  # value` line of them prints value."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    """The bodies of the ```python blocks of a markdown text."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def expected_prints(block: str) -> list[str]:
    """The value commented after each print(...) line of a block."""
    return re.findall(r"^print\(.*\)\s+#\s*(.*?)\s*$", block, re.M)


def test_scan_finds_blocks_and_printed_values():
    text = ("# t\n```python\nx = 1  # one\nprint(x)   # 1\n```\n\n```sh\nprint(2)  # 2\n```\n"
            "```python\nprint((x, 2))  # (1, 2)\n```\n")
    blocks = python_blocks(text)
    assert blocks == ["x = 1  # one\nprint(x)   # 1\n", "print((x, 2))  # (1, 2)\n"]
    assert [expected_prints(b) for b in blocks] == [["1"], ["(1, 2)"]]


def test_readme_examples_print_their_comments():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected_prints(block)

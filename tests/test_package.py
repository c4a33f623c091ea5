"""The package namespace and its documentation: every exported name resolves."""

import re
from pathlib import Path

import pqlucas

README = Path(__file__).parent.parent / "README.md"


def test_all_names_resolve():
    missing = [name for name in pqlucas.__all__ if not hasattr(pqlucas, name)]
    assert missing == []


def test_readme_python_examples_run():
    # a doc example that names deleted API fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})

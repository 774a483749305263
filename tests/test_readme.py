"""README.md's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the second block reads the first block's sample
    assert namespace["est"].value == pytest.approx(0.39894, abs=0.05)
    assert namespace["est"].std_error > 0

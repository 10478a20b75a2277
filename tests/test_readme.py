"""Every ``python`` code block of README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write relative paths
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})

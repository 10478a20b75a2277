"""Every ``python`` code block of README.md runs as written, every
command line of its "Command line" section parses, and the config block of
its "Configuration format" section builds."""
import re
import shlex
from pathlib import Path

import pytest

from timecloak.cli import _build_parser
from timecloak.config import build_experiment_config, load_config_file

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SHELL = re.search(r"^## Command line\n\n```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)
CONFIG = re.search(r"^## Configuration format\n.*?^```\n(.*?)^```", TEXT, re.M | re.S).group(1)
COMMANDS = [words for line in SHELL.splitlines() if (words := shlex.split(line, comments=True))]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write relative paths
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("words", COMMANDS, ids=[" ".join(w[:2]) for w in COMMANDS])
def test_command_line_parses(words):
    assert words[0] == "timecloak"
    _build_parser().parse_args(words[1:])  # argparse exits on an unknown option


def test_config_block_builds(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    config = build_experiment_config(load_config_file(path))
    assert config.n_steps == 2000
    assert config.hop2.delay_forward_ns == 60.0

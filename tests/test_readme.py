"""The README's examples run as written: every fenced python block executes,
and every fenced ini block loads through load_config."""

import pathlib
import re

import pytest

from igeolab.config import load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
INI = [body for lang, body in BLOCKS if lang == "ini"]


def test_readme_has_examples():
    assert PYTHON and INI


@pytest.mark.parametrize("body", PYTHON,
                         ids=[f"python-{i}" for i in range(len(PYTHON))])
def test_readme_python_block_runs(body):
    exec(compile(body, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("body", INI,
                         ids=[f"ini-{i}" for i in range(len(INI))])
def test_readme_ini_block_loads(body, tmp_path):
    path = tmp_path / "suite.ini"
    path.write_text(body)
    assert load_config(str(path)).checks

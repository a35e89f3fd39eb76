"""The README's examples run as written: every fenced python block executes,
and every fenced ini block loads through load_config.  The Layout block
names only modules that exist, and only constants and private helpers that
its modules define."""

import importlib
import pathlib
import re

import pytest

from igeolab.config import load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
INI = [body for lang, body in BLOCKS if lang == "ini"]
LAYOUT = re.search(r"^## Layout\n\n```\n(.*?)^```", README.read_text(),
                   re.MULTILINE | re.DOTALL).group(1)
# (module, text) of each src/igeolab/ entry, continuation lines included
ENTRIES = re.findall(r"^  (\w+)\.py +(.*?)(?=^  \w+\.py |^\S|\Z)", LAYOUT,
                     re.MULTILINE | re.DOTALL)
# an UPPER_SNAKE constant or a _private name, bare or as module.name
NAME = re.compile(r"(?<![\w.])(?:(\w+)\.)?"
                  r"(_[a-z]\w*|[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)\b")


def test_readme_has_examples():
    assert PYTHON and INI and ENTRIES


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


@pytest.mark.parametrize("module,text", ENTRIES,
                         ids=[module for module, _ in ENTRIES])
def test_readme_layout_names_exist(module, text):
    importlib.import_module(f"igeolab.{module}")
    for owner, name in NAME.findall(text):
        owner = owner or module
        assert hasattr(importlib.import_module(f"igeolab.{owner}"), name), \
            f"the {module}.py entry names {owner}.{name}"

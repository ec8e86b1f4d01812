"""The documented public surface: every README example runs as written, and
every name cldp exports resolves."""

import pathlib
import re

import pytest

import cldp

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
# "print(x)  # y": the example promises that x prints as y.
PROMISE = re.compile(r"^print\(.*\)[ \t]+# (.*)$", re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs_and_prints_what_it_says(tmp_path, monkeypatch, capsys, index):
    monkeypatch.chdir(tmp_path)  # examples may write files
    code = compile(BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "__main__"})
    assert capsys.readouterr().out.splitlines() == PROMISE.findall(BLOCKS[index])


def test_all_names_resolve_once():
    assert len(cldp.__all__) == len(set(cldp.__all__))
    assert [name for name in cldp.__all__ if not hasattr(cldp, name)] == []

"""The README's library sketch runs, and the names it and the package export
list resolve."""

import importlib.util
import re
from pathlib import Path

import compbss as cb

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    assert [name for name in cb.__all__ if not hasattr(cb, name)] == []


def test_dotted_names_in_the_readme_resolve():
    """``compbss.x``, ``cb.x`` and ``<module>.x`` in backticks name real objects."""
    modules = {"compbss": cb, "cb": cb}
    dotted = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)", README))
    missing = []
    for name in sorted(dotted):
        head, *attrs = name.split(".")
        if head in modules:
            obj = modules[head]
        elif importlib.util.find_spec(f"compbss.{head}"):
            obj = importlib.import_module(f"compbss.{head}")
        else:
            continue    # a file name such as bench/run.py
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert dotted and missing == []

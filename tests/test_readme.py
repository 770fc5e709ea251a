"""The Python examples of README.md run as written, and its signature list
matches the code."""

import ast
import functools
import inspect
import re
from pathlib import Path

import cayley4

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "readme"})


def _readme_signatures() -> list[tuple[str, str]]:
    """(name, parameter text) of each entry of the "The signatures are" list."""
    text = README.read_text()
    start = text.index("The signatures are")
    listing = text[start:text.index("`.", start) + 1]
    return re.findall(r"`([\w.]+)\(([^`]*)\)`", listing)


def test_readme_signature_list_matches_the_code():
    entries = _readme_signatures()
    assert len(entries) >= 10
    for name, params in entries:
        documented = []
        for param in filter(None, params.replace(" ", "").split(",")):
            pname, eq, default = param.partition("=")
            documented.append((pname, ast.literal_eval(default)) if eq else (pname,))
        target = functools.reduce(getattr, name.split("."), cayley4)
        actual = [(p.name,) if p.default is p.empty else (p.name, p.default)
                  for p in inspect.signature(target).parameters.values() if p.name != "self"]
        assert documented == actual, name


def test_builtin_table_matches_the_code():
    table_of_code = cayley4.patches.BUILTIN_PATCHES
    text = README.read_text()
    start = text.index("## Built-in patches")
    table = text[start:text.index("\n\n", text.index("|", start))]
    rows = re.findall(r"^\| `([\w-]+)` \| ([\w-]+) \| (.*) \|$", table, flags=re.M)
    assert sorted(name for name, _, _ in rows) == sorted(table_of_code)
    for name, chart, description in rows:
        _, default_chart, _, _, shapes = table_of_code[name]
        assert chart == default_chart, name
        for param in shapes:
            assert f"`{param}`" in description, (name, param)

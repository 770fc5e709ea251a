"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "readme"})

"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# the examples' ensembles have 10,000 members; 1,000 run the same code in a
# tenth of the time
SHRINK = {"10000": "1000"}


def python_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace = {}
    for i, block in enumerate(blocks):
        for old, new in SHRINK.items():
            block = block.replace(old, new)
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(3001, 1000, 1)"
    assert out[-1] == "effective"
    assert namespace["kept"].times.tolist() == [0.0, 1.5, 3.0]

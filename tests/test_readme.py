"""The README quick tour runs unchanged and prints both of its lines."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_unchanged(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"\d+\.\d\d% at 90% sparsity, keep per layer \(.+\)", lines[0])
    assert re.fullmatch(r"corrupted-data gap: [+-]\d+\.\d\d pts", lines[1])

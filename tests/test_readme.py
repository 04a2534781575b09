import re
from pathlib import Path


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    initial, arrow, final = capsys.readouterr().out.split()
    assert arrow == "->" and float(final) > float(initial)

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_prints_what_it_shows(capsys):
    # the python block's print lines, each followed by its output as a comment
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = block.splitlines()
    shown = [nxt for line, nxt in zip(lines, lines[1:]) if line.startswith("print(")]
    assert len(shown) == 2
    exec(compile(block, str(README), "exec"), {})
    assert ["# " + line for line in capsys.readouterr().out.splitlines()] == shown

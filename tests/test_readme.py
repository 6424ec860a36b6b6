"""Every ```python block of README.md runs as written, each in a fresh
namespace, so a change to the library API cannot leave its examples stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_library_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    code = compile(BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "__main__"})
    assert capsys.readouterr().out  # every example prints its result

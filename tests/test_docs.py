"""The examples in the docs run: module doctests and README's quickstart."""

import doctest
import re
from pathlib import Path

import pytest

from coxstat import groups, limits, rootsys

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [groups, limits, rootsys], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def _python_blocks(text):
    """Bodies of the fenced python blocks, without their fences (plain
    doctest.testfile would read a closing fence as expected output)."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_python_examples():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks, start=1):
        runner.run(parser.get_doctest(block, {}, f"README python block {i}",
                                      str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0

"""The examples in the documentation run as written: the package
docstring's doctest and the README's "Library" code blocks."""

import doctest
import re
from pathlib import Path

import tccp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_doctest_and_readme_library_examples(capsys):
    failed, attempted = doctest.testmod(tccp)
    assert (failed, attempted > 0) == (0, True)
    library = README.read_text().split("## Library")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["final"].status == "quiescent"
    assert capsys.readouterr().out.splitlines()[0] == (
        "0 running [] ('p(Y)',)")

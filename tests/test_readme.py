"""The README's code runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_block_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})

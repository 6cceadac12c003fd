import re
from pathlib import Path

import anharm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # The blocks build on one another, as a reader would run them in order.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_public_names_resolve():
    for name in anharm.__all__:
        assert getattr(anharm, name) is not None, name

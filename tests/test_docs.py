import re
from pathlib import Path

import anharm
from anharm.cli import _OPTIONS

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


def test_readme_config_table_matches_the_cli():
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)` \|$", README.read_text(), re.MULTILINE)
    assert rows == [(key, flag) for key, flag, *_ in _OPTIONS]

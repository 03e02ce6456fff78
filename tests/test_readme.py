"""README's quickstart block is real code: it runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_block_runs(capsys):
    """The block builds a scale-0.01 database; it runs here at 0.002."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block"
    source = block.group(1)
    assert "scale=0.01" in source
    namespace = {}
    source = source.replace("scale=0.01", "scale=0.002")
    exec(compile(source, str(README), "exec"), namespace)
    assert namespace["result"].stop_reason
    assert "created:" in capsys.readouterr().out

"""The README's library quickstart runs as written, with fewer epochs, so its
imports and the package namespace cannot drift apart."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "epochs=40" in code
    namespace = {}
    exec(code.replace("epochs=40", "epochs=1"), namespace)
    assert namespace["images"].data.shape == (200, 12, 64)
    assert len(namespace["labels"]) == 200 and len(namespace["history"]) == 1

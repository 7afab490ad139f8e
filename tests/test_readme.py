"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    # The example is the first python block after the "Library example"
    # heading; if the public API loses a name it uses, this fails.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    assert namespace["code"].n_servers == 18
    assert (namespace["plan"].field.p, namespace["plan"].generator) == (397, 2)

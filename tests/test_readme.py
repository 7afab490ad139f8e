"""The README's library example and CLI examples run as documented."""

import re
import shlex
from pathlib import Path

from gasp import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang):
    # The first fenced block of the given language after a heading.
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    # If the public API loses a name the example uses, this fails.
    namespace = {}
    exec(compile(_block("## Library example", "python"), str(README), "exec"), namespace)
    assert namespace["code"].n_servers == 18
    assert (namespace["plan"].field.p, namespace["plan"].generator) == (397, 2)


def test_readme_cli_examples(tmp_path, capsys):
    # Every `gasp ...` line runs with its documented outcome: exit 1 for the
    # line whose comment says it must fail, 0 for the rest.  Output files go
    # to tmp_path instead of the working directory.
    lines = [line for line in _block("## CLI", "sh").splitlines() if line.startswith("gasp ")]
    assert len(lines) == 11
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        expected = 1 if "--zero-masks" in argv else 0
        assert cli.main(argv) == expected, line
        capsys.readouterr()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["grouped36.csv", "rates.csv"]

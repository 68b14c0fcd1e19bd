"""The README's library example runs against the package as it is, and
its list of ``fit`` options is the parser's."""

import re
from pathlib import Path

from scgarch import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})


def test_fit_options_sentence_names_every_option():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"`fit` writes .*?Its options are (.*?)\.\s", text).group(1)
    named = set(re.findall(r"`(--[a-z-]+)`", sentence))
    fit = cli.build_parser()[1]["fit"]
    flags = {flag for action in fit._actions for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"}
    assert named == flags

"""The README's library example runs against the package as it is, its
command lines parse, and its list of ``fit`` options is the parser's."""

import importlib.util
import os
import re
import shlex
from pathlib import Path

import pytest

from scgarch import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SIM1_SCRIPT = "scripts/sim1_consistency.py"


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


def bash_commands(*program):
    """The arguments of each line of the README's bash blocks that runs
    ``program``."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.splitlines()]
    return [words[len(program):] for words in lines if tuple(words[:len(program)]) == program]


def test_command_lines_parse(monkeypatch):
    spec = importlib.util.spec_from_file_location("sim1_consistency", ROOT / SIM1_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    scgarch_lines = bash_commands("scgarch")
    script_lines = bash_commands("python3", SIM1_SCRIPT)
    assert scgarch_lines and script_lines
    cpus = os.cpu_count() or 1
    for parser, argv in ([(cli.build_parser()[0], argv) for argv in scgarch_lines]
                         + [(script.build_parser(), argv) for argv in script_lines]):
        # A README line may ask for more worker processes than this host has.
        jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, jobs))
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")

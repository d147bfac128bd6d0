"""README's examples run: the Library block, and each one-line CLI example."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def cli_examples():
    """(argv, stdin) of each `spernerfix ...` line of the sh blocks; `echo ... |`
    feeds its text to stdin, and a line that redirects from a file is left out."""
    examples = []
    for line in "".join(blocks("sh")).splitlines():
        words = shlex.split(line, comments=True)
        stdin = None
        if words[:1] == ["echo"] and "|" in words:
            bar = words.index("|")
            stdin, words = " ".join(words[1:bar]) + "\n", words[bar + 1 :]
        if words[:1] == ["spernerfix"] and "<" not in words:
            examples.append((words[1:], stdin))
    return examples


CLI_EXAMPLES = cli_examples()


def test_readme_has_the_examples():
    assert len(blocks("python")) == 1
    assert len(CLI_EXAMPLES) == 10
    assert (["solve", "-", "0", "1"], "1 - x\n") in CLI_EXAMPLES


def test_library_example_runs():
    exec(compile(blocks("python")[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv, stdin", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_cli_example_exits_0(argv, stdin):
    code, _, err = run_cli(argv, stdin)
    assert code == 0, err

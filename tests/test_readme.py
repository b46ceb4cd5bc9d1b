"""The README's python quickstart and command-line examples run, and print
what the README says; every command-line option is named in its
subcommand's section, and every ``selfcheck`` property in that command's
section.

A documented output line is a ``# …`` comment at the end of a ``print``
line, or a run of comment lines directly below one.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

from intonsem import cli

ROOT = Path(__file__).resolve().parent.parent


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _documented(code: str) -> list[str]:
    expected, after_print = [], False
    for line in code.splitlines():
        stripped = line.strip()
        if stripped.startswith("print("):
            after_print = True
            if "  # " in line:
                expected.append(line.split("  # ", 1)[1].strip())
        elif after_print and stripped.startswith("# "):
            expected.append(stripped[2:])
        else:
            after_print = False
    return expected


def test_quickstart_prints_what_the_readme_documents(monkeypatch):
    code = _quickstart()
    expected = _documented(code)
    assert len(expected) >= 3  # reduce, compose and meaning
    monkeypatch.chdir(ROOT)  # the quickstart names the lexicon by a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = iter(out.getvalue().splitlines())
    for line in expected:
        # in order: each documented line is printed after the previous one
        assert any(got.strip() == line for got in printed), f"README documents {line!r}"


def _command_line() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _command_sections() -> dict[str, str]:
    return {c.split("\n", 1)[0].strip(): c for c in _command_line().split("\n### ")[1:]}


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``intonsem`` command of a ``sh`` block and the output lines it
    documents: the ``# …`` comment lines below it and, for a command that
    passes ``--format json``, a ``json`` block right after its ``sh`` block."""
    examples = []
    blocks = list(re.finditer(r"```(\w+)\n(.*?)```", _command_line(), re.S))
    for block, following in zip(blocks, blocks[1:] + [None]):
        if block.group(1) != "sh":
            continue
        for line in block.group(2).replace("\\\n", " ").splitlines():
            if line.startswith("intonsem "):
                examples.append((line, []))
            elif line.startswith("# "):
                examples[-1][1].append(line[2:])
        adjacent = following and not block.string[block.end():following.start()].strip()
        if adjacent and following.group(1) == "json" and "--format json" in examples[-1][0]:
            examples[-1][1].extend(following.group(2).splitlines())
    return examples


def test_command_line_examples_print_what_the_readme_documents(monkeypatch, capsys):
    examples = _cli_examples()
    assert len(examples) >= 8  # reduce, four meanings, compare, truth and selfcheck
    monkeypatch.chdir(ROOT)  # the examples name data files by relative paths
    for command, expected in examples:
        code = cli.main(shlex.split(command)[1:])
        printed = iter(capsys.readouterr().out.splitlines())
        assert code == 0, command
        for line in expected:
            # in order; "..." in a documented line stands for anything
            pattern = re.compile(re.escape(line).replace(r"\.\.\.", ".*"))
            assert any(pattern.fullmatch(got) for got in printed), f"{command}: {line!r}"


def test_every_cli_option_is_documented():
    sections = _command_sections()
    (commands,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands.choices) == set(sections)
    missing = [
        f"{name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help") and option not in sections[name]
    ]
    assert missing == []


def test_every_selfcheck_property_is_documented():
    section = _command_sections()["selfcheck"]
    assert [name for name, _ in cli._selfchecks() if name not in section] == []

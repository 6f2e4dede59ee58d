"""The README's examples, run as written: its CLI block and its library example."""

import ast
import shlex
from pathlib import Path

import pytest

from quotamaj.cli import OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> list[str]:
    """The lines of the first ```language block after the heading."""
    after = README[README.index(f"\n{heading}\n"):]
    start = after.index(f"```{language}\n") + len(f"```{language}\n")
    return after[start:after.index("```", start)].splitlines()


CLI_LINES = fenced_block("## CLI", "sh")
EXPECTED = [tuple(part.strip() for part in line.split("# -> ")) for line in CLI_LINES if "# -> " in line]


def test_the_readme_cli_block_is_nine_commands_five_with_their_output():
    assert len(CLI_LINES) == 9 and all(line.startswith("quotamaj ") for line in CLI_LINES)
    assert len(EXPECTED) == 5


@pytest.mark.parametrize("command, expected", EXPECTED, ids=[command for command, _ in EXPECTED])
def test_each_readme_cli_line_prints_its_stated_output(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == OK
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected + "\n", "")


def test_every_readme_cli_line_succeeds_on_the_worked_rule(layers, capsys, tmp_path, monkeypatch):
    # `rule.tbl` is the table of the worked rule, (5,2,12) at n=11
    monkeypatch.chdir(tmp_path)
    Path(layers.worked_table(tmp_path)).rename("rule.tbl")
    for line in CLI_LINES:
        assert main(shlex.split(line, comments=True)[1:]) == OK, line
        assert capsys.readouterr().err == "", line
    assert (tmp_path / "family.txt").stat().st_size > 0


def test_the_readme_library_example_gives_its_commented_reprs():
    lines = fenced_block("## Library example", "python")
    namespace = {}
    checked = []
    for statement in ast.parse("\n".join(lines)).body:
        if isinstance(statement, ast.Expr):
            comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            checked.append((repr(value), comment))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert len(checked) == 3
    assert [found for found, _ in checked] == [stated for _, stated in checked]

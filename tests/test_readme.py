"""The `$ wqokit …` examples of README's console blocks, run through cli.run.

Each example runs in a directory that holds every file the README shows
with `$ cat`, and its stdout and stderr together must be the lines shown
under it.
"""

import shlex
from pathlib import Path

import pytest

from wqokit.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

def _examples() -> tuple[dict, list]:
    """The files the README cats, and each (command, shown lines) it runs."""
    files, runs, shown, inside = {}, [], [], False
    for line in README.read_text().splitlines():
        if line.strip() in ("```console", "```"):
            inside = line.strip() == "```console"
        elif inside and line.startswith("$ "):
            shown = []
            command = line[2:]
            if command.startswith("cat "):
                files[command[4:].strip()] = shown
            else:
                runs.append((command, shown))
        elif inside:
            shown.append(line)
    return files, runs


FILES, RUNS = _examples()


def test_the_readme_has_examples():
    assert len(RUNS) >= 10 and {"F.up", "W.up", "net.txt"} <= set(FILES)


@pytest.mark.parametrize("command,shown", [
    pytest.param(command, shown, id=command) for command, shown in RUNS
])
def test_readme_example(command, shown, tmp_path, monkeypatch, capsys):
    for name, lines in FILES.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "wqokit"
    run(argv)
    out, err = capsys.readouterr()
    assert (out + err).splitlines() == shown

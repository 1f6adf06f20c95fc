"""The README's command-line examples, run as written.

Each ``casimir-slabs …`` line of the README's "Command line" block runs
through ``cli.main`` in an empty directory. Its stdout and every file it
writes must equal the bytes under ``tests/golden/readme/``: stdout as
``NN-<command>.out`` (NN is the example's position in the block), files
under their own names.
"""

import shlex
from pathlib import Path

import pytest

from casimir_slabs.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "readme"


def readme_commands():
    """The argv lists of the README's "Command line" block, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("casimir-slabs ")
    ]


def stdout_name(index, argv):
    return f"{index + 1:02d}-{argv[0]}.out"


def run_example(argv, workdir, capsys, monkeypatch):
    """Run one example in ``workdir``; return its exit code, stdout and
    the files it wrote, by name."""
    monkeypatch.chdir(workdir)
    code = main(list(argv))
    out = capsys.readouterr().out
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return code, out, files


COMMANDS = readme_commands()


def test_readme_lists_ten_examples():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize(
    "index", range(len(COMMANDS)), ids=[argv[0] for argv in COMMANDS]
)
def test_readme_example_matches_golden(index, tmp_path, capsys, monkeypatch):
    argv = COMMANDS[index]
    code, out, files = run_example(argv, tmp_path, capsys, monkeypatch)
    assert code == 0, out
    assert out == (GOLDEN / stdout_name(index, argv)).read_text(encoding="utf-8")
    for name, data in files.items():
        assert data == (GOLDEN / name).read_bytes(), name

"""Run the golden corpus and (re)write its stored outputs.

    PYTHONPATH=src python tests/golden/regen.py

runs every command of commands.txt in process through loggas.cli.main,
with a fresh structure-table cache, and writes expected.txt: for each
command a "$ <command>" line, an "exit <code>" line, then its stdout
verbatim.  tests/test_golden.py compares the same run with that file.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
COMMANDS = GOLDEN / "commands.txt"
EXPECTED = GOLDEN / "expected.txt"


def commands() -> list:
    lines = COMMANDS.read_text().splitlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


def run(command: str) -> tuple:
    """(exit code, stdout) of one command."""
    from loggas.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(command.format(golden=GOLDEN)))
        except SystemExit as e:  # argparse rejects the command line itself
            code = e.code
    return code, out.getvalue()


def render(results: dict) -> str:
    return "".join(f"$ {cmd}\nexit {code}\n{out}" for cmd, (code, out) in results.items())


def parse(text: str) -> dict:
    results = {}
    for block in re.split(r"^\$ ", text, flags=re.M)[1:]:
        cmd, code, out = block.split("\n", 2)
        results[cmd] = (int(code.removeprefix("exit ")), out)
    return results


def main() -> int:
    with tempfile.TemporaryDirectory() as cache:
        os.environ["LOGGAS_CACHE_DIR"] = cache
        results = {cmd: run(cmd) for cmd in commands()}
    old = parse(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for cmd, result in results.items():
        if old.get(cmd) != result:
            print(("changed: " if cmd in old else "added: ") + cmd, file=sys.stderr)
    for cmd in old.keys() - results.keys():
        print(f"removed: {cmd}", file=sys.stderr)
    EXPECTED.write_text(render(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identity of the CLI against the committed golden corpus
(tests/golden): every command's stdout and exit code.  A change that
alters an output on purpose regenerates the corpus with
tests/golden/regen.py and names each changed command."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_corpus():
    expected = golden.parse(golden.EXPECTED.read_text())
    commands = golden.commands()
    assert list(expected) == commands, "expected.txt is stale: run tests/golden/regen.py"
    changed = [cmd for cmd in commands if golden.run(cmd) != expected[cmd]]
    assert not changed, f"{len(changed)} commands differ from the corpus, first: {changed[0]}"

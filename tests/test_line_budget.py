"""``src/dtregge`` stays within the line cap of the ROADMAP's quality aim:
new lines are paid for by deletions."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dtregge"
LINE_CAP = 2741


def test_source_lines_within_cap():
    lines = sum(len(path.read_bytes().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= LINE_CAP, f"src/dtregge/*.py has {lines} lines, cap {LINE_CAP}"

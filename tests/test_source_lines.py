"""No source line of the package is longer than 100 characters."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "proxkern"
LIMIT = 100


def test_no_source_line_exceeds_limit():
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert not long, "\n".join(long)

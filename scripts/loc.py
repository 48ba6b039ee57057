#!/usr/bin/env python3
"""Non-test code lines of the Rust sources under a directory.

    python3 scripts/loc.py <dir>

For each `.rs` file under <dir> (recursively, in path order) counts the
lines before the file's first `#[cfg(test)]` that are neither blank nor
a `//` comment (doc comments included). Prints one `count path` line
per file, then the total. Informational: it always exits 0 on a
readable directory.
"""

import sys
from pathlib import Path


def count(path):
    n = 0
    for line in path.read_text().splitlines():
        s = line.strip()
        if s.startswith("#[cfg(test)]"):
            break
        if s and not s.startswith("//"):
            n += 1
    return n


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    root = Path(sys.argv[1])
    if not root.is_dir():
        sys.exit(f"loc.py: not a directory: {root}")
    total = 0
    for path in sorted(root.rglob("*.rs")):
        n = count(path)
        total += n
        print(f"{n:6} {path}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main()

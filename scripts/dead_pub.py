#!/usr/bin/env python3
"""Public functions and constants that nothing outside their tests uses.

    python3 scripts/dead_pub.py

For each `pub fn` and `pub const` declared in `crates/*/src` before its
file's first `#[cfg(test)]` (the split `loc.py` uses), counts the
whole-word matches of its name in every other `.rs` file git tracks
outside `vendor/` (`perfbench/src` included; `target/` is untracked)
and in its own file's non-test code, not counting the declaration
itself. An item with no match is called only by its own file's tests,
or by nothing: it prints one `path:line name` line per such item and
exits 1 if there is any, 0 otherwise.

It matches names, not paths, so a common name (`new`, `len`) used
anywhere counts as a use: it finds items nothing mentions, not every
unused item.
"""

import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

DECL = re.compile(r"\bpub\s+(?:const\s+fn|fn|const)\s+([A-Za-z_]\w*)")
WORD = re.compile(r"\w+")
ROOT = Path(__file__).resolve().parent.parent


def non_test(text):
    """The part of a file before its first `#[cfg(test)]`."""
    cut = text.find("#[cfg(test)]")
    return text if cut < 0 else text[:cut]


def main():
    tracked = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "*.rs"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    files = {
        p: (ROOT / p).read_text()
        for p in tracked
        if not p.startswith("vendor/") and (ROOT / p).is_file()
    }
    words = {p: set(WORD.findall(text)) for p, text in files.items()}
    offenders = []
    for path, text in sorted(files.items()):
        parts = path.split("/")
        if len(parts) < 4 or parts[0] != "crates" or parts[2] != "src":
            continue
        own = non_test(text)
        own_words = Counter(WORD.findall(own))
        for m in DECL.finditer(own):
            name = m.group(1)
            if own_words[name] > 1 or any(
                name in w for p, w in words.items() if p != path
            ):
                continue
            line = own.count("\n", 0, m.start()) + 1
            offenders.append(f"{path}:{line} {name}")
    for o in offenders:
        print(o)
    sys.exit(1 if offenders else 0)


if __name__ == "__main__":
    main()

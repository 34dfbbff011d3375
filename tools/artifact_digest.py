"""Print one sorted `path sha256` line per file under a directory, so that
the outputs of two runs can be compared with diff.

    python tools/artifact_digest.py DIR [PREFIX]

Before a file is hashed, every line holding the JSON key "runtime_seconds"
(wall time, which differs between runs) is dropped, and every occurrence of
PREFIX (default: the absolute path of DIR, however DIR is given) is replaced
by "<out>", so that a report echoing the directory it was written to hashes
the same in any directory.
"""

import hashlib
import os
import re
import sys
from pathlib import Path

RUNTIME = re.compile(rb'^[ \t]*"runtime_seconds": [^\n]*\n', re.MULTILINE)


def digest(root, prefix=None):
    root = Path(os.path.abspath(root))
    prefix = str(root if prefix is None else prefix).encode()
    lines = []
    for path in root.rglob("*"):
        if path.is_file():
            data = RUNTIME.sub(b"", path.read_bytes()).replace(prefix, b"<out>")
            lines.append(f"{path.relative_to(root).as_posix()} "
                         f"{hashlib.sha256(data).hexdigest()}")
    return sorted(lines)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    print("\n".join(digest(*sys.argv[1:])))

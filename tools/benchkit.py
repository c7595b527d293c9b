"""What the ``tools/`` bench and smoke scripts share.

Importing this module puts the checkout's ``src/`` on ``sys.path``, so
a script run as ``python tools/<name>.py`` imports ``repro`` without an
install; import it before ``repro``. :func:`write_json` writes a
script's result document and :func:`exit_code` ends it: each failure a
``FAIL:`` line on stderr, exit code 1 when there is any.
"""

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def write_json(path, doc):
    """Write ``doc`` to ``path`` as sorted, indented JSON."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def exit_code(failures):
    """Print every failure as a ``FAIL:`` line on stderr; the
    script's exit code (1 when there is any failure)."""
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0

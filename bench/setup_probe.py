"""Time one set-up of a benchmark run in a fresh interpreter.

Reads a JSON list of map descriptors on standard input, then imports
wignerlab as the wignerlab command does and loads every descriptor with
descriptors.map_from_json.  Prints the seconds taken.

With the argument ``reference`` it imports numpy alone instead: the
fixed work that set-up times are scaled by (see calibration.py).
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    text = sys.stdin.read()
    t0 = time.perf_counter()
    if sys.argv[1:] == ["reference"]:
        import numpy  # noqa: F401
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import wignerlab.cli  # noqa: F401  (everything the command loads)
        from wignerlab.descriptors import map_from_json

        for obj in json.loads(text):
            map_from_json(obj)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

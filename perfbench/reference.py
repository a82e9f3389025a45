#!/usr/bin/env python3
"""Run one reference batch in this fresh interpreter.

``run.py`` starts this script under another ``PYTHONHASHSEED`` and
writes two pickles to its standard input: the parent's ``sys.path``,
then ``(batch function, seed, size)``.  The last line of standard
output is a JSON object with the batch's fingerprint, its run-phase
seconds and the GC seconds spent in it.
"""

from __future__ import annotations

import json
import pickle
import sys


def main() -> int:
    sys.path[:] = pickle.load(sys.stdin.buffer)
    batch_fn, seed, size = pickle.load(sys.stdin.buffer)
    from run import GcClock

    with GcClock() as clock:
        batch = batch_fn(seed, size)
    print(json.dumps({"fingerprint": batch.fingerprint, "run_s": batch.run_s,
                      "gc_s": clock.seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

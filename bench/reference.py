"""Fixed reference workload for machine-speed calibration.

The benchmark runs this script as a subprocess between passes and before
and after each set-up. It is stdlib-only, touches no file and never
changes, so its time tracks only the speed of the machine at that moment:
interpreter start-up plus the kind of work the program does (string
parsing, set and dict building, sorting). Timed metrics are scaled by
``NOMINAL_S / measured time``; see README.md.

    python3 bench/reference.py
"""

import random
import re

# Time of this script on the machine the benchmark's bounds were set on.
NOMINAL_S = 0.25

_TERM = re.compile(r"<([^>]+)>")


def main() -> None:
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghij") for _ in range(6)) for _ in range(500)]
    lines = [
        f'<gsn:G{i}> <gsn:statement> "{" ".join(rng.choice(words) for _ in range(8))}" .' for i in range(20000)
    ]
    triples = set()
    for line in lines:
        subject, predicate, obj = line[:-2].split(" ", 2)
        triples.add((_TERM.match(subject).group(1), predicate, obj))
    index: dict[str, list[str]] = {}
    for subject, _, obj in triples:
        index.setdefault(subject, []).append(obj)
    sorted(f"{s} {p} {o} ." for s, p, o in triples)


if __name__ == "__main__":
    main()

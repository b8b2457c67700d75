"""Fixed reference job that measures how fast the host runs right now.

The benchmark runs it as a child process before every timed child and once at
the end of a run, with the same interpreter and environment as the stages. It
does the kinds of work the stages do: interpreter start and numpy import,
frame-sized array work on freshly mapped (page-faulting) memory, and a
Python-level loop. It uses no matrixgt code, so a change to the program never
changes it. Its output is a checksum, which the benchmark checks.
"""

import numpy as np


def main() -> str:
    acc = 0.0
    for i in range(12):
        a = np.empty((480, 640), dtype=np.float64)  # fresh mapping, faulted in on write
        a[:] = i
        b = np.sqrt(a * a + 1.0) + np.arange(640)[None, :]
        acc += float(b[b > 300.0].sum())
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return f"{acc + sum(counts.values()):.6f}"


if __name__ == "__main__":
    print(main())

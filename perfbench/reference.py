"""The reference job: a fixed stdlib-only workload run.py runs in a fresh
interpreter next to every benchmark job.

    python3 perfbench/reference.py

It does the kind of work gconstellations does (interpreter start, imports,
Fraction arithmetic, frozen dataclasses, dict and heap traffic) but never
changes, so the ratio of a job's wall time to the mean of the reference runs
just before and after it cancels the machine's momentary speed. On a shared
host that speed drifts by up to 2x over tens of seconds, far more than the
benchmark's bounds. It prints a fixed answer run.py checks.
"""

import dataclasses
import heapq
import json
from fractions import Fraction

STEPS = 4000
ANSWER = "[4000, 51]"


@dataclasses.dataclass(frozen=True)
class Node:
    a: int
    b: int


def work(steps: int) -> str:
    """Dijkstra on a fixed graph with Fraction costs, then a set of
    Fraction rows."""
    dist = {}
    costs = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
    heap = [(Fraction(0), 0, Node(0, 0))]
    pushed = 0
    while heap and len(dist) < steps:
        d, _, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for j, cost in enumerate(costs):
            nxt = Node((node.a + j + 1) % 211, (node.b * 3 + j) % 197)
            if nxt not in dist:
                pushed += 1
                heapq.heappush(heap, (d + cost, pushed, nxt))
    rows = {
        tuple(Fraction(i * j % 11, 1 + (i + j) % 5) for j in range(6))
        for i in range(steps // 4)
    }
    return json.dumps([len(dist), len(rows)])


if __name__ == "__main__":
    print(work(STEPS))

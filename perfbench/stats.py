"""The benchmark's own arithmetic: percentiles, spreads, self times, tallies."""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def op_percentile_sum(rounds, p):
    """Sum over the operations of each one's p-th percentile time over rounds.

    rounds holds, for each round, the time of every operation in the same
    order.  With fewer than 100 / (100 - p) rounds this is each operation's
    slowest time.
    """
    return sum(percentile(times, p) for times in zip(*rounds))


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def reportable(n, p):
    """True when the p-th percentile of n samples has enough samples beyond it."""
    return samples_beyond(n, p) >= TAIL_SAMPLES


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    spans is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span or -1.  Child intervals are clipped to the parent
    and merged, so overlapping children are not counted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tally:
    """Attempted and failed operations over whole rounds, with a fault ledger.

    Every round attempts the same operations, so failed / attempted is the
    same share whatever the number of rounds.
    """

    def __init__(self):
        self.rounds = 0
        self.per_round = None   # operations in one round
        self.failures = {}      # op name -> fault description (one round)

    def add_round(self, ops, failures):
        """ops: operations attempted in this round; failures: {op: fault}."""
        if self.per_round is None:
            self.per_round = ops
        elif ops != self.per_round:
            raise ValueError(f"round attempted {ops} operations, the first {self.per_round}")
        if self.rounds and failures.keys() != self.failures.keys():
            raise ValueError("a later round failed on other operations than the first")
        self.failures = dict(failures)
        self.rounds += 1

    @property
    def attempted(self):
        return self.rounds * (self.per_round or 0)

    @property
    def failed(self):
        return self.rounds * len(self.failures)

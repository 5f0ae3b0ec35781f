"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host, other tenants' load slows a pure-Python process by up
to 1.8x, in bursts of milliseconds whose density changes over seconds
to minutes.  An operation of a tenth of a second averages over many
bursts, so its time follows the load of the minute it ran in, and two
runs of the same code can differ by more than any useful bound.

The run therefore times a few calls of this loop just before and just
after every operation and every set-up, and reports each time scaled to
a host on which the loop takes ``REFERENCE_SECONDS``:

    scaled = measured * REFERENCE_SECONDS / mean(loop times around it)

The loop shares no code with lensgrid, so a change to the program moves
the scaled time exactly as it moves the measured one; only the host's
speed cancels.  The mean, not the median, of the loop times is taken
because an operation's own time sums over the bursts it meets.  The loop
mixes the kinds of work the program does: integer arithmetic with ``%``,
tuples, list appends, dict updates, a sort and ``Fraction`` sums.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Fixed, so that scaled times compare between commits and between hosts.
# On the 2-core virtual machine the figures in README.md come from, the
# loop's mean time ran from about 0.25 ms on a quiet stretch to 0.45 ms on
# a busy one; scaled times there read like wall times on a busy stretch.
REFERENCE_SECONDS = 0.0004
CALLS = 5   # loop calls on each side of an operation or set-up


def reference_loop():
    out, seen = [], {}
    for a in range(30):
        for b in range(40):
            w = (a * 7 + b * 3) % 11
            if 0 < w < 6:
                key = (a, b, w)
                out.append(key)
                seen[key] = seen.get(key, 0) + 1
    out.sort()
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(k, k + 3)
    return total


def loop_times(calls=CALLS):
    times = []
    for _ in range(calls):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return times


def scale(seconds, before, after):
    """``seconds`` at reference speed, given the loop times around it."""
    loops = before + after
    return seconds * REFERENCE_SECONDS * len(loops) / sum(loops)

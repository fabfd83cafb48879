"""A fixed piece of interpreter work that measures how fast the machine
is running right now.

On a shared host the CPU speed a process gets drifts, often by 20-40%
for seconds or minutes at a time, and a pure CPU loop slows with it.
run.py times this fixed work before every timed operation and reports
a timing as

    mean(operation walls) * REF_S / mean(reference walls)

over the run, both means trimmed by TRIM at each end: the operation's
typical wall time at one fixed machine speed, the speed at which one
reference call takes REF_S seconds. A slow phase of the host stretches
both means alike, so it cancels; a slower srlkit stretches only the
first. The speed changes within a second, so one reference timing says
little about the operation next to it; only the run's averages are
compared. A median would not do: the samples of a run fall in a fast
and a slow cluster, and the median jumps between them with the share of
each, while a mean moves in proportion.

The work mixes what srlkit spends its time on: splitting bracketed text,
building nested lists, counting in dicts, sorting and formatting lines.
It touches no srlkit code and runs in run.py's own process with the
garbage collector off, so a change to srlkit never moves it.
"""

import gc
import statistics
import time

# Roughly what one reference() call takes on an unloaded 2-core VM; the
# exact value only scales every calibrated metric by the same constant.
REF_S = 0.1
ROUNDS = 40
TRIM = 0.1  # share of samples dropped at each end, so one stall cannot move a mean

_TEXT = " ".join(
    f"(S (NP (DT w{i}) (NN x{i % 97})) (VP (VBZ v{i % 13}) (NP (NN y{i}))))"
    for i in range(300))


def reference() -> float:
    """Do the fixed work; return its wall time in seconds."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    total = 0
    for _ in range(ROUNDS):
        counts = {}
        stack = [[]]
        for tok in _TEXT.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(":
                stack.append([])
            elif tok == ")":
                node = stack.pop()
                stack[-1].append(node)
            else:
                counts[tok] = counts.get(tok, 0) + 1
                stack[-1].append(tok)
        total += len("\n".join(f"{k},{v}" for k, v in sorted(counts.items())))
    wall = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    if total <= 0:
        raise AssertionError("reference work did nothing")
    return wall


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def calibrated(walls, refs) -> float:
    """The typical wall time, at the speed where reference() takes REF_S."""
    return trimmed_mean(walls) * REF_S / trimmed_mean(refs)

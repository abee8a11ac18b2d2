"""CPU-speed calibration for the benchmark's timings.

On a shared 2-vCPU VM the CPU speed one process got drifted by up to 2x
over minutes, which no number of passes within one run averages out.
Right after every timed call the benchmark runs a fixed pure-Python loop
for a fifth of the call's time and scales the call to reference speed:

    seconds at reference speed = measured seconds * REF_UNIT_S / unit time

The loop is a truncated product of two sparse two-variable series (dict
rows built afresh, the shape of ``qs_mul``) followed by a dense big-int
recurrence (the shape of the ``zf_*`` kernels), so it allocates and
computes like both kinds of workload do.
It must never change: it is the yardstick every commit is measured with.
REF_UNIT_S is a typical unit time on the machine the benchmark was made
on (2 vCPUs, Python 3.11.7), so scaled times there are close to seconds.
"""

from __future__ import annotations

from time import perf_counter

REF_UNIT_S = 0.022
SHARE = 0.2
_N = 47

_F = [{(k * j * 7) % 61 - 30: (j * 7919 + k) % 1000003 for j in range(k % 9 + 4)} for k in range(_N + 1)]
_G = [{(k * j * 11) % 53 - 26: (j * 104729 + k) % 1000003 for j in range(k % 7 + 5)} for k in range(_N + 1)]


def _unit() -> None:
    out: list[dict[int, int]] = [{} for _ in range(_N + 1)]
    for i in range(_N + 1):
        fi = _F[i]
        for j in range(_N + 1 - i):
            acc = out[i + j]
            for ef, vf in fi.items():
                for eg, vg in _G[j].items():
                    e = ef + eg
                    s = acc.get(e, 0) + vf * vg
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
    f = [1] + [0] * 1500
    for e in range(1, 50):
        for k in range(e, 1501):
            v = f[k - e]
            if v:
                f[k] += v


def scale_for(seconds: float) -> float:
    """Run the loop for about ``seconds`` (at least one unit); return the
    factor from seconds measured just now to seconds at reference speed."""
    n = max(1, round(seconds / REF_UNIT_S))
    t0 = perf_counter()
    for _ in range(n):
        _unit()
    return REF_UNIT_S * n / (perf_counter() - t0)


def scale_after(busy_s: float) -> float:
    """The factor for a call that took busy_s, sampled for SHARE of it."""
    return scale_for(busy_s * SHARE)

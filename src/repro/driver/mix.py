"""Query mix: complex-read frequencies per scale factor (spec Table 3.1
and Appendix B.1).

A frequency of ``f`` for a complex read type means one instance of that
type is issued per ``f`` update operations.  The spec tabulates SF1 to
SF1000; micro scale factors fall back to the nearest tabulated SF
(frequencies change slowly and SF1 is already the smallest published).

The Time Compression Ratio (spec 3.4) "squeezes or stretches" the whole
schedule: wall-clock gaps between operations are the simulation-time
gaps multiplied by the TCR.  A TCR of 0 replays the workload as fast as
the SUT can execute it.
"""

from __future__ import annotations

#: Table B.1 — frequency of each complex read per scale factor.
FREQUENCIES: dict[float, dict[int, int]] = {
    1.0: {
        1: 26, 2: 37, 3: 69, 4: 36, 5: 57, 6: 129, 7: 87,
        8: 45, 9: 157, 10: 30, 11: 16, 12: 44, 13: 19, 14: 49,
    },
    3.0: {
        1: 26, 2: 37, 3: 79, 4: 36, 5: 61, 6: 172, 7: 72,
        8: 27, 9: 209, 10: 32, 11: 17, 12: 44, 13: 19, 14: 49,
    },
    10.0: {
        1: 26, 2: 37, 3: 92, 4: 36, 5: 66, 6: 236, 7: 54,
        8: 15, 9: 287, 10: 35, 11: 19, 12: 44, 13: 19, 14: 49,
    },
    30.0: {
        1: 26, 2: 37, 3: 106, 4: 36, 5: 72, 6: 316, 7: 48,
        8: 9, 9: 384, 10: 37, 11: 20, 12: 44, 13: 19, 14: 49,
    },
    100.0: {
        1: 26, 2: 37, 3: 123, 4: 36, 5: 78, 6: 434, 7: 38,
        8: 5, 9: 527, 10: 40, 11: 22, 12: 44, 13: 19, 14: 49,
    },
    300.0: {
        1: 26, 2: 37, 3: 142, 4: 36, 5: 84, 6: 580, 7: 32,
        8: 3, 9: 705, 10: 44, 11: 24, 12: 44, 13: 19, 14: 49,
    },
    1000.0: {
        1: 26, 2: 37, 3: 165, 4: 36, 5: 91, 6: 796, 7: 25,
        8: 1, 9: 967, 10: 47, 11: 26, 12: 44, 13: 19, 14: 49,
    },
}


def frequencies_for_scale_factor(scale_factor: float) -> dict[int, int]:
    """The Table B.1 frequency column for (the nearest tabulated) SF."""
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    nearest = min(FREQUENCIES, key=lambda sf: abs(sf - scale_factor))
    return dict(FREQUENCIES[nearest])

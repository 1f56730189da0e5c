"""Outcome classification (paper Sec. 2).

The paper's categories:

* **Vanished (V)** — the fault never reached memory; outputs correct.
* **Output Not Affected (ONA)** — memory state was contaminated but the
  outputs are still within tolerance and the run took no extra
  iterations.
* **Wrong Output (WO)** — outputs outside tolerance.
* **Prolonged EXecution (PEX)** — outputs correct but the application
  needed extra iterations to converge.
* **Crashed (C)** — traps, aborts, deadlocks and hangs.

``CO = V + ONA`` is what an output-variation ("black-box") analysis
reports as "correct": it cannot split V from ONA — only the FPM can
(Sec. 4.3, the paper's headline contradiction).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, Optional, Sequence


class Outcome(Enum):
    VANISHED = "V"
    ONA = "ONA"
    WO = "WO"
    PEX = "PEX"
    CRASHED = "C"
    #: black-box correct output: V + ONA indistinguishable
    CO = "CO"
    #: the harness lost the trial (worker crash, watchdog timeout, ...)
    #: after exhausting retries — not an application outcome
    HARNESS_FAILURE = "HF"


def values_match(a, b, rel_tol: float, abs_tol: float) -> bool:
    """Per-value comparison with relative + absolute tolerance.

    Integers compare exactly when both tolerances are zero.  NaN never
    matches a finite golden value (a NaN output is a wrong output).
    """
    if a == b:
        return True
    try:
        fa = float(a)
        fb = float(b)
    except (TypeError, ValueError, OverflowError):
        return False
    if math.isnan(fa) or math.isnan(fb):
        return False
    if math.isinf(fa) or math.isinf(fb):
        return False
    return abs(fa - fb) <= max(rel_tol * abs(fb), abs_tol)


def outputs_match(
    got: Sequence[Sequence],
    golden: Sequence[Sequence],
    rel_tol: float,
    abs_tol: float,
) -> bool:
    """Rank-by-rank, value-by-value comparison against the golden run."""
    if len(got) != len(golden):
        return False
    for grow, row in zip(golden, got):
        if len(grow) != len(row):
            return False
        for gv, v in zip(grow, row):
            if not values_match(v, gv, rel_tol, abs_tol):
                return False
    return True


def classify(
    *,
    crashed: bool,
    outputs_ok: bool,
    iterations: int,
    golden_iterations: int,
    fpm: bool,
    ever_contaminated: Optional[bool] = None,
) -> Outcome:
    """Classify one fault-injected run.

    ``fpm=False`` yields black-box classes (CO/WO/PEX/C); ``fpm=True``
    additionally splits CO into V and ONA using the shadow-table evidence.
    """
    if crashed:
        return Outcome.CRASHED
    if not outputs_ok:
        return Outcome.WO
    if iterations > golden_iterations:
        return Outcome.PEX
    if not fpm:
        return Outcome.CO
    if ever_contaminated is None:
        raise ValueError("FPM classification requires ever_contaminated")
    return Outcome.ONA if ever_contaminated else Outcome.VANISHED


def outcome_fractions(outcomes: List[Outcome]) -> dict:
    """Fractions per class, with CO derived as V + ONA + CO."""
    n = len(outcomes)
    if n == 0:
        return {}
    counts = {o: 0 for o in Outcome}
    for o in outcomes:
        counts[o] += 1
    fr = {o.value: counts[o] / n for o in Outcome}
    fr["CO"] = (
        counts[Outcome.CO] + counts[Outcome.VANISHED] + counts[Outcome.ONA]
    ) / n
    return fr

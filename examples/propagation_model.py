#!/usr/bin/env python
"""Propagation modelling: FPS factors and runtime CML estimation.

Reproduces the paper's Sec. 5 workflow end-to-end:

1. run an FPM campaign collecting CML(t) propagation traces,
2. fit each trial's piece-wise (linear -> plateau) profile,
3. aggregate the slopes into the application's FPS factor (Table 2),
4. use Eqs. 1-3 to bound the corrupted state inside a detection window
   and make the paper's roll-back-or-continue decision.

Run:  python examples/propagation_model.py [app] [trials]
"""

import sys

import numpy as np

from repro import Session
from repro.analysis import render_series
from repro.models import CMLEstimator, fit_profile


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "mcb"
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 80

    s = Session(app, mode="fpm", seed=7)
    print(f"running {trials} FPM trials on {app}...")
    campaign = s.campaign(trials=trials)

    # show one representative propagation profile
    best = max(
        (t for t in campaign.trials if t.times is not None),
        key=lambda t: t.peak_cml,
        default=None,
    )
    if best is not None and best.peak_cml > 0:
        print(f"\nrepresentative CML(t) profile "
              f"(outcome {best.outcome}, peak {best.peak_cml} locations, "
              f"{100 * best.peak_cml_fraction:.1f}% of live memory):")
        pts = list(zip(best.times.tolist(), best.cml.tolist()))
        print(render_series(pts))
        onset = min(best.injected_cycles)
        keep = best.times >= onset
        fit = fit_profile(best.times[keep].astype(float),
                          best.cml[keep].astype(float))
        print(f"fitted: slope a = {fit.slope:.3e} CML/cycle "
              f"(paper Eq. 1: CML(t) = a*t + b), R^2 = {fit.r2:.3f}")

    # Table 2 for this app
    fps = s.fps()
    print(f"\nFPS factor: {fps.fps:.3e} ± {fps.std:.1e} CML/cycle "
          f"(from {fps.n_trials} propagating trials)")

    # Eqs. 2-3: runtime estimation
    est = CMLEstimator(fps)
    golden_cycles = campaign.golden_cycles
    t1, t2 = 0.25 * golden_cycles, 0.75 * golden_cycles
    window = est.estimate_window(t1, t2)
    print(f"\nscenario: clean check at t1={t1:.0f}, fault detected at "
          f"t2={t2:.0f} cycles")
    print(f"  Eq. 3 worst case: {window.max_cml:.1f} corrupted locations")
    print(f"  average case:     {window.avg_cml:.1f}")

    threshold = 25
    decision = "ROLL BACK" if window.rollback_advised(threshold) else "KEEP RUNNING"
    print(f"  with a {threshold}-location safety threshold: {decision}")
    print("\npaper: 'For application with low FPS ... the fault-tolerance "
          "system could decide\nto keep the application running if the CML "
          "at the end of the application is\npredicted to be below a safe "
          "threshold.'")


if __name__ == "__main__":
    main()

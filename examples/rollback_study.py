#!/usr/bin/env python
"""Roll-back policy study: the paper's Sec. 5 decision, end to end.

1. Train an FPS model on a fault-injection campaign.
2. Measure empirical detection latency under interval/threshold detectors
   (the paper's footnote-3 Δt, calibrated instead of assumed).
3. Replay a fresh fault set through the checkpoint/roll-back runner under
   three policies and compare risk (contaminated finishes) vs cost
   (re-executed work).

Run:  python examples/rollback_study.py [app] [trials]
"""

import sys

import numpy as np

from repro.analysis import render_table
from repro.apps import get_app
from repro.inject import run_campaign
from repro.inject.plan import draw_plan
from repro.inject.profiler import PreparedApp
from repro.models import CMLEstimator, compute_fps
from repro.resilience import (
    AlwaysRollback,
    FPSThresholdPolicy,
    IntervalDetector,
    NeverRollback,
    ResilientRunner,
    ThresholdDetector,
    measure_latency,
)


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "mcb"
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 60

    # compiled, profiled, and with the golden-derived hang budget in its
    # config — what a campaign runs its trials under
    prepared = PreparedApp(get_app(app), "fpm")
    program, golden = prepared.program, prepared.golden
    config = prepared.run_config()
    print(f"app: {app}, golden run: {golden.cycles} cycles")

    # 1. FPS model
    training = run_campaign(app, trials=trials, mode="fpm", seed=100,
                            keep_series=True)
    fps = compute_fps(app, training.trials)
    estimator = CMLEstimator(fps)
    print(f"trained FPS model: {fps.fps:.3e} CML/cycle "
          f"({fps.n_trials} profiles)")

    # 2. Detection latency (paper footnote 3's delta-t, measured)
    interval = max(4000, golden.cycles // 8)
    print("\ndetection latency (delta-t between fault and detection):")
    rows = []
    for det in (IntervalDetector(interval), ThresholdDetector(5),
                ThresholdDetector(50)):
        rep = measure_latency(det, training.trials)
        label = det.name + (f"({det.min_cml})" if hasattr(det, "min_cml")
                            else f"({interval})")
        rows.append([label, rep.n_detected, rep.n_contaminated,
                     f"{rep.median_latency:.0f}" if rep.n_detected else "-"])
    print(render_table(["detector", "detected", "contaminated runs",
                        "median latency (cycles)"], rows))

    # 3. Policy comparison
    threshold = estimator.fps.fps * golden.cycles * 0.25
    policies = [AlwaysRollback(), NeverRollback(),
                FPSThresholdPolicy(estimator, threshold)]
    rng = np.random.default_rng(7)
    plans = [draw_plan(rng, golden.inj_counts, 1) for _ in range(trials // 2)]

    print(f"\npolicy comparison over {len(plans)} faulty runs "
          f"(checkpoint every {interval} cycles):")
    rows = []
    for policy in policies:
        dirty = wasted = rollbacks = crashes = 0
        for i, plan in enumerate(plans):
            runner = ResilientRunner(program, config, policy,
                                     interval=interval,
                                     expected_end=golden.cycles)
            res = runner.run(faults=plan, inj_seed=i)
            if res.crashed:
                crashes += 1
                continue
            dirty += res.final_contaminated
            wasted += res.wasted_cycles
            rollbacks += res.rollbacks
        rows.append([policy.name, dirty, crashes, rollbacks,
                     f"{wasted / golden.cycles:.2f} runs"])
    print(render_table(
        ["policy", "contaminated finishes", "crashes", "rollbacks",
         "re-executed work"], rows))

    print("\npaper Sec. 5: 'the fault-tolerance system could decide to keep "
          "the application\nrunning if the CML at the end of the application "
          "is predicted to be below a safe threshold.'")


if __name__ == "__main__":
    main()

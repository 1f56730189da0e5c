"""Extension: evaluating the paper's roll-back decision policy.

Paper Sec. 5: the FPS-based CML estimate "can be used to decide, at
runtime, if a roll-back should be triggered ... the fault-tolerance
system could decide to keep the application running if the CML at the end
of the application is predicted to be below a safe threshold."

This benchmark plays fault-injection campaigns through the
checkpoint/roll-back runner under three policies and scores them on the
two axes the paper cares about: how many runs finish with corrupted state
(risk) and how many cycles are re-executed (cost).  The FPS-threshold
policy must sit between always-roll-back (max cost, min risk) and
never-roll-back (min cost, max risk).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.apps import get_app
from repro.inject.plan import draw_plan
from repro.inject.profiler import PreparedApp
from repro.models import CMLEstimator, compute_fps
from repro.resilience import (
    AlwaysRollback,
    FPSThresholdPolicy,
    NeverRollback,
    ResilientRunner,
)
from repro.inject import run_campaign

from conftest import SEED, save_artifact, trials, workers


def test_rollback_policies(benchmark, results_dir):
    app = "mcb"
    n = max(30, trials() // 5)

    def run_study():
        # compiled, profiled, and with the golden-derived hang budget
        # in its config — what a campaign runs its trials under
        prepared = PreparedApp(get_app(app), "fpm")
        program, golden = prepared.program, prepared.golden
        config = prepared.run_config()

        # FPS model from a training campaign (as the paper prescribes)
        training = run_campaign(app, trials=max(60, n), mode="fpm",
                                seed=SEED + 1, workers=workers(),
                                keep_series=True)
        estimator = CMLEstimator(compute_fps(app, training.trials))

        interval = max(4000, golden.cycles // 8)
        # The paper's policy predicts the CML at the END of the run; the
        # threshold tolerates up to a quarter-run's worth of propagation,
        # so late-detected faults run through and early ones roll back.
        threshold = estimator.fps.fps * golden.cycles * 0.25
        policies = [
            AlwaysRollback(),
            NeverRollback(),
            FPSThresholdPolicy(estimator, threshold),
        ]

        rng = np.random.default_rng(SEED)
        plans = [draw_plan(rng, golden.inj_counts, 1) for _ in range(n)]

        scores = {}
        for policy in policies:
            contaminated_finishes = crashes = rollbacks = 0
            wasted = 0
            for i, plan in enumerate(plans):
                runner = ResilientRunner(program, config, policy,
                                         interval=interval,
                                         expected_end=golden.cycles)
                res = runner.run(faults=plan, inj_seed=i)
                if res.crashed:
                    crashes += 1
                    continue
                if res.final_contaminated:
                    contaminated_finishes += 1
                rollbacks += res.rollbacks
                wasted += res.wasted_cycles
            scores[policy.name] = dict(
                dirty=contaminated_finishes,
                crashes=crashes,
                rollbacks=rollbacks,
                wasted=wasted,
            )
        return golden, scores

    golden, scores = benchmark.pedantic(run_study, rounds=1, iterations=1)

    rows = [
        [name, s["dirty"], s["crashes"], s["rollbacks"],
         f"{s['wasted'] / max(golden.cycles, 1):.2f} runs-worth"]
        for name, s in scores.items()
    ]
    text = render_table(
        ["policy", "contaminated finishes", "crashes", "rollbacks",
         "re-executed work"],
        rows,
    )
    text += (
        "\n\npaper Sec. 5: roll back when the estimated CML exceeds a safe "
        "threshold;\nthe FPS-threshold policy buys most of always-rollback's "
        "safety at reduced cost"
    )
    save_artifact(results_dir, "rollback_policies.txt", text)

    always = scores["always"]
    never = scores["never"]
    fps_pol = scores["fps-threshold"]
    # roll-backs eliminate contaminated finishes relative to running through
    assert always["dirty"] <= never["dirty"]
    assert never["wasted"] == 0
    # the threshold policy pays at most always-rollback's cost and sits
    # between the extremes on risk
    assert always["wasted"] >= fps_pol["wasted"]
    assert always["rollbacks"] >= fps_pol["rollbacks"]
    assert always["dirty"] <= fps_pol["dirty"] <= never["dirty"]

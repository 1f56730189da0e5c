#!/usr/bin/env python
"""Fig. 6-style outcome study: black-box vs propagation-aware analysis.

Runs two fault-injection campaigns over the same fault plans on a proxy
application — one black-box (output variation only, the paper's Sec. 4.2)
and one with the FPM (Sec. 4.3) — and shows the paper's headline
contradiction: most runs the black-box analysis calls "correct" actually
carry contaminated memory state.

Run:  python examples/outcome_study.py [app] [trials]
      (default: mcb, 80 trials; try lulesh, amg, minife, lammps)
"""

import sys

from repro import run_campaign
from repro.analysis import co_breakdown, render_outcome_table
from repro.apps import get_app


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "mcb"
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 80

    print(f"app: {app}  ({get_app(app).description})")
    print(f"running 2 x {trials} fault-injection trials...\n")

    blackbox = run_campaign(app, trials, mode="blackbox", seed=42)
    fpm = run_campaign(app, trials, mode="fpm", seed=42)

    print("black-box (output-variation) classification — paper Sec. 4.2:")
    print(render_outcome_table({app: blackbox.fractions()}, blackbox=True))

    print("\nFPM (propagation-aware) classification — paper Sec. 4.3:")
    print(render_outcome_table({app: fpm.fractions()}, blackbox=False))

    bd = co_breakdown(app, fpm.outcomes())
    print(f"\nthe contradiction: of {bd.n_co} runs the black-box analysis "
          f"calls 'correct output',")
    print(f"  {bd.n_ona} ({100 * bd.ona_share:.0f}%) actually finished with "
          f"contaminated memory state (ONA),")
    print(f"  only {bd.n_vanished} were truly clean (Vanished).")
    print("\npaper: 'it would be dangerous to assume that the tested "
          "applications can tolerate\nthe presence of faults while, in "
          "reality, they may produce incorrect results in a\nslightly "
          "different execution context.'")


if __name__ == "__main__":
    main()

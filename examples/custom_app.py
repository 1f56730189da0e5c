#!/usr/bin/env python
"""Analyse your own MiniHPC program with the framework.

Writes a small distributed heat-diffusion solver in MiniHPC (the paper's
framework is generic: "we seek a generic methodology that allows the user
to study a larger set of applications"), opens a session on it, and
runs the full analysis pipeline on it.

Run:  python examples/custom_app.py [trials]
"""

import sys

from repro import RunConfig, Session
from repro.analysis import co_breakdown, render_outcome_table

HEAT_SOURCE = """
// 1-D explicit heat diffusion, block-decomposed, halo exchange per step.
func main(rank: int, size: int) {
    var n: int = 20;
    var u: float[20];
    var unew: float[20];
    var hbuf: float[1];
    var hl: float[1];
    var hr: float[1];

    // hot spot in the middle of the global domain
    for (var i: int = 0; i < n; i += 1) {
        var g: int = rank * n + i;
        if (g == size * n / 2) {
            u[i] = 100.0;
        } else {
            u[i] = 0.0;
        }
    }

    var alpha: float = 0.2;
    for (var t: int = 0; t < 30; t += 1) {
        if (rank > 0) {
            hbuf[0] = u[0];
            mpi_send(&hbuf[0], 1, rank - 1, 1);
        }
        if (rank < size - 1) {
            hbuf[0] = u[n - 1];
            mpi_send(&hbuf[0], 1, rank + 1, 2);
        }
        if (rank < size - 1) {
            mpi_recv(&hr[0], 1, rank + 1, 1);
        } else {
            hr[0] = u[n - 1];
        }
        if (rank > 0) {
            mpi_recv(&hl[0], 1, rank - 1, 2);
        } else {
            hl[0] = u[0];
        }
        for (var i: int = 0; i < n; i += 1) {
            var left: float = hl[0];
            var right: float = hr[0];
            if (i > 0) { left = u[i - 1]; }
            if (i < n - 1) { right = u[i + 1]; }
            unew[i] = u[i] + alpha * (left - 2.0 * u[i] + right);
        }
        for (var i: int = 0; i < n; i += 1) { u[i] = unew[i]; }
        mark_iteration();
    }

    var s: float = 0.0;
    for (var i: int = 0; i < n; i += 1) { s += u[i]; }
    emit(s);
    emit(u[n / 2]);
}
"""


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    s = Session.from_source(
        HEAT_SOURCE,
        name="heat1d",
        config=RunConfig(nranks=4),
        tolerance=0.05,
    )

    print("golden outputs per rank:", s.golden().outputs)

    campaign = s.campaign(trials=trials, seed=11)
    print("\noutcomes:")
    print(render_outcome_table({"heat1d": campaign.fractions()},
                               blackbox=False))

    fps = s.fps()
    print(f"\nFPS factor of the custom app: {fps.fps:.3e} CML/cycle")

    bd = co_breakdown(s.app, campaign.outcomes())
    if bd.n_co:
        print(f"contaminated share of correct-output runs: "
              f"{100 * bd.ona_share:.0f}%")

    coverage = s.coverage()
    print(f"injection uniformity: chi2 p-value = {coverage.p_value:.3f}")


if __name__ == "__main__":
    main()

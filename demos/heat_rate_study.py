"""Strong convergence of the heat steppers on a shared noise sample.

Runs the corrected Crank-Nicolson stepper and the implicit
Euler-Maruyama stepper over a doubling sweep of step counts, measuring
the RMS distance at T = 1 to the exact solution of the benchmark
problem, and fits the log-log slope.  Defaults are trimmed for a coffee
break; pass --desk for the heavier configuration the test suite uses.
"""

import argparse

from mcnspde import desk_heat_config, fit_rate, report_text, run_study_tables

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--desk", action="store_true",
                    help="full desk scale: N up to 256 and 500 realizations")
parser.add_argument("--exact-mode", choices=("continuous", "semidiscrete"),
                    default="continuous",
                    help="compare against PDE or grid-Laplacian decay rates")
args = parser.parse_args()

if args.desk:
    overrides = dict(exact_mode=args.exact_mode)
else:
    overrides = dict(
        n_list=(8, 16, 32, 64, 128),
        mc_count=80,
        exact_mode=args.exact_mode,
    )

for scheme in ("mcn", "em"):
    config = desk_heat_config(scheme=scheme, base_seed=20260814, **overrides)
    table = run_study_tables(config)["l2"]
    print(report_text(table, config))
    # the coarse rows tell their own story; refit on the last three rows
    tail = tuple(row.n_steps for row in table.rows[-3:])
    print(f"tail rate over N={tail}: {fit_rate(table, tail):.4f}")
    print("=" * 60)

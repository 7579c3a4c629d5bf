"""Strong convergence of the corrected wave stepper, both error norms.

Each run is compared against the exact solution of the spatially
discrete equation, drawn with the very same Wiener path, so the table
isolates the time-stepping error.  Displacement error is measured in the discrete H1
seminorm and velocity error in L2, and both fit close to slope 2.
"""

import argparse

from mcnspde import desk_wave_config, report_text, run_study_tables

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--desk", action="store_true",
                    help="full desk scale: N up to 128, 300 realizations")
args = parser.parse_args()

if args.desk:
    config = desk_wave_config(base_seed=20260814)
else:
    config = desk_wave_config(
        n_list=(8, 16, 32, 64),
        mc_count=60,
        base_seed=20260814,
    )

tables = run_study_tables(config)
for norm, table in tables.items():
    print(report_text(table, config))
    print("=" * 60)

rates = {norm: f"{t.fitted_rate:.3f}" for norm, t in tables.items()}
print(f"fitted rates: {rates}")

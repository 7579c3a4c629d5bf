"""Run one benchmark workload of mcnspde and print its metrics as JSON.

    python3 perfbench/run.py --workload heat --seed 1 --seconds 35 --trace 0

The program is imported from src/ next to this directory, in this one
process (workers = 1).  The run repeats whole rounds of the workload
while the next round still fits in --seconds, checks every round's
output, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, medians over the rounds, with round times put on a
fixed machine speed by speed.py; with --trace 1 the layer functions
are wrapped and the metrics are per-layer medians over rounds.
Run records and spans go to perfbench/runs/.  See perfbench/README.md.
"""

from __future__ import annotations

# Only the standard library is imported before set-up is timed, so that
# setup_s includes numpy's import by the program.
import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

# Set-up is timed in this process and in this many fresh probe processes.
SETUP_PROBES = 10

DESK_SEED = 20260814  # the program's default base seed
HEAT_REALIZATIONS = 120
WAVE_REALIZATIONS = 12
VALIDATE_SAMPLES = 1000


def base_seed(seed: int) -> int:
    """Base seed of a heat or wave study for benchmark seed `seed`.

    Realization r draws its path from the key base_seed ^ r, so base seeds
    that differ only in low bits share paths.  Benchmark seeds therefore
    move bits 26 and up, far above any realization index.
    """
    return DESK_SEED + ((seed % 2**32) << 26)


def setup(workload: str, seed: int):
    """Import the program and build and validate the workload's inputs.

    Returns (mcnspde, inputs, seconds): the time from just before
    `import mcnspde` until the first path or sample could be drawn.
    """
    start = time.perf_counter()
    import mcnspde

    if workload == "validate":
        # The 3-SE bands of validate_statistics fail on about 2% of seeds
        # by design, so its inputs stay at the program's default seed.
        inputs = [{"samples": VALIDATE_SAMPLES, "seed": DESK_SEED}]
    else:
        if workload == "heat":
            inputs = [
                mcnspde.desk_heat_config(
                    scheme=scheme, mc_count=HEAT_REALIZATIONS, base_seed=base_seed(seed)
                )
                for scheme in ("mcn", "em")
            ]
        else:
            inputs = [
                mcnspde.desk_wave_config(mc_count=WAVE_REALIZATIONS, base_seed=base_seed(seed))
            ]
        for config in inputs:
            mcnspde.validate_config(config)
    return mcnspde, inputs, time.perf_counter() - start


def operation(mcnspde, workload: str, call):
    """The workload's one public entry point, traced under its layer's name."""
    if workload == "validate":
        return lambda kw: call("validation.validate_statistics", mcnspde.validate_statistics, **kw)
    return lambda config: call("harness.run_study_tables", mcnspde.run_study_tables, config)


def check(workload: str, config, output) -> list[str]:
    """Failure messages for one entry-point output (empty when right)."""
    import checks  # numpy-using, so imported only after set-up is timed

    if workload == "heat":
        return checks.check_heat(output["l2"], config)
    if workload == "wave":
        return checks.check_wave(output, config)
    return checks.check_validation(output)


def run_rounds(workload, inputs, op, seconds, timed):
    """Repeat rounds while the next one fits in `seconds`; check every output.

    `timed(body)` runs one round and returns (wall_s, cpu_s, scale), where
    scale puts the round on the reference speed (1.0 when not sampled).
    Returns (rounds, attempted, failed, problems) with one record per round.
    """
    rounds, problems, first_outputs = [], [], None
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        outputs = [None] * len(inputs)

        def body():
            nonlocal failed
            for i, config in enumerate(inputs):
                try:
                    outputs[i] = op(config)
                except Exception:
                    failed += 1
                    traceback.print_exc()

        wall, cpu, scale = timed(body)
        attempted += len(inputs)
        rounds.append({"wall_s": wall, "cpu_s": cpu, "scale": scale})
        for config, output in zip(inputs, outputs):
            if output is not None:
                problems += check(workload, config, output)
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            problems.append(f"round {len(rounds)}: outputs differ from round 1 on the same inputs")
        elapsed = time.perf_counter() - began
        if elapsed + (time.perf_counter() - round_began) > seconds:
            return rounds, attempted, failed, problems


def scaled_median(rounds, key: str) -> float:
    """Median over the rounds of a time put on the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in rounds)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process of its own."""
    argv = ["--probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("heat", "wave", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time set-up only and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcnspde" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'mcnspde'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mcnspde, inputs, setup_s = setup(args.workload, args.seed)
    if args.probe:
        print(repr(setup_s))
        return 0

    import spans

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        call = tracer.call

        def timed(body):
            wall, cpu = time.perf_counter(), time.process_time()
            tracer.round(body)
            return time.perf_counter() - wall, time.process_time() - cpu, 1.0

    else:
        import speed

        def call(name, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        sampler = speed.SpeedSampler()

        def timed(body):
            wall, cpu = sampler.timed(body)
            return wall, cpu, sampler.scale()

    op = operation(mcnspde, args.workload, call)
    rounds, attempted, failed, problems = run_rounds(
        args.workload, inputs, op, args.seconds, timed
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds}
    if tracer is None:
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        record["setup_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": scaled_median(rounds, "wall_s"), "unit": "s"},
            "cpu_s": {"value": scaled_median(rounds, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        layer_rounds = tracer.round_metrics()
        record["layers"] = layer_rounds
        metrics = spans.median_metrics(layer_rounds)
    RUNS_DIR.mkdir(exist_ok=True)
    mode = "trace" if tracer is not None else "run"
    (RUNS_DIR / f"{args.workload}.{mode}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(RUNS_DIR / f"{args.workload}.spans.npz")
    walls = ", ".join(f"{r['wall_s']:.3f} x {r['scale']:.3f}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, wall_s x scale per round {walls}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

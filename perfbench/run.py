"""The gridauth benchmark.

    python3 perfbench/run.py --workload authz-mix --seed 1 --seconds 20 --trace 0

Run from the root of a gridauth checkout; the program is imported from
``src/`` and the test oracle from ``tests/`` of that checkout.  Each
workload builds its inputs from ``--seed``, sets up ``SETUP_REPEATS``
times (reporting the median), then replays its fixed operation stream in
whole passes, one client in a closed loop, until ``--seconds`` have
passed and at least ``MIN_PASSES`` passes have run.  Times are scaled to
a reference host through a calibration block timed between operations
(see ``run_pass``).  Outputs are checked after the timed loop.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0``
and the per-layer metrics with ``--trace 1``; the metric names and units
are those of ``BENCHMARK.json``.  With ``--trace 1`` half the time runs
untraced, then one pass runs with spans recorded around calls into
gridauth; the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import Digest, Failure
from stats import latency_summary, self_times, typical_latencies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
#: a run replays at least this many passes, so every operation has a median
MIN_PASSES = 3
#: the calibration block runs before an operation once this much time has
#: gone by since the last one; it costs about 2% of a pass
CALIBRATE_EVERY_NS = 20_000_000
#: the calibration block's time on a quiet 2-vCPU KVM guest with Python
#: 3.11; reported times are scaled to a host on which it takes this long
REFERENCE_NS = 300_000
_WORDS = tuple(f"w{i:03d}" for i in range(200))
_TABLE = {word: i for i, word in enumerate(_WORDS)}


def calibrate() -> int:
    """A fixed block of interpreter work: loops, dict lookups, str methods.

    It allocates no containers, so the collector never runs inside it and
    the program's own garbage cannot change its time.
    """
    total = 0
    for _ in range(10):
        for word in _WORDS:
            total += _TABLE[word] + word.count("1")
    return total


def metric_specs(kind: str) -> list:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path, or exit."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import gridauth
        import oracle
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gridauth and the test oracle from {ROOT}: {exc}")
    for module, base in ((gridauth, ROOT / "src"), (oracle, ROOT / "tests")):
        if base not in Path(module.__file__).resolve().parents:
            sys.exit(f"perfbench: {module.__name__} comes from {module.__file__}, not {base}")


def run_pass(workload, tracer=None):
    """Replay the workload's operations once.

    Returns the pass context, the outputs, each operation's scaled latency
    in ns and the output digest.  A latency is scaled by ``REFERENCE_NS``
    over the time of the calibration block run just before it, which takes
    out most of the host's speed swings and keeps the program's own cost.
    """
    ctx = workload.begin_pass()
    outputs, latencies = [], []
    clock = time.perf_counter_ns
    span_names = tuple(f"op.{slot}" for slot in workload.slots)
    calibrated = scale = 0
    for i, op in enumerate(workload.ops):
        t0 = clock()
        if t0 - calibrated >= CALIBRATE_EVERY_NS:
            calibrate()
            calibrated = clock()
            scale = REFERENCE_NS / (calibrated - t0)
            t0 = clock()
        if tracer is None:
            outputs.append(workload.execute(ctx, op))
        else:
            outputs.append(tracer.root(i, span_names[op.slot], workload.execute, ctx, op))
        latencies.append((clock() - t0) * scale)
    digest = Digest()
    for output in outputs:
        digest.add("FAILED" if isinstance(output, Failure) else workload.render(output))
    for line in workload.end_pass(ctx):
        digest.add(line)
    return ctx, outputs, latencies, digest.hexdigest()


def replay_scenarios() -> tuple:
    """Run every bundled scenario script; returns (attempted, failed)."""
    from gridauth.scenario import run_scenario

    scripts = sorted((ROOT / "scenarios").glob("*.script"))
    failed = 0
    for script in scripts:
        try:
            passed = run_scenario(script).all_passed
        except Exception as exc:  # a broken script is a failed check, not a crash
            print(f"scenario {script.name}: {exc!r}", file=sys.stderr)
            passed = False
        if not passed:
            print(f"scenario {script.name}: expectations failed", file=sys.stderr)
            failed += 1
    return (len(scripts), failed) if scripts else (1, 1)


def measure(workload, seconds: float, trace: bool, out_dir: Path, seed: int) -> tuple:
    from spans import Tracer  # imports gridauth

    passes = []
    first = None
    started = time.perf_counter()
    deadline = started + (seconds / 2 if trace else seconds)
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        ctx, outputs, latencies, digest = run_pass(workload)
        if first is None:
            first = (ctx, outputs, digest)
        passes.append((latencies, digest, sum(isinstance(o, Failure) for o in outputs)))
    wall_s = time.perf_counter() - started
    n_ops = len(workload.ops)
    for output in first[1]:
        if isinstance(output, Failure):
            print(f"operation failed:\n{output.detail}", file=sys.stderr)
            break
    check_failures = workload.check(first[0], first[1])
    for index, message in check_failures[:5]:
        print(f"check failed (op {index}): {message}", file=sys.stderr)
    scenarios_attempted, scenarios_failed = replay_scenarios()
    # A failed check on the state the first pass left fails every pass that
    # gave the same outputs; a pass whose outputs differ fails whole.
    checks_passed = not check_failures and not scenarios_failed
    mismatched = sum(1 for p in passes if p[1] != first[2])
    attempted = len(passes) * n_ops + scenarios_attempted
    failed = scenarios_failed + sum(p[2] if checks_passed and p[1] == first[2] else n_ops for p in passes)

    # Each operation's latency is its median over the passes; the classes'
    # percentiles are then taken over operations, so the sample count is
    # the same in every run of a workload, whatever the program's speed.
    typical = typical_latencies([p[0] for p in passes])
    classes = ([], [])
    for op, latency in zip(workload.ops, typical):
        classes[op.slot].append(latency)
    summaries = [latency_summary(samples) for samples in classes]
    ops_per_s = n_ops / (sum(typical) / 1e9)

    lines = [
        f"passes={len(passes)} ops/pass={n_ops} wall_s={wall_s:.3f} "
        f"unscaled ops/s={len(passes) * n_ops / wall_s:.1f}",
        f"digest sha256={first[2]} repeated in {len(passes) - mismatched}/{len(passes)} passes",
        f"checks: {len(check_failures)} failed on pass 1; scenarios "
        f"{scenarios_attempted - scenarios_failed}/{scenarios_attempted} passed",
    ]
    for label, slot, summary in zip("ab", workload.slots, summaries):
        tail = f"p{summary['tail_p']:g}" if summary["tail_p"] is not None else "p50 (under 20 samples)"
        lines.append(f"class {label} = {slot}: n={summary['n']} ops per pass, tail={tail}")

    if not trace:
        values = {
            "ops_per_s": ops_per_s,
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "a.latency_p50_ms": summaries[0]["p50"] / 1e6,
            "a.latency_tail_ms": summaries[0]["tail"] / 1e6,
            "b.latency_p50_ms": summaries[1]["p50"] / 1e6,
            "b.latency_tail_ms": summaries[1]["tail"] / 1e6,
        }
        return values, attempted, failed, lines

    tracer = Tracer()
    with tracer:
        ctx, outputs, latencies, digest = run_pass(workload, tracer)
    attempted += n_ops
    if checks_passed and digest == first[2]:
        failed += sum(isinstance(o, Failure) for o in outputs)
    else:
        failed += n_ops
    if digest != first[2]:
        print("traced pass digest differs from the untraced passes", file=sys.stderr)
    lines.append(f"traced pass digest sha256={digest}")
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    own = self_times(tracer.spans)
    values = {}
    for name, _unit in metric_specs("per_layer"):
        layer_fn, _, measure_kind = name.rpartition(".")
        if measure_kind == "self_s":
            values[name] = own.get(layer_fn, 0) / 1e9
        elif measure_kind == "calls":
            values[name] = tracer.count(layer_fn)
    values.update(workload.layer_counts(ctx))
    values["jobmgr.live_fraction"] = tracer.live_fraction
    values["pdp.permits"] = tracer.permits
    values["pdp.trace_entries"] = tracer.trace_entries
    values["trace.ops_ratio"] = (n_ops / (sum(latencies) / 1e9)) / ops_per_s
    return values, attempted, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("authz-mix", "site-sim", "cli-state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from authz_mix import AuthzMix
    from cli_state import CliState
    from site_sim import SiteSim

    factory = {"authz-mix": AuthzMix, "site-sim": SiteSim, "cli-state": CliState}[args.workload]
    out_dir = HERE / "out"
    work_root = out_dir / f"work-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
            gc.collect()  # every set-up starts from a collected heap
            started = time.perf_counter()
            calibrate()
            calibrated = time.perf_counter()
            workload = factory(args.seed, work_root / f"setup{i}")
            scale = REFERENCE_NS / 1e9 / (calibrated - started)
            setup_times.append((time.perf_counter() - calibrated) * scale)
        gc.collect()
        gc.freeze()  # keep set-up objects out of the collector's way while timing
        values, attempted, failed, lines = measure(workload, args.seconds, bool(args.trace), out_dir, args.seed)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_root, ignore_errors=True)
    values["setup_s"] = statistics.median(setup_times)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"population: {workload.population()}")
    for line in lines:
        print(line)
    names = metric_specs("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

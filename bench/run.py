"""tenrank benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload matmul-exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; tenrank is imported from its
`src/` directory and nowhere else.  The run:

1. imports tenrank and does the workload's one-time set-up, then repeats
   both in SETUP_REPEATS - 1 fresh interpreters; `setup_s` is the median
   of these set-ups;
2. runs blocks of requests (see workloads.py) back to back, one at a time,
   until at least `--seconds` of requests have run at reference speed, and
   checks every output after timing it; a calibration probe between
   requests scales every gated time to a reference machine speed
   (`probe_ms`);
3. prints a human-readable report, writes the full result (environment,
   per-kind latencies, metrics) under `.bench_build/perfbench/`, and prints
   as its last line a JSON object with `correct`, `attempted`, `failed` and
   `metrics`.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
blocks run with spans (spans.py) and the first OVERHEAD_SAMPLE requests
also run untraced; the metrics are then the per-layer ones plus
`trace.overhead_ratio`, and the spans are written next to the result.
"""

from __future__ import annotations

import os

# one client, one process, no helper threads: keep BLAS single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, block_dir, block_rng

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
#: the calibration probe: a fixed loop of Fraction arithmetic that shares no
#: code with tenrank, and the time it takes on the reference machine
PROBE_STEPS = 400
PROBE_REF_MS = 2.0
#: requests at the start of the first block that the traced run also runs
#: untraced, to measure what tracing costs on identical work (see run_blocks)
OVERHEAD_SAMPLE = 16


class BenchError(Exception):
    pass


def load_tenrank():
    """Import tenrank from this checkout's src/ only."""
    package = SRC / "tenrank" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no tenrank sources at {package.parent}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tenrank
    import tenrank.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(tenrank.__file__).resolve() != package.resolve():
        raise BenchError(f"imported tenrank from {tenrank.__file__}, not {package}")
    return tenrank


def probe_ms() -> float:
    """Milliseconds taken by the calibration probe right now.

    On a shared machine the speed drifts with other tenants' load (up to
    1.7x over seconds to minutes on a 2-core VM), and CPU time drifts with
    it.  Every timing the
    benchmark gates on is scaled by PROBE_REF_MS / (probes taken around
    it), i.e. expressed in milliseconds of a machine on which the probe
    takes PROBE_REF_MS.  The probe is the fastest of three short loops run
    with the garbage collector paused, so that neither a collection of the
    previous request's garbage nor an interrupt inflates it."""
    best = None
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter_ns()
            acc, x = Fraction(0), Fraction(3, 7)
            for i in range(1, PROBE_STEPS):
                acc = acc + Fraction(i, i + 2) * x
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        gc.enable()
    return best * 1e-6


def timed_setup(workload):
    """Import tenrank and run the workload's set-up; returns the time in
    reference-speed seconds, tenrank and the set-up state.  The plain inputs
    the set-up converts are generated before the clock starts."""
    plain = workload.setup_inputs()
    before = [probe_ms() for _ in range(3)]
    start = time.perf_counter()
    tr = load_tenrank()
    state = workload.setup(tr, plain)
    elapsed = time.perf_counter() - start
    speed = statistics.median(before + [probe_ms() for _ in range(3)])
    return elapsed * PROBE_REF_MS / speed, tr, state


def setup_in_fresh_interpreter(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Running blocks
# ---------------------------------------------------------------------------


def run_blocks(workload, tr, state, seed, seconds, workdir, tracer=None):
    """Run whole blocks until `seconds` of requests have run at reference
    speed, so that the machine's drift does not decide how many blocks a
    run covers.  Returns per-request kinds, latencies (raw and at reference
    speed) and failures.

    A calibration probe runs before every request and after the last; a
    request's reference-speed latency divides by the mean of the probes
    just before and just after it.  With a tracer, each of the
    first OVERHEAD_SAMPLE requests also runs untraced, right before or
    after its traced run (alternately), so the pair shares whatever else
    the machine is doing; those untraced times are returned as
    `untraced_ms` beside the traced `paired_ms`."""
    kinds, latencies, normalized, failures, all_probes = [], [], [], [], []
    untraced, paired = [], []
    wall = 0.0
    block = 0
    clock = time.perf_counter_ns
    while block == 0 or sum(normalized) * 1e-3 < seconds:
        requests = workload.block(tr, state, block_rng(workload.name, seed, block),
                                  block_dir(workdir, block))
        gc.collect()
        outputs, probes = [], []
        for index, request in enumerate(requests):
            probes.append(probe_ms())
            pair = tracer is not None and block == 0 and index < OVERHEAD_SAMPLE
            if pair and index % 2 == 0:
                untraced.append(_time_untraced(request))
            token = tracer.begin(len(kinds) + index) if tracer else None
            start = clock()
            try:
                out, err = request.run(), None
            except Exception as exc:  # a raising request is a failed request
                out, err = None, exc
            end = clock()
            if tracer:
                tracer.end(token, err is not None)
            if pair:
                paired.append((end - start) * 1e-6)
                if index % 2 == 1:
                    untraced.append(_time_untraced(request))
            outputs.append((end - start, out, err))
        probes.append(probe_ms())
        all_probes.extend(probes)
        for index, (request, (ns, out, err)) in enumerate(zip(requests, outputs)):
            speed = (probes[index] + probes[index + 1]) / 2
            kinds.append(request.kind)
            latencies.append(ns * 1e-6)
            normalized.append(ns * 1e-6 * PROBE_REF_MS / speed)
            failures.append(err is not None or not _checked(request, out))
        wall += sum(ns for ns, _, _ in outputs) * 1e-9
        block += 1
    return {"kinds": kinds, "latency_ms": latencies, "norm_ms": normalized,
            "failed": failures, "wall_s": wall, "blocks": block, "probes_ms": all_probes,
            "untraced_ms": untraced, "paired_ms": paired}


def _time_untraced(request) -> float:
    start = time.perf_counter_ns()
    try:
        request.run()
    except Exception:  # counted once, on the traced run of the same request
        pass
    return (time.perf_counter_ns() - start) * 1e-6


def _checked(request, out) -> bool:
    try:
        return bool(request.check(out))
    except Exception:  # a malformed output is a wrong answer
        return False


def percentile(values, p):
    """Inclusive-method percentile with the sorted neighbours it used."""
    ordered = sorted(range(len(values)), key=values.__getitem__)
    pos = (len(values) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    value = values[ordered[lo]] * (1 - frac) + values[ordered[hi]] * frac
    return value, (ordered[lo], ordered[hi])


def per_kind(phase):
    out = {}
    for kind in dict.fromkeys(phase["kinds"]):
        lat = [x for k, x in zip(phase["kinds"], phase["latency_ms"]) if k == kind]
        out[kind] = {"count": len(lat), "median_ms": statistics.median(lat),
                     "min_ms": min(lat), "max_ms": max(lat)}
    return out


def end_to_end(phase, setup_s):
    """The gated metrics, from reference-speed latencies, and where the
    percentiles fell (with the raw, unscaled figures beside them).

    Throughput is the run's request count over the time its mix takes when
    every request of a kind takes that kind's median latency.  A few
    requests slowed by other tenants move a sum of latencies but not these
    medians, while a change that speeds up a kind's typical request moves
    the throughput in full.  Throughput from the plain sum is printed
    beside it."""
    lat = phase["norm_ms"]
    p50, p50_at = percentile(lat, 0.5)
    p90, p90_at = percentile(lat, 0.9)
    n = len(lat)
    failed = sum(phase["failed"])
    by_kind = {}
    for kind, x in zip(phase["kinds"], lat):
        by_kind.setdefault(kind, []).append(x)
    mix_s = sum(len(xs) * statistics.median(xs) for xs in by_kind.values()) * 1e-3
    metrics = {
        "throughput_ops_s": (n / mix_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "success_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    kinds = phase["kinds"]
    raw = phase["latency_ms"]
    placement = {"p50": sorted({kinds[i] for i in p50_at}),
                 "p90": sorted({kinds[i] for i in p90_at}),
                 "samples": n, "beyond_p90": sum(1 for x in lat if x > p90),
                 "fail_ratio": failed / n,
                 "summed_throughput_ops_s": n / (sum(lat) * 1e-3),
                 "raw_throughput_ops_s": n / phase["wall_s"],
                 "raw_latency_p50_ms": percentile(raw, 0.5)[0],
                 "raw_latency_p90_ms": percentile(raw, 0.9)[0]}
    return metrics, placement


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tenrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(metrics: dict, placement: dict | None):
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if placement:
        print(f"  samples {placement['samples']} ({placement['beyond_p90']} beyond p90), "
              f"fail_ratio {placement['fail_ratio']:.4g}, "
              f"p50 in {'/'.join(placement['p50'])}, p90 in {'/'.join(placement['p90'])}")
        print(f"  throughput from summed latencies "
              f"{placement['summed_throughput_ops_s']:.6g} 1/s")
        print(f"  unscaled: throughput {placement['raw_throughput_ops_s']:.6g} 1/s, "
              f"p50 {placement['raw_latency_p50_ms']:.6g} ms, "
              f"p90 {placement['raw_latency_p90_ms']:.6g} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode
                 for name in WORKLOADS]
        return max(codes)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        print(timed_setup(workload)[0])
        return 0

    setup_main, tr, state = timed_setup(workload)
    setups = [setup_main] + [setup_in_fresh_interpreter(workload.name)
                             for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(setups)

    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{name}-inputs-{os.getpid()}"
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            phase = run_blocks(workload, tr, state, args.seed, args.seconds, workdir,
                               tracer=tracer)
            layer = tracer.layer_metrics(len(phase["kinds"]))
            layer["trace.overhead_ratio"] = sum(phase["untraced_ms"]) / sum(phase["paired_ms"])
            units = {m["name"]: m["unit"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {k: (v, units[k]) for k, v in layer.items()}
            placement = None
            tracer.write(OUT / f"{name}-spans.tsv.gz")
        else:
            phase = run_blocks(workload, tr, state, args.seed, args.seconds, workdir)
            metrics, placement = end_to_end(phase, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    result = {"env": env, "setup_runs_s": setups, "blocks": phase["blocks"],
              "kinds": per_kind(phase), "placement": placement,
              "requests": list(zip(phase["kinds"], phase["latency_ms"], phase["norm_ms"])),
              "probes_ms": phase["probes_ms"]}
    failed = sum(phase["failed"])
    attempted = len(phase["failed"])
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1))
    print(f"tenrank benchmark {workload.name}: python {env['python']}, numpy {env['numpy']}, "
          f"{env['cores']} cores, commit {env['commit']}, seed {args.seed}")
    report(metrics, placement)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

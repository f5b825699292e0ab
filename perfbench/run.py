"""cliquedyn benchmark: seeded, single-threaded, closed-loop workloads.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 18 --trace 0

One client sends the next request only after the previous one returned.
A run keeps sending until the requests have taken `--seconds` seconds in
the library (checks and input generation between requests are not
counted), then prints one line per metric and, last, a JSON summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics. Their times are taken at a
reference machine speed, with the calibration kernel in calibrate.py
run every half second of request time; the raw wall-clock figures are
printed as `(info)` lines. Every output is checked after its request, outside
the timed region, and a few leading outputs are recomputed in a fresh
interpreter to prove the run is reproducible.

`--trace 1` runs every input twice, first with the library's public
functions wrapped (see tracing.py), then unwrapped for the overhead
ratio, and reports the per-layer metrics. Spans are written to
`.bench_out/` at the root of the checkout.

The library is imported from `src/` next to this directory; without it
the benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cliquedyn  # noqa: E402

if not Path(cliquedyn.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"cliquedyn was imported from {cliquedyn.__file__}, not from {ROOT / 'src'}")

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
MIN_REQUESTS_FOR_P90 = 100
OUT_DIR = ROOT / ".bench_out"


def _child(*args: str) -> str:
    """Run this script in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


@dataclass
class Phase:
    """What one sequence of requests produced."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # at reference machine speed, untraced runs only
    kernel: list[float] = field(default_factory=list)  # calibration readings, untraced runs only
    untraced: list[float] = field(default_factory=list)  # paired replays, traced runs only
    failed: set[int] = field(default_factory=set)  # indices of failed requests
    unknowns: int = 0  # classifications that ended `unknown`
    digests: list[str] = field(default_factory=list)  # per-request output digests


class Runner:
    def __init__(self, wl: workloads.Workload, seed: int, tracer=None):
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.clock: calibrate.ReferenceClock | None = None

    def request(self, index: int, inp, traced: bool):
        """Run one request; return (output, seconds)."""
        if traced:
            self.tracer.request = index
            self.tracer.install()
        try:
            if self.clock:
                self.clock.start(index)
                try:
                    out = self.wl.call(inp)
                finally:
                    took = self.clock.stop()
                return out, took
            start = time.perf_counter()
            out = self.wl.call(inp)
            return out, time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()

    def settle(self, ph: Phase, index: int, inp, traced: bool = False):
        """Run and check one request; return (seconds, encoded output or None)."""
        start = time.perf_counter()
        try:
            out, took = self.request(index, inp, traced)
        except Exception:
            ph.failed.add(index)
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - start, None
        try:
            self.wl.check(inp, out)
        except Exception as exc:
            ph.failed.add(index)
            print(f"request {index}: output check failed: {exc!r}", file=sys.stderr)
        if self.wl.unknown and not traced:
            ph.unknowns += self.wl.unknown(out)
        return took, self.wl.encode(out)

    def phase(self, seconds: float, min_requests: int, keep_digests: int) -> Phase:
        """Send requests until they took `seconds` and at least `min_requests` ran.

        Without a tracer, request times are also taken at the reference
        machine speed (see calibrate.py). With a tracer, each input runs traced and then again untraced, so
        both sides of the overhead ratio see the same inputs and machine
        conditions; `seconds` counts both, and the two outputs must agree.
        """
        ph = Phase()
        spent = 0.0
        inputs = self.wl.inputs(self.seed)
        if not self.tracer:
            self.clock = calibrate.ReferenceClock()
        while len(ph.latencies) < min_requests or spent < seconds:
            index = len(ph.latencies)
            inp = next(inputs)
            took, text = self.settle(ph, index, inp, traced=self.tracer is not None)
            ph.latencies.append(took)
            spent += took
            if self.tracer:
                took, plain = self.settle(ph, index, inp)
                ph.untraced.append(took)
                spent += took
                if plain != text:
                    ph.failed.add(index)
                    print(f"request {index}: traced and untraced outputs differ", file=sys.stderr)
            if len(ph.digests) < keep_digests:
                ph.digests.append("failed" if text is None else workloads.digest(text))
        if self.clock:
            self.clock.finish()
            ph.scaled, ph.kernel = self.clock.scaled, self.clock.readings
            self.clock = None
        return ph


def _setup_seconds(wl: workloads.Workload, seed: int, scale: str) -> tuple[float, float]:
    """Process start to first request ready (import plus input building),
    raw and rescaled by the calibration kernel run in that process."""
    start = time.monotonic()
    ready, kernel_s = map(float, _child("--child", "setup", "--workload", wl.name, "--seed", str(seed),
                                        "--scale", scale).split())
    raw = ready - start
    return raw, raw * calibrate.REFERENCE_KERNEL_S / kernel_s


def _throughput(wl: workloads.Workload, latencies: list[float]) -> float:
    """Items per second over the whole run, or for a workload with a
    `block`, the median over blocks of that many consecutive requests."""
    if not wl.block:
        return wl.items * len(latencies) / sum(latencies)
    blocks = [latencies[i:i + wl.block] for i in range(0, len(latencies), wl.block)]
    if len(blocks) > 1 and len(blocks[-1]) < wl.block:
        blocks.pop()
    return statistics.median(wl.items * len(b) / sum(b) for b in blocks)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def plain_run(wl: workloads.Workload, seed: int, seconds: float, scale: str):
    setup = [_setup_seconds(wl, seed, scale) for _ in range(SETUP_SAMPLES)]
    prefix = wl.replay_prefix
    ph = Runner(wl, seed).phase(seconds, prefix, prefix)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    replayed = json.loads(_child("--child", "digests", "--workload", wl.name, "--seed", str(seed),
                                 "--scale", scale, "--count", str(prefix)))
    mismatched = {i for i, (a, b) in enumerate(zip(ph.digests, replayed)) if a != b}
    if mismatched:
        print(f"{len(mismatched)} outputs differ when replayed in a fresh interpreter", file=sys.stderr)
    failed = ph.failed | mismatched
    lat, raw = ph.scaled, ph.latencies
    attempted = len(lat)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "items_per_s": (_throughput(wl, lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
    }
    info = {
        "requests": (attempted, "count"),
        "failed_ratio": (len(failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    if attempted >= MIN_REQUESTS_FOR_P90:
        info["latency_p90_ms"] = (_quantile(lat, 9) * 1e3, "ms")
    info["machine_speed"] = (calibrate.REFERENCE_KERNEL_S / statistics.median(ph.kernel), "ratio")
    info["raw_setup_s"] = (statistics.median(r for r, _ in setup), "s")
    info["raw_items_per_s"] = (_throughput(wl, raw), "1/s")
    info["raw_latency_p50_ms"] = (statistics.median(raw) * 1e3, "ms")
    if attempted >= MIN_REQUESTS_FOR_P90:
        info["raw_latency_p90_ms"] = (_quantile(raw, 9) * 1e3, "ms")
    if wl.unknown:
        info["unknown_ratio"] = (ph.unknowns / (attempted * wl.items), "ratio")
    info["output_digest"] = (workloads.digest("\n".join(ph.digests)), "sha256")
    return attempted, len(failed), metrics, info


def traced_run(wl: workloads.Workload, seed: int, seconds: float, scale: str):
    tracer = tracing.Tracer()
    ph = Runner(wl, seed, tracer).phase(seconds, 1, 0)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    traced_s = sum(ph.latencies)
    # per input, since a request that hits a resource limit can vary 2x
    # between two runs of the same input and would swamp a ratio of sums
    overhead = statistics.median(t / u for t, u in zip(ph.latencies, ph.untraced))
    units = tracing.per_layer_units()
    metrics = {name: (value, units[name]) for name, value in tracer.metrics(traced_s, overhead).items()}
    attempted = len(ph.latencies)
    info = {"requests": (attempted, "count"), "failed_ratio": (len(ph.failed) / attempted, "ratio")}
    return attempted, len(ph.failed), metrics, info


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the JSON summary."""
    wl = workloads.build(name, scale)
    attempted, failed, metrics, info = (traced_run if trace else plain_run)(wl, seed, seconds, scale)
    lines = [f"{name} seed={seed} trace={int(trace)}"]
    lines += [f"  {key} {value} {unit}" for key, (value, unit) in metrics.items()]
    lines += [f"  (info) {key} {value} {unit}" for key, (value, unit) in info.items()]
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, summary


def _child_main(args) -> None:
    wl = workloads.build(args.workload, args.scale)
    if args.child == "setup":
        next(wl.inputs(args.seed))
        print(time.monotonic(), calibrate.kernel_seconds(calibrate.READING_REPEATS))
    else:
        digests = []
        for inp in islice(wl.inputs(args.seed), args.count):
            try:
                digests.append(workloads.digest(wl.encode(wl.call(inp))))
            except Exception as exc:
                digests.append(f"error: {exc!r}")
        print(json.dumps(digests))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--child", choices=("setup", "digests"), help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child_main(args)
        return
    lines, summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print("\n".join(lines))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

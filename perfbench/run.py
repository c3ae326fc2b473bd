"""Benchmark of the kleppner decision engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {fixtures,sweep,decide} --seed N \
        --seconds S --trace {0,1}

The workload's inputs are made from the seed (see workloads.py).  One process
runs the load, with no threads.  It makes whole passes over the workload's
items until another pass would overrun the time budget, always at least one.
Every output of the first pass is checked against an independent reference;
every later pass must reproduce the first pass exactly.

With --trace 0 the result carries the end-to-end metrics, measured untraced.
With --trace 1 it carries the per-layer metrics: half the budget runs
untraced, then the tracer in tracer.py wraps the package from outside, the
inputs are built again and the other half runs traced.

Timings are scaled to a reference machine speed (see SpeedSampler); the raw
figures are printed beside them.  Detail lines go to standard output first;
the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
SAMPLE_INTERVAL_S = 0.01
WINDOW_S = 0.05
# Typical duration of reference_kernel on the 2-CPU machine of the baseline.
REFERENCE_S = 400e-6


def reference_kernel() -> int:
    """Fixed pure-Python work, independent of kleppner and with a small
    footprint: exact Fraction arithmetic, as in the workloads' phases."""
    x = Fraction(0)
    seen = {}
    for i in range(60):
        x = (x + Fraction(i % 7, 1 + i % 12)) % 1
        seen[(i % 13, x)] = i
    return len(seen)


class SpeedSampler:
    """Time-uniform samples of how fast the machine runs Python right now.

    The benchmark machine shares its cores: the same code runs up to 1.5x
    slower from one moment to the next, in stretches from a fraction of a
    second to minutes.  While active, a SIGALRM handler runs
    `reference_kernel` every SAMPLE_INTERVAL_S of wall time and records when
    it ran and for how long.  `scaled` turns a measured interval into its
    length at reference speed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.sample()  # so that no interval goes without a sample
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval from t0 to t1, less the sampler's own time inside it,
        times REFERENCE_S over the mean kernel time sampled within WINDOW_S
        of it (over all samples when none is that close)."""
        own = sum(self.durations[bisect_left(self.starts, t0):bisect_left(self.starts, t1)])
        near = self.durations[bisect_left(self.starts, t0 - WINDOW_S):
                              bisect_right(self.starts, t1 + WINDOW_S)]
        return (t1 - t0 - own) * REFERENCE_S / statistics.mean(near or self.durations)


def import_engine() -> None:
    """Import kleppner from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kleppner
    found = Path(kleppner.__file__).resolve().parent
    if found != src / "kleppner":
        raise ImportError(f"kleppner imported from {found}, not from {src}")


class Passes:
    """The passes of one untraced or traced phase of a run."""

    def __init__(self, n_items: int) -> None:
        self.intervals: list[list[tuple[float, float]]] = [[] for _ in range(n_items)]
        self.latency_s: list[list[float]] = []  # scaled, filled in by `finish`
        self.canons: list[str] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.decided = 0
        self.asked = 0

    def finish(self, sampler: SpeedSampler) -> None:
        self.latency_s = [[sampler.scaled(t0, t1) for t0, t1 in item]
                          for item in self.intervals]

    @property
    def raw_wall_s(self) -> float:
        """`wall_s` without scaling, sampler time included."""
        return sum(statistics.median(t1 - t0 for t0, t1 in item) for item in self.intervals)

    def item_medians(self) -> list[float]:
        return [statistics.median(lat) for lat in self.latency_s]

    @property
    def wall_s(self) -> float:
        """Wall time of one pass: the sum of the items' median latencies."""
        return sum(self.item_medians())

    def fingerprint(self) -> str:
        return hashlib.sha256("\n".join(self.canons).encode()).hexdigest()


def run_passes(wl, budget_s: float, tracer=None,
               reference: list[str] | None = None) -> Passes:
    """Whole passes over `wl.items` until another would overrun `budget_s`.

    Without `reference`, the first pass is checked item by item and becomes
    the reference; every other pass must reproduce the reference exactly.
    Call `finish` on the result once a sampler has sampled past its end.
    """
    result = Passes(len(wl.items))
    pass_s: list[float] = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        first = reference is None and result.passes == 0
        for i, item in enumerate(wl.items):
            error = None
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                raw = wl.run(item)
            except Exception as exc:  # an engine failure is a failed item, not a crash
                raw, error = None, f"{type(exc).__name__}: {exc}"
            result.intervals[i].append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.active = False
            result.attempted += 1
            canon = f"error: {error}" if error else wl.canon(item, raw)
            if first:
                result.canons.append(canon)
                problems = [f"item {i} raised {error}"] if error else wl.check(
                    i, item, raw, result.canons)
                if not error:
                    decided, asked = wl.queries(item, raw)
                    result.decided += decided
                    result.asked += asked
            else:
                want = (reference or result.canons)[i]
                problems = ([] if canon == want
                            else [f"item {i}: output differs from the first pass"])
            if problems:
                result.failed += 1
                result.problems.extend(problems)
        result.passes += 1
        pass_s.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + statistics.median(pass_s) > budget_s:
            return result


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least ten
    samples beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(scaled, raw) seconds from starting a fresh interpreter to having the
    inputs built, once per probe; each probe samples its own speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            _out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        factor, own = float(line[1]), float(line[2])
        times.append(((elapsed - own) * factor, elapsed))
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int, wl) -> tuple[Passes, dict, list[str]]:
    import tracer

    tracer.assert_untraced()
    setup = measure_setup(workload, seed)
    with SpeedSampler() as sampler:
        result = run_passes(wl, seconds)
        time.sleep(WINDOW_S)  # sample past the last item
    result.finish(sampler)
    tracer.assert_untraced()
    medians = result.item_medians()
    tail_s, tail_pct = tail(medians)
    metrics = {
        "setup_s": metric(statistics.median(s for s, _raw in setup), "s"),
        "wall_s": metric(result.wall_s, "s"),
        "item_p50_ms": metric(1000 * statistics.median(medians), "ms"),
        "item_tail_ms": metric(1000 * tail_s, "ms"),
        "decided_frac": metric(result.decided / max(result.asked, 1), "ratio"),
        "ok_frac": metric(1 - result.failed / result.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters, scaled/raw s: "
        + ", ".join(f"{s:.4f}/{raw:.4f}" for s, raw in setup),
        f"speed: {len(sampler.durations)} samples, mean kernel "
        f"{1e6 * statistics.mean(sampler.durations):.1f} us (reference {1e6 * REFERENCE_S:.0f}); "
        f"raw wall_s {result.raw_wall_s:.4f}",
        f"item_p50_ms / item_tail_ms: over {len(medians)} items (each the median of its "
        f"{result.passes} passes); tail at percentile {tail_pct:.1f}",
        f"decided_frac: {result.decided} of {result.asked} decision queries",
    ]
    return result, metrics, notes


def per_layer(workload: str, seed: int, seconds: int, wl) -> tuple[Passes, dict, list[str]]:
    import tracer
    import workloads

    tracer.assert_untraced()
    tr = tracer.Tracer()
    with SpeedSampler() as sampler:
        plain = run_passes(wl, seconds / 2)
        tr.install()
        try:
            if not tr.installed or not hasattr(sys.modules["kleppner.regularity"].kleppner,
                                               tracer.MARK):
                raise AssertionError("tracer installed no wrappers")
            tr.active = True
            traced_wl = workloads.WORKLOADS[workload](ROOT, seed)
            tr.active = False
            at_setup = tr.flat()
            traced = run_passes(traced_wl, seconds / 2, tracer=tr, reference=plain.canons)
            total = tr.flat()
        finally:
            tr.uninstall()
        time.sleep(WINDOW_S)  # sample past the last item
    plain.finish(sampler)
    traced.finish(sampler)
    tracer.assert_untraced()
    # set-up once, plus one pass
    flat = {k: at_setup.get(k, 0) + (v - at_setup.get(k, 0)) / traced.passes
            for k, v in total.items()}
    metrics = {}
    for name, value in tracer.layer_metrics(flat).items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_per_tried") else "count")
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_frac"] = metric((traced.wall_s - plain.wall_s) / plain.wall_s,
                                            "ratio")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems += traced.problems
    spans = sorted(((k[:-7], v) for k, v in flat.items() if k.endswith(".self_s")),
                   key=lambda kv: -kv[1])
    notes = [f"traced passes: {traced.passes}; scaled wall_s untraced {plain.wall_s:.4f}, "
             f"traced {traced.wall_s:.4f}",
             "raw self time per pass (set-up included), top spans: "
             + ", ".join(f"{k}={v:.4f}s/{flat.get(k + '.calls', 0):g}" for k, v in spans[:15])]
    return plain, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fixtures", "sweep", "decide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="build the inputs, print 'ready <scale>' and exit "
                             "(set-up timing)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        with SpeedSampler() as sampler:
            import_engine()
            import workloads
            wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up {args.workload!r} in {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        print(f"ready {REFERENCE_S / statistics.mean(sampler.durations)!r} "
              f"{sum(sampler.durations)!r}", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    result, metrics, notes = measure(args.workload, args.seed, args.seconds, wl)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result.passes} items={len(wl.items)}")
    print(f"fingerprint={result.fingerprint()}")
    for note in notes:
        print(note)
    for problem in result.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

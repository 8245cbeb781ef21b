"""ipclr benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times whole passes of the workload with tracing off, as many
as fit in ``--seconds`` seconds (at least one), and reports the end-to-end
metrics listed in BENCHMARK.json.  ``--trace 1`` runs one untraced reference pass and two
traced passes (on the inputs of two different seeds) and reports the
per-layer metrics.  Human-readable lines go to stderr; the last line of
stdout is the JSON result.  Scratch files live under ``.perfbench_work``
in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5


class Tally:
    """Operations attempted and failed, and the SNR reported by each pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.snrs: list[float] = []

    def add(self, attempted: int, failed: int, snr: float | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if snr is not None and math.isfinite(snr):
            self.snrs.append(snr)


def one_pass(wl, i: int, tally: Tally, recorder=None):
    """Time ``wl.run(i)`` and apply its gates; returns (output, seconds)."""
    from layers import instrument

    undo = instrument(recorder) if recorder is not None and wl.in_process else None
    out = None
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = wl.run(i)
        else:
            with recorder.operation(wl.root_span):
                out = wl.run(i, recorder)
    except Exception:
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - t0
        if undo is not None:
            undo()
    if out is None:
        tally.add(wl.ops_per_pass, wl.ops_per_pass)
        return None, wall
    try:
        tally.add(*wl.check(i, out))
    except Exception:
        traceback.print_exc()
        tally.add(wl.ops_per_pass, wl.ops_per_pass)
        return None, wall
    return out, wall


def setup(cls, seed: int, workdir: Path):
    wl = cls(seed, workdir)
    wl.prepare(0)
    wl.warmup()
    return wl


def timed_run(cls, args, workdir: Path, import_s: float):
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = setup(cls, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    outs, walls = [], []
    start = time.perf_counter()
    i = 0
    # Start another pass only if a median-length pass still fits the window,
    # so a pass longer than half the window always runs exactly once.
    while i == 0 or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        if i:
            wl.prepare(i)
        out, wall = one_pass(wl, i, tally)
        outs.append(out)
        walls.append(wall)
        i += 1
    print(f"{cls.name}: {i} passes, wall {['%.3f' % w for w in walls]}",
          file=sys.stderr)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": wl.wall_s(outs, walls),
        "snr_db": statistics.median(tally.snrs) if tally.snrs else 0.0,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mib": wl.peak_rss_mib(),
    }
    return metrics, tally


def traced_run(cls, args, workdir: Path, import_s: float):
    import layers
    from spans import Recorder

    wl = setup(cls, args.seed, workdir)
    tally = Tally()
    ref, ref_wall = one_pass(wl, 0, tally)
    traces = []
    for i in (0, 1):
        wl.prepare(i)
        recorder = Recorder()
        _, wall = one_pass(wl, i, tally, recorder)
        traces.append((recorder.spans, wall))
    print(f"{cls.name}: untraced {ref_wall:.3f} s, traced "
          f"{[round(wall, 3) for _, wall in traces]} s", file=sys.stderr)
    trace, traced_wall = traces[0]
    metrics = layers.layer_metrics(trace)
    metrics["trace.overhead_s"] = traced_wall - ref_wall

    counts = [layers.counts(spans) for spans, _ in traces]
    same = counts[0] == counts[1]
    if not same:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        print(f"computed counts differ between seeds: {diff}", file=sys.stderr)
    tally.add(1, 0 if same else 1)
    try:
        metrics.update(wl.extras(0, ref, ref_wall, trace))
    except Exception:
        traceback.print_exc()
        tally.add(1, 1)
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the ipclr sources under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import envinfo

    print(f"environment: {json.dumps(envinfo.collect())}", file=sys.stderr)
    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        measured, tally = run(cls, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in listed:
        value = float(measured.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

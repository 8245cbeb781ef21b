"""The three benchmark workloads: table1, denoise_sweep and cli_files.

Each workload is a closed loop with one client.  ``prepare(i)`` makes the
inputs of pass ``i`` from the workload seed (untimed), ``run(i)`` is the timed
pass, and ``check(i, out)`` applies the correctness gates and returns
``(attempted, failed, snr_db)``.  ``extras`` adds the workload's own traced
metrics.  Run as a script, ``table1-pass SEED INDEX`` times pass INDEX of
table1 in a fresh process, which the single-thread baseline needs because
the BLAS thread count is fixed when numpy loads.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ipclr import experiments  # noqa: E402
from ipclr.frames import StftConfig, analysis_window, stft  # noqa: E402
from ipclr.io import read_wav, write_wav  # noqa: E402
from ipclr.signals import SignalBuffer, add_noise_at_snr, snr_db  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402

# ipclr/__init__.py re-exports the function ``denoise`` under the module's name.
denoise_mod = importlib.import_module("ipclr.denoise")

CHILD_TIMEOUT_S = 150


class PassSeeds:
    """Seed of pass ``i`` (table seed or noise seed), drawn in order from the workload seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._seeds: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(0, 2**31 - 1)))
        return self._seeds[i]


def _child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def _peak_rss_mib(who: int) -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_wall(outs: list, walls: list[float]) -> float:
    """Median time of one whole pass."""
    return statistics.median(walls)


class Table1:
    """``experiments.run_table1`` at the published geometry, one table seed a pass."""

    name = "table1"
    root_span = "experiments.run_table1"
    in_process = True
    ops_per_pass = 1
    wall_s = staticmethod(median_wall)
    # Criterion-4 rows: (representation, shift) -> (0/10/20 dB targets, tolerance)
    TARGETS = {
        ("ipc", "1/4"): ([21.8, 31.6, 41.5], 2.0),
        ("amplitude", "1/4"): ([1.3, 11.4, 21.4], 1.0),
        ("stft", "1/4"): ([2.2, 2.3, 2.3], 1.5),
        ("ipc", "1/2"): ([18.8, 28.9, 38.7], 2.0),
        ("ipc", "1/8"): ([24.5, 34.3, 44.2], 2.0),
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.seeds = PassSeeds(seed)

    def prepare(self, i: int) -> None:
        pass

    def warmup(self) -> None:
        clean = experiments.default_signal()
        for div in experiments.SHIFT_DIVISORS:
            config = experiments.analysis_config(experiments.WINDOW_LEN, div)
            experiments.rank_cell_snr(clean, config, "ipc", k=1, input_snr_db=0.0)

    def run(self, i: int, recorder=None):
        spec = experiments.ExperimentSpec(kind="table1", seeds=(self.seeds[i],))
        return experiments.run_table1(spec)

    def check(self, i: int, cells) -> tuple[int, int, float]:
        values = [c.snr_db for c in cells if c.input_snr_db is not None]
        ok = all(math.isfinite(v) for v in values)
        rows = {(r["representation"], r["shift"]): r for r in experiments.table1_layout(cells)}
        for key, (expected, tol) in self.TARGETS.items():
            got = [rows[key][f"snr_in_{level:g}"] for level in experiments.INPUT_SNRS_DB]
            if not all(abs(g - e) <= tol for g, e in zip(got, expected)):
                print(f"table1 gate: {key} = {got}, want {expected} +- {tol}",
                      file=sys.stderr)
                ok = False
        ipc = [c.snr_db for c in cells
               if c.representation == "ipc" and c.input_snr_db is not None]
        return 1, 0 if ok else 1, statistics.fmean(ipc)

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib(resource.RUSAGE_SELF)

    def extras(self, i: int, ref, ref_wall: float, trace: list[spans.Span]) -> dict:
        cmd = [sys.executable, str(Path(__file__)), "table1-pass", str(self.seed), str(i)]
        env = _child_env(IPCLR_THREADS="1", OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        if child["failed"]:
            raise RuntimeError("single-thread table1 pass missed its gates")
        single = child["wall_s"]
        return {
            "experiments.pool_busy_ratio": layers.pool_busy_ratio(trace, self.root_span),
            "experiments.single_thread_s": single,
            "experiments.parallel_speedup": single / ref_wall,
            "experiments.single_thread_peak_rss_mib": _peak_rss_mib(resource.RUSAGE_CHILDREN),
        }


class DenoiseSweep:
    """The criterion-8 ``lambda_sweep``: 2.56 s signal, 10 dB waveform noise."""

    name = "denoise_sweep"
    root_span = "denoise.lambda_sweep"
    in_process = True
    GRID = [float(v) for v in np.geomspace(1.0, 1000.0, 7)]
    LABELS = ("lam1", "lam3", "lam10", "lam32", "lam100", "lam316", "lam1000")
    ops_per_pass = len(GRID)
    wall_s = staticmethod(median_wall)
    INPUT_SNR_DB = 10.0
    MIN_GAIN_DB = 5.0
    MAX_REL_RESIDUAL = 1e-2

    def __init__(self, seed: int, workdir: Path):
        self.seeds = PassSeeds(seed)
        self.clean = experiments.default_signal(duration_s=2.56)
        self.config = StftConfig(window_len=4096, hop=1024, window_kind="hann_tight")
        self.params = denoise_mod.AdmmParams(lam=1.0)
        self.noisy = None

    def prepare(self, i: int) -> None:
        self.noisy = add_noise_at_snr(self.clean, self.INPUT_SNR_DB, self.seeds[i])

    def warmup(self) -> None:
        params = denoise_mod.AdmmParams(lam=100.0, max_iter=5)
        denoise_mod.denoise(self.noisy, params, self.config)

    def run(self, i: int, recorder=None):
        """The sweep, with each solve's time and state captured for the gates."""
        solves = []
        inner = denoise_mod.denoise

        def capture(d, params, config, if_map=None):
            t0 = time.perf_counter()
            x, state = inner(d, params, config, if_map=if_map)
            solves.append((params.lam, time.perf_counter() - t0, x, state))
            return x, state

        denoise_mod.denoise = capture
        try:
            rows = denoise_mod.lambda_sweep(self.noisy, self.clean, self.GRID,
                                            self.params, self.config)
        finally:
            denoise_mod.denoise = inner
        return rows, solves

    def _rel_residual(self, x: SignalBuffer, state) -> float:
        ax = stft(x, self.config, analysis_window(self.config)).data
        return state.residual_history[-1] / np.linalg.norm(ax)

    def check(self, i: int, out) -> tuple[int, int, float]:
        rows, solves = out
        bad = [not np.all(np.isfinite(x.samples)) for _, _, x, _ in solves]
        lam, _, x, state = solves[self.LABELS.index("lam100")]
        residual = self._rel_residual(x, state)
        if residual > self.MAX_REL_RESIDUAL:
            print(f"denoise gate: relative residual {residual:.3g} at lam={lam:g}",
                  file=sys.stderr)
            bad[self.LABELS.index("lam100")] = True
        best = max(r.snr_db for r in rows)
        gain = best - snr_db(self.clean, self.noisy)
        if not gain >= self.MIN_GAIN_DB or len(rows) != len(self.GRID):
            print(f"denoise gate: best improvement {gain:+.2f} dB", file=sys.stderr)
            bad = [True] * len(self.GRID)
        return len(self.GRID), sum(bad), best

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib(resource.RUSAGE_SELF)

    def extras(self, i: int, ref, ref_wall: float, trace: list[spans.Span]) -> dict:
        _, solves = ref
        out = {
            "denoise.solve_p50_s": statistics.median(t for _, t, _, _ in solves),
            "denoise.solve_self_sum_s": layers.solve_self_sum(trace),
        }
        traced_p50 = statistics.median(s.duration for s in trace if s.name == "denoise.denoise")
        root = next(s for s in trace if s.name == self.root_span)
        print(f"solve: frames+lowrank+denoise self {out['denoise.solve_self_sum_s']:.4f} s, "
              f"traced {traced_p50:.4f} s, untraced {out['denoise.solve_p50_s']:.4f} s "
              f"(medians); traced minus untraced sweep {root.duration - ref_wall:+.4f} s",
              file=sys.stderr)
        lam100 = solves[self.LABELS.index("lam100")]
        out["denoise.final_rel_residual"] = self._rel_residual(lam100[2], lam100[3])
        # The last thresholding step saw A x + U_prev = U + Z of the final state.
        for label, (lam, _, _, state) in zip(self.LABELS, solves):
            s = np.linalg.svd(state.U + state.Z, compute_uv=False)
            kept = int(np.sum(s > lam / self.params.rho))
            out[f"denoise.final_rank.{label}"] = kept
        for s in trace:
            if s.name == "denoise.denoise":
                label = self.LABELS[self.GRID.index(s.work["lam"])]
                if label in ("lam1", "lam1000"):
                    out[f"denoise.solve_s.{label}"] = s.duration
        return out


class CliFiles:
    """Three ``ipclr`` commands, each in a fresh interpreter, on 10.24 s WAVs."""

    name = "cli_files"
    root_span = "bench.cli_pass"
    in_process = False
    ops_per_pass = 3
    # Console-script equivalent for the uninstalled package (src on PYTHONPATH).
    LAUNCH = "import sys; from ipclr.cli import entry; sys.argv[0] = 'ipclr'; entry()"
    TRACED = str(Path(__file__).with_name("cli_traced.py"))
    INPUT_SNR_DB = 10.0
    # synth-style 0.9 peak scaling: criterion 8's lam=100 on the 27-peak test
    # signal scales to about 4 here.
    LAM = "4"
    ITERS = 5
    BINS = 2049

    def __init__(self, seed: int, workdir: Path):
        self.seeds = PassSeeds(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        clean = experiments.default_signal()
        peak = float(np.max(np.abs(clean.samples)))
        self.clean = SignalBuffer(clean.samples * (0.9 / peak), clean.sample_rate_hz)
        write_wav(self.clean, self.dir / "clean.wav", format="float32")
        self.frames = (len(self.clean) - 4096) // 1024 + 1

    def prepare(self, i: int) -> None:
        noisy = add_noise_at_snr(self.clean, self.INPUT_SNR_DB, self.seeds[i])
        write_wav(noisy, self.dir / "noisy.wav", format="float32")

    def commands(self) -> dict[str, list[str]]:
        return {
            "spectrogram": ["spectrogram", "noisy.wav", "--ipc", "-o", "spec"],
            "lowrank": ["lowrank", "noisy.wav", "--representation", "ipc", "--k", "1",
                        "--clean", "clean.wav", "-o", "lowrank.wav"],
            "denoise": ["denoise", "noisy.wav", "--lam", self.LAM,
                        "--iters", str(self.ITERS), "--clean", "clean.wav",
                        "-o", "denoised.wav", "--convergence-csv", "conv.csv"],
        }

    def _spawn(self, argv: list[str]) -> int:
        done = subprocess.run(argv, cwd=self.dir, env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode:
            print(done.stderr, file=sys.stderr)
        return done.returncode

    def warmup(self) -> None:
        self._spawn([sys.executable, "-c", self.LAUNCH, "--help"])

    def run(self, i: int, recorder=None):
        """Per command: (exit code, seconds from spawn to exit)."""
        out = {}
        for name, args in self.commands().items():
            if recorder is None:
                t0 = time.perf_counter()
                rc = self._spawn([sys.executable, "-c", self.LAUNCH, *args])
                out[name] = (rc, time.perf_counter() - t0)
                continue
            dump = self.dir / f"{name}.trace.json"
            with recorder.span("bench.command") as cmd:
                rc = self._spawn([sys.executable, self.TRACED, str(dump), *args])
            cmd.work["command"] = name
            recorder.adopt(spans.from_json(json.loads(dump.read_text())), cmd.id)
            out[name] = (rc, cmd.duration)
        return out

    def _wav_ok(self, name: str) -> bool:
        x = read_wav(self.dir / name)
        return len(x) == len(self.clean) and bool(np.all(np.isfinite(x.samples)))

    def _csv_ok(self, name: str, kind: str) -> bool:
        with open(self.dir / "spec" / name) as fh:
            return fh.readline().strip() == f"# {self.BINS},{self.frames},{kind}"

    def check(self, i: int, out) -> tuple[int, int, float]:
        ok = {
            "spectrogram": all(self._csv_ok(f"noisy_{part}.csv", kind) for part, kind in
                               (("amplitude", "real"), ("complex", "complex"),
                                ("ipc", "complex"), ("if", "real"))),
            "lowrank": self._wav_ok("lowrank.wav"),
            "denoise": self._wav_ok("denoised.wav")
            and len((self.dir / "conv.csv").read_text().splitlines()) == self.ITERS + 1,
        }
        failed = 0
        for name, (rc, _) in out.items():
            if rc != 0 or not ok[name]:
                print(f"cli gate: {name} exit {rc}, outputs ok {ok[name]}", file=sys.stderr)
                failed += 1
        value = snr_db(self.clean, read_wav(self.dir / "lowrank.wav"))
        return len(out), failed, value

    def peak_rss_mib(self) -> float:
        return _peak_rss_mib(resource.RUSAGE_CHILDREN)

    @staticmethod
    def wall_s(outs: list, walls: list[float]) -> float:
        """Sum over commands of the median spawn-to-exit time.

        Taking the median per command keeps one slow command from making
        its whole pass an outlier.
        """
        done = [out for out in outs if out is not None]
        if not done:
            return statistics.median(walls)
        return sum(statistics.median(out[name][1] for out in done) for name in done[0])

    def extras(self, i: int, ref, ref_wall: float, trace: list[spans.Span]) -> dict:
        own = spans.self_times(trace)
        out = {f"cli.{name}_s": t for name, (_, t) in ref.items()}
        children = spans.children_of(trace)
        imports = []
        for s in trace:
            if s.name == "bench.command":
                (main,) = [c for c in children[s.id] if c.name == "cli.main"]
                out[f"cli.self_s.{s.work['command']}"] = own[main.id]
                imports.append(main.work["import_s"])
        out["cli.import_s"] = statistics.median(imports)
        return out


WORKLOADS = {w.name: w for w in (Table1, DenoiseSweep, CliFiles)}


def _table1_pass(seed: int, i: int) -> None:
    """Warm up, then time pass ``i`` of table1 for the given workload seed."""
    wl = Table1(seed, ROOT)
    wl.warmup()
    t0 = time.perf_counter()
    cells = wl.run(i)
    wall = time.perf_counter() - t0
    _, failed, _ = wl.check(i, cells)
    print(json.dumps({"wall_s": wall, "failed": failed}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["table1-pass"] and len(sys.argv) == 4:
        _table1_pass(int(sys.argv[2]), int(sys.argv[3]))
    else:
        sys.exit("usage: workloads.py table1-pass SEED INDEX")

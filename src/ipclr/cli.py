"""Command-line front end: signal synthesis, spectrogram export, rank-k
approximation sweeps, and the nuclear-norm denoiser.

Option precedence is flags > config file > defaults; the config file is a
flat ``key = value`` text format whose keys match the long option names
with dashes replaced by underscores.  The group hands the file to click as
every command's default map, so file values are converted and validated
like flags.  A config key that names no option of any command is a usage
error, and so is one naming a repeatable option (``--freq``, ``--amp``):
those come from flags only.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import experiments
from .denoise import (AdmmParams, NumericalError, RealAnalysis, denoise, estimate_if_for,
                      lambda_sweep)
from .frames import StftConfig, analysis_window, hann_window, stft
from .frames import istft  # wrapped by perfbench
from .ifreq import estimate_if_from
from .io import read_wav, write_matrix_csv, write_wav
from .ipc import build_corrector, ipc_istft, ipc_stft  # ipc_istft: wrapped by perfbench
from .lowrank import rank_k_approx
from .signals import (
    SignalBuffer,
    SinusoidSpec,
    add_noise_at_snr,
    snr_db,
    synth_sinusoid_sum,
)

INPUT_FILE = click.Path(exists=True, dir_okay=False)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    conf = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        conf[key.strip().replace("-", "_")] = value.strip()
    return conf


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header: str, rows) -> list[str]:
    """Write ``header`` and a line per row, floats as ``repr(float(v))``; return the lines."""
    lines = [header] + [
        ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                 for v in row)
        for row in rows
    ]
    Path(path).write_text("\n".join(lines) + "\n")
    return lines


def _read_companion(path: str, observed: SignalBuffer, name: str) -> SignalBuffer:
    """Read the WAV given for ``name``; it must match ``observed``'s length and rate."""
    companion = read_wav(path)
    if (len(companion), companion.sample_rate_hz) != (len(observed), observed.sample_rate_hz):
        raise click.UsageError(
            f"{name} {path}: {len(companion)} samples at {companion.sample_rate_hz:g} Hz, "
            f"but the input has {len(observed)} samples at {observed.sample_rate_hz:g} Hz")
    return companion


def _format_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.10g}"


@click.group()
@click.option("--config", type=INPUT_FILE, default=None,
              help="Flat key=value config file (flags take precedence).")
@click.pass_context
def cli(ctx: click.Context, config: str | None):
    """Phase-corrected low-rank spectrogram tools."""
    conf = _load_config(config)
    options = [p for command in cli.commands.values() for p in command.params
               if isinstance(p, click.Option)]
    unknown = sorted(conf.keys() - {p.name for p in options})
    if unknown:
        raise click.UsageError(f"{config}: key {unknown[0]!r} names no option of any command")
    repeatable = sorted(conf.keys() & {p.name for p in options if p.multiple})
    if repeatable:
        raise click.UsageError(f"{config}: key {repeatable[0]!r} names a repeatable "
                               f"option; repeatable options come from flags only")
    # Options only: click would also fill positional arguments from the map.
    ctx.default_map = {
        name: {p.name: conf[p.name] for p in command.params
               if isinstance(p, click.Option) and p.name in conf}
        for name, command in cli.commands.items()
    }


@cli.command("synth")
@click.option("--count", default=3, show_default=True,
              help="Number of harmonics in the default recipe (1 to 11).")
@click.option("--base-freq", default=100.0, show_default=True,
              help="Fundamental frequency in Hz for the default recipe.")
@click.option("--freq", multiple=True, type=float,
              help="Explicit frequency in Hz (repeatable; overrides the recipe).")
@click.option("--amp", multiple=True, type=float,
              help="Amplitude per explicit frequency (repeatable; needs --freq).")
@click.option("--duration", default=1.0, show_default=True, help="Duration in seconds.")
@click.option("--rate", default=16000.0, show_default=True, help="Sample rate in Hz.")
@click.option("--snr", default=math.inf, help="Add seeded noise at this SNR in dB.")
@click.option("--seed", default=0, show_default=True)
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Scale so the clean signal peaks at 0.9 before writing "
                   "(same scale with or without --snr, so clean/noisy pairs "
                   "stay comparable).")
@click.option("-o", "--output", default="signal.wav", show_default=True)
@click.pass_context
def cmd_synth(ctx: click.Context, count, base_freq, freq, amp, duration, rate, snr, seed,
              normalize, output):
    """Synthesize a sum-of-sinusoids WAV, optionally with seeded noise."""
    if freq:
        for name in ("count", "base_freq"):  # a config-file value counts as given
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                raise click.UsageError(f"--{name.replace('_', '-')} sets the recipe, "
                                       f"which --freq replaces")
        if amp and len(amp) != len(freq):
            raise click.UsageError("--amp count must match --freq count")
        amplitudes = amp or [1.0] * len(freq)
        specs = [SinusoidSpec(a, f) for a, f in zip(amplitudes, freq)]
    elif amp:
        raise click.UsageError("--amp needs --freq: the recipe sets its own amplitudes")
    elif not 1 <= count <= 11:  # the recipe's amplitudes are 10 - h, h = 0..count-1
        raise click.UsageError(f"--count must lie in 1..11, got {count}")
    else:
        specs = experiments.harmonic_specs(count, base_freq)
    signal = synth_sinusoid_sum(specs, duration, rate)
    if normalize:
        peak = float(np.max(np.abs(signal.samples)))
        if peak > 0:
            signal = SignalBuffer(signal.samples * (0.9 / peak), signal.sample_rate_hz)
    if not math.isinf(snr):
        signal = add_noise_at_snr(signal, snr, seed)
    write_wav(signal, output, format="float32")
    click.echo(f"wrote {output} ({len(signal)} samples at {signal.sample_rate_hz:g} Hz)")


@cli.command("spectrogram")
@click.argument("input_wav", type=INPUT_FILE)
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True,
              help="Hop is window-len divided by this.")
@click.option("--framing", default="valid", show_default=True,
              type=click.Choice(["valid", "cover"]))
@click.option("--ipc/--no-ipc", default=False, show_default=True,
              help="Also export the phase-corrected spectrogram and IF map.")
@click.option("--one-sided/--two-sided", default=True, show_default=True)
@click.option("-o", "--outdir", default="spectrogram_out", show_default=True)
def cmd_spectrogram(input_wav, window_len, shift_div, framing, ipc, one_sided, outdir):
    """Export amplitude/complex spectrogram CSVs (and IF map with --ipc)."""
    config = experiments.analysis_config(window_len, shift_div)
    signal = read_wav(input_wav)
    spec = stft(signal, config, hann_window(config.window_len), framing, one_sided)
    out = _outdir(outdir)
    stem = Path(input_wav).stem
    write_matrix_csv(np.abs(spec.data), out / f"{stem}_amplitude.csv")
    write_matrix_csv(spec.data, out / f"{stem}_complex.csv")
    if ipc:
        if_map = estimate_if_from(signal, spec)
        corrected = ipc_stft(spec, build_corrector(if_map)).data
        write_matrix_csv(corrected, out / f"{stem}_ipc.csv")
        write_matrix_csv(if_map.values, out / f"{stem}_if.csv")
        deviation = np.abs(corrected - corrected[:, :1]).max()
        scale = np.abs(corrected).max()
        click.echo(f"max column deviation of phase-corrected rows: "
                   f"{deviation / scale if scale else 0.0:.3e} (relative)")
    click.echo(f"wrote {4 if ipc else 2} matrices to {out}")


@cli.command("lowrank")
@click.argument("input_wav", type=INPUT_FILE)
@click.option("--k", default=1, show_default=True, type=click.IntRange(min=1),
              help="Approximation rank.")
@click.option("--representation", default="ipc", show_default=True,
              type=click.Choice(list(experiments.REPRESENTATIONS)))
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--clean", type=INPUT_FILE, default=None,
              help="Clean reference WAV; defaults to the input itself.")
@click.option("--if-source", default="clean", show_default=True,
              type=click.Choice(["clean", "noisy"]))
@click.option("-o", "--output", default=None,
              help="Write the rank-k reconstruction (tight window, cover framing).")
def cmd_lowrank(input_wav, k, representation, window_len, shift_div, clean,
                if_source, output):
    """Rank-k approximation SNR of one spectrogram representation."""
    observed = read_wav(input_wav)
    clean = _read_companion(clean, observed, "--clean") if clean else observed
    if_signal = clean if if_source == "clean" else observed
    config = experiments.analysis_config(window_len, shift_div)
    value = _rank_k_snr(observed, clean, if_signal, config, representation, k)
    click.echo(f"representation={representation} shift=1/{shift_div} "
               f"k={k} spectrogram SNR = {_format_db(value)} dB")

    if output:
        tight_cfg = experiments.analysis_config(window_len, shift_div, "hann_tight")
        recon = _reconstruct_rank_k(observed, if_signal, tight_cfg, representation, k)
        write_wav(recon, output, format="float32")
        click.echo(f"time-domain SNR vs clean = "
                   f"{_format_db(snr_db(clean, recon))} dB; wrote {output}")


def _rank_k_snr(observed: SignalBuffer, clean: SignalBuffer, if_signal: SignalBuffer,
                config: StftConfig, representation: str, k: int) -> float:
    """SNR of the rank-k ``representation`` of ``observed`` against ``clean``, in valid framing.

    A function of its own, so that its spectrograms are freed before
    ``lowrank -o`` builds the operator's matrices.
    """
    s_clean = experiments.valid_spectrogram(clean, config)
    s_obs = s_clean if clean is observed else experiments.valid_spectrogram(observed, config)
    if k > min(s_obs.data.shape):
        raise click.UsageError(f"k exceeds the spectrogram rank bound {min(s_obs.data.shape)}")
    s_if = s_clean if if_signal is clean else s_obs
    e = build_corrector(estimate_if_from(if_signal, s_if)) if representation == "ipc" else None
    m, back = experiments.represent(s_obs.data, representation, e)
    return snr_db(s_clean.data, back(rank_k_approx(m, k)))


def _reconstruct_rank_k(observed: SignalBuffer, if_signal: SignalBuffer,
                        config: StftConfig, representation: str,
                        k: int) -> SignalBuffer:
    """Rank-k synthesis in cover framing: ``op.adjoint(rank_k(op.forward(x)), n)``.

    ``op`` is the denoiser's real one-sided ``RealAnalysis`` with ``E`` the
    corrector of ``if_signal``'s IF map (``ipc``), 1 (``stft``) or the
    conjugate of the observed phase (``amplitude``).  Its rank-k truncation
    is that of the two-sided matrix, and ``adjoint`` inverts the transform.
    """
    if representation == "ipc":
        e = build_corrector(estimate_if_for(if_signal, config))
    elif representation == "amplitude":
        spec = stft(observed, config, analysis_window(config), one_sided=True).data
        e = np.conj(experiments.unit_phase(spec, np.abs(spec)))
    else:
        e = np.ones((config.window_len // 2 + 1, 1))
    op = RealAnalysis(config, e)
    recon = op.adjoint(rank_k_approx(op.forward(observed.samples), k), len(observed))
    return SignalBuffer(recon, observed.sample_rate_hz)


@cli.command("table1")
@click.option("--seeds", default=10, show_default=True, type=click.IntRange(min=1),
              help="Noise realizations per cell.")
@click.option("--duration", default=experiments.TABLE_DURATION_S, show_default=True)
@click.option("--count", default=3, show_default=True, help="Number of sinusoids.")
@click.option("--window-len", default=4096, show_default=True)
@click.option("--noise-domain", default="tf", show_default=True,
              type=click.Choice(["tf", "time"]))
@click.option("--if-source", default="clean", show_default=True,
              type=click.Choice(["clean", "noisy"]))
@click.option("-o", "--outdir", default="table1_out", show_default=True)
def cmd_table1(seeds, duration, count, window_len, noise_domain, if_source, outdir):
    """Rank-1 SNR table: representations x hops x input noise levels."""
    spec = experiments.ExperimentSpec(
        kind="table1",
        sinusoid_count=count,
        duration_s=duration,
        window_len=window_len,
        seeds=tuple(range(seeds)),
        noise_domain=noise_domain,
        if_source=if_source,
    )
    cells = experiments.run_table1(spec)
    out = _outdir(outdir)
    _write_csv(out / "table1_cells.csv",
               "representation,shift_div,input_snr_db,k,seed,snr_db",
               [(c.representation, c.shift_divisor,
                 "" if c.input_snr_db is None else f"{c.input_snr_db:g}",
                 c.k, c.seed, c.snr_db) for c in cells])
    rows = experiments.table1_layout(cells)
    keys = [f"snr_in_{level:g}" for level in spec.input_snrs_db] + ["clean"]
    header = ",".join(["representation,shift"] + [k.removeprefix("snr_in_") for k in keys])
    lines = _write_csv(out / "table1.csv", header,
                       [[row["representation"], row["shift"]]
                        + [f"{row[key]:.1f}" for key in keys] for row in rows])
    click.echo("\n".join(lines))
    click.echo(f"wrote {out / 'table1.csv'}")


@cli.command("fig3")
@click.option("--count", default=3, show_default=True, help="Number of sinusoids H.")
@click.option("--input-snr", type=float, default=None,
              help="Add seeded bin-wise noise at this SNR in dB; noise-free when absent.")
@click.option("--k-max", default=8, show_default=True)
@click.option("--k-min", default=1, show_default=True)
@click.option("--duration", default=experiments.TABLE_DURATION_S, show_default=True)
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("-o", "--output", default="fig3.csv", show_default=True)
def cmd_fig3(count, input_snr, k_max, k_min, duration, window_len,
             shift_div, seed, output):
    """Rank-k SNR curves per representation (CSV of representation,k,snr)."""
    if not 1 <= k_min <= k_max:
        raise click.UsageError("need 1 <= k-min <= k-max")
    spec = experiments.ExperimentSpec(
        kind="fig3",
        sinusoid_count=count,
        duration_s=duration,
        window_len=window_len,
        shift_divisors=(shift_div,),
        seeds=(seed,),
        k_values=tuple(range(k_min, k_max + 1)),
    )
    cells = experiments.run_fig3(spec, input_snr)
    _write_csv(output, "representation,k,snr_db",
               [(c.representation, c.k, c.snr_db) for c in cells])
    click.echo(f"wrote {output} ({len(cells)} rows)")


@cli.command("denoise")
@click.argument("input_wav", type=INPUT_FILE)
@click.option("--lam", default=1.0, show_default=True, help="Regularization weight.")
@click.option("--rho", default=1.0, show_default=True, help="ADMM penalty.")
@click.option("--iters", default=100, show_default=True,
              help="Iteration cap; the solve stops earlier once its output is certified.")
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--if-oracle", type=INPUT_FILE, default=None,
              help="Estimate the IF from this clean WAV instead of the input.")
@click.option("--clean", type=INPUT_FILE, default=None,
              help="Clean reference for SNR reporting.")
@click.option("-o", "--output", default="denoised.wav", show_default=True)
@click.option("--convergence-csv", default=None,
              help="Write per-iteration objective, residual, bound and kept rank here.")
def cmd_denoise(input_wav, lam, rho, iters, window_len, shift_div, if_oracle, clean,
                output, convergence_csv):
    """Nuclear-norm ADMM denoising of a WAV file."""
    params = AdmmParams(lam=lam, rho=rho, max_iter=iters)
    config = experiments.analysis_config(window_len, shift_div, "hann_tight")
    observed = read_wav(input_wav)
    oracle = _read_companion(if_oracle, observed, "--if-oracle") if if_oracle else None
    clean = _read_companion(clean, observed, "--clean") if clean else None
    if_map = estimate_if_for(oracle, config) if if_oracle else None
    result, state = denoise(observed, params, config, if_map=if_map)
    write_wav(result, output, format="float32")
    click.echo(f"wrote {output}; final objective {state.objective_history[-1]:.6g}, "
               f"final primal residual {state.residual_history[-1]:.6g}")
    click.echo(f"{state.iterations} iterations, "
               f"{'certified' if state.certified else 'not certified'}: distance bound "
               f"{state.bound_history[-1]:.3g} for tol x ||x|| = "
               f"{params.tol * float(np.linalg.norm(result.samples)):.3g}")
    if clean is not None:
        before = snr_db(clean, observed)
        after = snr_db(clean, result)
        click.echo(f"SNR: {_format_db(before)} dB -> {_format_db(after)} dB")
    if convergence_csv:
        _write_csv(convergence_csv, "iteration,objective,primal_residual,bound,kept_rank",
                   [(i, *row) for i, row in enumerate(
                       zip(state.objective_history, state.residual_history,
                           state.bound_history, state.rank_history))])
        click.echo(f"wrote {convergence_csv}")


@cli.command("denoise-sweep")
@click.argument("input_wav", type=INPUT_FILE)
@click.argument("clean_wav", type=INPUT_FILE)
@click.option("--lam-min", default=1e-3, show_default=True)
@click.option("--lam-max", default=1e3, show_default=True)
@click.option("--lam-count", default=13, show_default=True)
@click.option("--rho", default=1.0, show_default=True)
@click.option("--iters", default=100, show_default=True, help="Iteration cap per solve.")
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--if-oracle", type=INPUT_FILE, default=None)
@click.option("-o", "--output", default="sweep.csv", show_default=True)
@click.option("--best-wav", default=None, help="Write the best-SNR output here.")
def cmd_denoise_sweep(input_wav, clean_wav, lam_min, lam_max, lam_count, rho, iters,
                      window_len, shift_div, if_oracle, output, best_wav):
    """Regularization sweep on a log grid, scored against a clean reference."""
    if lam_count < 1 or not 0 < lam_min <= lam_max < math.inf:
        raise click.UsageError("need 0 < lam-min <= lam-max < inf and lam-count >= 1")
    observed = read_wav(input_wav)
    clean = _read_companion(clean_wav, observed, "CLEAN_WAV")
    oracle = _read_companion(if_oracle, observed, "--if-oracle") if if_oracle else observed
    config = experiments.analysis_config(window_len, shift_div, "hann_tight")
    grid = list(np.geomspace(lam_min, lam_max, lam_count))
    params = AdmmParams(lam=grid[0], rho=rho, max_iter=iters)
    if_map = estimate_if_for(oracle, config)
    rows = lambda_sweep(observed, clean, grid, params, config, if_map=if_map)
    _write_csv(output, "lam,snr_db,objective", [(r.lam, r.snr_db, r.objective) for r in rows])
    best = max(rows, key=lambda r: r.snr_db)
    click.echo(f"input SNR {_format_db(snr_db(clean, observed))} dB; "
               f"best lam={best.lam:.6g} -> {_format_db(best.snr_db)} dB")
    click.echo(f"wrote {output}")
    if best_wav:
        write_wav(best.x, best_wav, format="float32")
        click.echo(f"wrote {best_wav}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False, prog_name="ipclr")
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (NumericalError, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    return 0


def entry():  # pragma: no cover - thin wrapper for the console script
    sys.exit(main())

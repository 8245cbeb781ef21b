"""Command-line front end: signal synthesis, spectrogram export, rank-k
approximation sweeps, and the nuclear-norm denoiser.

Option precedence is flags > config file > defaults; the config file is a
flat ``key = value`` text format whose keys match the long option names
with dashes replaced by underscores.  The group hands the file to click as
every command's default map, so file values are converted and validated
like flags; repeatable options (``--freq``, ``--amp``) come from flags only,
and a config key naming one is a usage error.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import experiments, frames
from .denoise import AdmmParams, NumericalError, denoise, estimate_if_for, lambda_sweep
from .frames import StftConfig, analysis_window, derivative_window, hann_window, istft, stft
from .ifreq import estimate_if
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


def _stft_config(window_len: int, shift_div: int, tight: bool = False) -> StftConfig:
    if shift_div < 1:
        raise click.UsageError("shift divisor must be at least 1")
    try:
        return StftConfig(
            window_len=window_len,
            hop=window_len // shift_div,
            window_kind="hann_tight" if tight else "hann",
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _format_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.10g}"


@click.group()
@click.option("--config", type=INPUT_FILE, default=None,
              help="Flat key=value config file (flags take precedence).")
@click.pass_context
def cli(ctx: click.Context, config: str | None):
    """Phase-corrected low-rank spectrogram tools."""
    conf = _load_config(config)
    repeatable = sorted(conf.keys() & {
        p.name for command in cli.commands.values() for p in command.params
        if isinstance(p, click.Option) and p.multiple})
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
              help="Number of harmonics in the default recipe.")
@click.option("--base-freq", default=100.0, show_default=True,
              help="Fundamental frequency in Hz for the default recipe.")
@click.option("--freq", multiple=True, type=float,
              help="Explicit frequency in Hz (repeatable; overrides the recipe).")
@click.option("--amp", multiple=True, type=float,
              help="Amplitude per explicit frequency (repeatable).")
@click.option("--duration", default=1.0, show_default=True, help="Duration in seconds.")
@click.option("--rate", default=16000.0, show_default=True, help="Sample rate in Hz.")
@click.option("--snr", default=math.inf, help="Add seeded noise at this SNR in dB.")
@click.option("--seed", default=0, show_default=True)
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Scale so the clean signal peaks at 0.9 before writing "
                   "(same scale with or without --snr, so clean/noisy pairs "
                   "stay comparable).")
@click.option("-o", "--output", default="signal.wav", show_default=True)
def cmd_synth(count, base_freq, freq, amp, duration, rate, snr, seed, normalize,
              output):
    """Synthesize a sum-of-sinusoids WAV, optionally with seeded noise."""
    if not duration > 0:
        raise click.UsageError("duration must be positive")
    if freq:
        if amp and len(amp) != len(freq):
            raise click.UsageError("--amp count must match --freq count")
        amplitudes = amp or [1.0] * len(freq)
        specs = [SinusoidSpec(a, f) for a, f in zip(amplitudes, freq)]
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
    config = _stft_config(window_len, shift_div)
    signal = read_wav(input_wav)
    rows = frames.one_sided if one_sided else (lambda spec: spec)
    spec = rows(stft(signal, config, hann_window(config.window_len), framing=framing))
    out = _outdir(outdir)
    stem = Path(input_wav).stem
    write_matrix_csv(np.abs(spec.data), out / f"{stem}_amplitude.csv")
    write_matrix_csv(spec.data, out / f"{stem}_complex.csv")
    written = 2
    if ipc:
        spec_wp = rows(stft(signal, config, derivative_window(config.window_len),
                            framing=framing))
        if_map = estimate_if(spec, spec_wp)
        corrected = ipc_stft(spec, build_corrector(if_map)).data
        write_matrix_csv(corrected, out / f"{stem}_ipc.csv")
        write_matrix_csv(if_map.values, out / f"{stem}_if.csv")
        written += 2
        deviation = np.abs(corrected - corrected[:, :1]).max()
        scale = np.abs(corrected).max()
        click.echo(f"max column deviation of phase-corrected rows: "
                   f"{deviation / scale if scale else 0.0:.3e} (relative)")
    click.echo(f"wrote {written} matrices to {out}")


@cli.command("lowrank")
@click.argument("input_wav", type=INPUT_FILE)
@click.option("--k", default=1, show_default=True, help="Approximation rank.")
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
    if k < 1:
        raise click.UsageError("k must be at least 1")
    observed = read_wav(input_wav)
    clean = read_wav(clean) if clean else observed
    if len(clean) != len(observed):
        raise click.UsageError("clean reference length must match the input")
    config = experiments.analysis_config(window_len, shift_div)

    x_clean = experiments.valid_spectrogram(clean, config)
    x_obs = experiments.valid_spectrogram(observed, config)
    if k > min(x_obs.shape):
        raise click.UsageError(f"k exceeds the spectrogram rank bound {min(x_obs.shape)}")
    if_signal = clean if if_source == "clean" else observed
    e = experiments.ipc_corrector(if_signal, config) if representation == "ipc" else None
    m, back = experiments.represent(x_obs, representation, e)
    value = snr_db(x_clean, back(rank_k_approx(m, k)))
    click.echo(f"representation={representation} shift=1/{shift_div} "
               f"k={k} spectrogram SNR = {_format_db(value)} dB")

    if output:
        tight_cfg = _stft_config(window_len, shift_div, tight=True)
        recon = _reconstruct_rank_k(observed, if_signal, tight_cfg, representation, k)
        write_wav(recon, output, format="float32")
        click.echo(f"time-domain SNR vs clean = "
                   f"{_format_db(snr_db(clean, recon))} dB; wrote {output}")


def _reconstruct_rank_k(observed: SignalBuffer, if_signal: SignalBuffer,
                        config: StftConfig, representation: str,
                        k: int) -> SignalBuffer:
    """Invertible-pipeline variant: rank-k in cover framing, then synthesis.

    Rank k acts on the two-sided matrix, so E is built two-sided too.
    """
    w = analysis_window(config)
    spec = stft(observed, config, w)
    e = None
    if representation == "ipc":
        L = config.window_len
        e = build_corrector(estimate_if(stft(if_signal, config, hann_window(L)),
                                        stft(if_signal, config, derivative_window(L))))
    m, back = experiments.represent(spec.data, representation, e)
    return istft(replace(spec, data=back(rank_k_approx(m, k))), w)


@cli.command("table1")
@click.option("--seeds", default=10, show_default=True, help="Noise realizations per cell.")
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
    if seeds < 1:
        raise click.UsageError("seeds must be at least 1")
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
    _write_cells_csv(cells, out / "table1_cells.csv")
    rows = experiments.table1_layout(cells, spec.shift_divisors, spec.input_snrs_db)
    level_keys = [f"snr_in_{level:g}" for level in spec.input_snrs_db]
    lines = ["representation,shift," + ",".join(
        [k.removeprefix("snr_in_") for k in level_keys] + ["clean"])]
    for row in rows:
        cells_txt = [f"{row[k]:.1f}" for k in level_keys] + [f"{row['clean']:.1f}"]
        lines.append(f"{row['representation']},{row['shift']}," + ",".join(cells_txt))
    (out / "table1.csv").write_text("\n".join(lines) + "\n")
    click.echo("\n".join(lines))
    click.echo(f"wrote {out / 'table1.csv'}")


def _write_cells_csv(cells, path):
    lines = ["representation,shift_div,input_snr_db,k,seed,snr_db"]
    for c in cells:
        level = "" if c.input_snr_db is None else f"{c.input_snr_db:g}"
        lines.append(f"{c.representation},{c.shift_divisor},{level},{c.k},"
                     f"{c.seed},{c.snr_db!r}")
    Path(path).write_text("\n".join(lines) + "\n")


@cli.command("fig3")
@click.option("--count", default=3, show_default=True, help="Number of sinusoids H.")
@click.option("--noise/--no-noise", default=False, show_default=True)
@click.option("--input-snr", default=10.0, show_default=True)
@click.option("--k-max", default=8, show_default=True)
@click.option("--k-min", default=1, show_default=True)
@click.option("--duration", default=experiments.TABLE_DURATION_S, show_default=True)
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--if-source", default="clean", show_default=True,
              type=click.Choice(["clean", "noisy"]))
@click.option("-o", "--output", default="fig3.csv", show_default=True)
def cmd_fig3(count, noise, input_snr, k_max, k_min, duration, window_len,
             shift_div, seed, if_source, output):
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
        if_source=if_source,
        k_values=tuple(range(k_min, k_max + 1)),
    )
    cells = experiments.run_fig3(spec, input_snr if noise else None)
    lines = ["representation,k,snr_db"]
    for c in cells:
        lines.append(f"{c.representation},{c.k},{c.snr_db!r}")
    Path(output).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {output} ({len(cells)} rows)")


@cli.command("denoise")
@click.argument("input_wav", type=INPUT_FILE)
@click.option("--lam", default=1.0, show_default=True, help="Regularization weight.")
@click.option("--rho", default=1.0, show_default=True, help="ADMM penalty.")
@click.option("--iters", default=100, show_default=True)
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--if-oracle", type=INPUT_FILE, default=None,
              help="Estimate the IF from this clean WAV instead of the input.")
@click.option("--clean", type=INPUT_FILE, default=None,
              help="Clean reference for SNR reporting.")
@click.option("-o", "--output", default="denoised.wav", show_default=True)
@click.option("--convergence-csv", default=None,
              help="Write per-iteration objective/residual CSV here.")
def cmd_denoise(input_wav, lam, rho, iters, window_len, shift_div, if_oracle, clean,
                output, convergence_csv):
    """Nuclear-norm ADMM denoising of a WAV file."""
    try:
        params = AdmmParams(lam=lam, rho=rho, max_iter=iters)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    config = _stft_config(window_len, shift_div, tight=True)
    observed = read_wav(input_wav)
    if_map = None
    if if_oracle:
        oracle = read_wav(if_oracle)
        if len(oracle) != len(observed):
            raise click.UsageError("oracle WAV length must match the input")
        if_map = estimate_if_for(oracle, config)
    result, state = denoise(observed, params, config, if_map=if_map)
    write_wav(result, output, format="float32")
    click.echo(f"wrote {output}; final objective {state.objective_history[-1]:.6g}, "
               f"final primal residual {state.residual_history[-1]:.6g}")
    if clean:
        clean = read_wav(clean)
        if len(clean) != len(observed):
            raise click.UsageError("clean WAV length must match the input")
        before = snr_db(clean, observed)
        after = snr_db(clean, result)
        click.echo(f"SNR: {_format_db(before)} dB -> {_format_db(after)} dB")
    if convergence_csv:
        lines = ["iteration,objective,primal_residual"]
        for i, (obj, res) in enumerate(
            zip(state.objective_history, state.residual_history)
        ):
            lines.append(f"{i},{obj!r},{res!r}")
        Path(convergence_csv).write_text("\n".join(lines) + "\n")
        click.echo(f"wrote {convergence_csv}")


@cli.command("denoise-sweep")
@click.argument("input_wav", type=INPUT_FILE)
@click.argument("clean_wav", type=INPUT_FILE)
@click.option("--lam-min", default=1e-3, show_default=True)
@click.option("--lam-max", default=1e3, show_default=True)
@click.option("--lam-count", default=13, show_default=True)
@click.option("--rho", default=1.0, show_default=True)
@click.option("--iters", default=100, show_default=True)
@click.option("--window-len", default=4096, show_default=True)
@click.option("--shift-div", default=4, show_default=True)
@click.option("--if-oracle", type=INPUT_FILE, default=None)
@click.option("-o", "--output", default="sweep.csv", show_default=True)
@click.option("--best-wav", default=None, help="Write the best-SNR output here.")
def cmd_denoise_sweep(input_wav, clean_wav, lam_min, lam_max, lam_count, rho, iters,
                      window_len, shift_div, if_oracle, output, best_wav):
    """Regularization sweep on a log grid, scored against a clean reference."""
    if lam_count < 1 or not 0 < lam_min <= lam_max:
        raise click.UsageError("need 0 < lam-min <= lam-max and lam-count >= 1")
    observed = read_wav(input_wav)
    clean = read_wav(clean_wav)
    if len(clean) != len(observed):
        raise click.UsageError("clean WAV length must match the input")
    config = _stft_config(window_len, shift_div, tight=True)
    grid = list(np.geomspace(lam_min, lam_max, lam_count))
    params = AdmmParams(lam=grid[0], rho=rho, max_iter=iters)
    if_map = estimate_if_for(read_wav(if_oracle) if if_oracle else observed, config)
    rows = lambda_sweep(observed, clean, grid, params, config, if_map=if_map)
    lines = ["lam,snr_db,objective"]
    for row in rows:
        lines.append(f"{row.lam!r},{row.snr_db!r},{row.objective!r}")
    Path(output).write_text("\n".join(lines) + "\n")
    best = max(rows, key=lambda r: r.snr_db)
    click.echo(f"input SNR {_format_db(snr_db(clean, observed))} dB; "
               f"best lam={best.lam:.6g} -> {_format_db(best.snr_db)} dB")
    click.echo(f"wrote {output}")
    if best_wav:
        params = AdmmParams(lam=best.lam, rho=rho, max_iter=iters)
        result, _ = denoise(observed, params, config, if_map=if_map)
        write_wav(result, best_wav, format="float32")
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

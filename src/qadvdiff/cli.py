"""Command-line front end: runs, sweeps, gate counts, and demos.

Every subcommand is deterministic for a fixed (config, seed) pair and writes
CSV with 17-significant-digit floats so files round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .advection import (
    VelocityProfile,
    build_shear_advection,
    build_uniform_advection,
    count_controlled_gates,
    count_two_qubit_gates,
)
from .config import ConfigError, RunSettings, load_config
from .demo import (
    DEMO_ALPHA,
    DEMO_BETA,
    format_circuit_listing,
    run_demo,
    three_sigma_band,
)
from .oracles import (
    analytic_pulse_solution,
    error_norm,
    fd10_reference,
    split_propagation_oracle,
)
from .splitting import (
    ScenarioConfig,
    initial_scalar_field,
    run_scenario,
    x_coordinates,
    y_coordinates,
)
from .state import sample_counts
from .transforms import build_qft_circuit


def _fmt(value) -> str:
    return "%.17g" % float(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _analytic_applies(settings: RunSettings) -> bool:
    config = settings.scenario
    return (
        config.n_y == 0
        and config.profile.order == 0
        and settings.initial == "gaussian"
    )


def _analytic_reference(config: ScenarioConfig, t: float) -> np.ndarray:
    u = config.velocity_scale * config.profile.coefficients[0]
    return analytic_pulse_solution(x_coordinates(config), t, u, config.diffusivity,
                                   config.length)


def _gather_references(settings: RunSettings, field: np.ndarray) -> dict:
    config = settings.scenario
    choice = settings.reference
    refs: dict[str, np.ndarray] = {}
    if choice == "none":
        return refs
    if choice in ("auto", "oracle"):
        refs["oracle"] = split_propagation_oracle(config, field)[0]
    if choice == "analytic" or (choice == "auto" and _analytic_applies(settings)):
        if not _analytic_applies(settings):
            raise ConfigError(
                "reference = analytic needs a 1D uniform-profile gaussian scenario"
            )
        refs["analytic"] = _analytic_reference(config, config.t_final)
    if choice == "fd10" or (choice == "auto" and config.n_y > 0):
        refs["fd10"] = fd10_reference(config, np.real(field)).values
    return refs


def _write_fields(out: Path, config: ScenarioConfig, checkpoint_states) -> None:
    """One ``field_<step>.csv`` per checkpoint, each written in one pass.

    The bytes are what ``_write_csv`` would write: rows ``x,y,value`` in
    x-fastest order, ``%.17g`` floats, CRLF line ends, y = 0 in 1D.  The
    x and y columns are the same in every file, so they are formatted once
    into a template that takes the values.
    """
    xs = x_coordinates(config).tolist()
    y = y_coordinates(config)
    ys = [0.0] if y is None else y.tolist()
    template = "x,y,value\r\n" + "".join(
        "%.17g,%.17g,%%.17g\r\n" % (xv, yv) for yv in ys for xv in xs)
    for step, vector in checkpoint_states:
        with open(out / f"field_{step}.csv", "w", newline="") as handle:
            handle.write(template % tuple(np.real(vector).tolist()))


def cmd_run(args) -> int:
    settings = load_config(args.config)
    if args.splitting:
        settings = replace(
            settings, scenario=replace(settings.scenario, splitting=args.splitting)
        )
    config = settings.scenario
    field = initial_scalar_field(config, settings.initial)
    references = _gather_references(settings, field)
    result = run_scenario(config, field, references)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_fields(out, config, result.checkpoint_states)
    err_names = sorted(result.error_norms)
    header = ["pe", "fo", "success_prob"] + [f"err_{name}" for name in err_names]
    row = [_fmt(config.peclet()), _fmt(config.fourier()), _fmt(result.success_prob)]
    row += [_fmt(result.error_norms[name]) for name in err_names]
    _write_csv(out / "summary.csv", header, [row])
    print(f"Pe = {config.peclet():.6g}, Fo = {config.fourier():.6g}")
    print(f"success_prob = {result.success_prob:.6g}")
    for name in err_names:
        print(f"err_{name} = {result.error_norms[name]:.3g}")
    print(f"wrote {len(result.checkpoint_states)} field files to {out}")
    return 0


def _stage_max_error(config: ScenarioConfig, field: np.ndarray) -> float:
    """Largest error over the run's checkpoints vs the analytic pulse."""
    result = run_scenario(config, field)
    worst = 0.0
    for step, vector in result.checkpoint_states:
        if step == 0:
            continue
        ref = _analytic_reference(config, step * config.dt)
        worst = max(worst, error_norm(vector, ref))
    return worst


def _fit_slope(sizes, errors) -> float:
    logs = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(np.log(np.asarray(sizes, dtype=float)), logs, 1)[0])


def cmd_converge(args) -> int:
    # every sweep value is checked before any run, so a bad one costs no time
    for n_points in args.grid_sizes or ():
        if n_points < 4 or n_points & (n_points - 1):
            raise ConfigError(f"grid size must be a power of two >= 4, got {n_points}")
    for n_t in args.step_counts or ():
        if n_t < 1:
            raise ConfigError(f"step counts must be >= 1, got {n_t}")
    settings = load_config(args.config)
    config = settings.scenario
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    if args.grid_sizes:
        if not _analytic_applies(settings):
            raise ConfigError(
                "grid-size sweeps need a 1D uniform-profile gaussian scenario"
            )
        for n_points in args.grid_sizes:
            n_x = n_points.bit_length() - 1
            errs = {}
            for splitting in ("trotter", "strang"):
                cfg = replace(
                    config,
                    n_x=n_x,
                    splitting=splitting,
                    n_steps=config.checkpoints,
                    merge_strang=False,
                )
                errs[splitting] = _stage_max_error(cfg, initial_scalar_field(cfg, "gaussian"))
            rows.append((n_points, errs["trotter"], errs["strang"]))
        first_col = "N"
        x_values = [r[0] for r in rows]
    else:
        field = initial_scalar_field(config, settings.initial)
        if args.reference == "fd10":
            reference = fd10_reference(config, np.real(field)).values
        else:
            fine = replace(
                config,
                splitting="strang",
                n_steps=16 * max(args.step_counts),
                merge_strang=False,
            )
            reference = run_scenario(fine, field).final_state.amplitudes
        for n_t in args.step_counts:
            errs = {}
            for splitting in ("trotter", "strang"):
                cfg = replace(config, splitting=splitting, n_steps=n_t,
                              merge_strang=False)
                result = run_scenario(cfg, field)
                errs[splitting] = error_norm(result.final_state, reference)
            rows.append((n_t, errs["trotter"], errs["strang"]))
        first_col = "N_t"
        # slopes vs dt, so invert the step counts
        x_values = [config.t_final / r[0] for r in rows]
    table = [(str(r[0]), _fmt(r[1]), _fmt(r[2])) for r in rows]
    if len(rows) > 1:
        slope_t = _fit_slope(x_values, [r[1] for r in rows])
        slope_s = _fit_slope(x_values, [r[2] for r in rows])
        table.append(("slope", _fmt(slope_t), _fmt(slope_s)))
    _write_csv(out / "converge.csv", (first_col, "trotter_error", "strang_error"), table)
    for row in table:
        label = f"{first_col}={row[0]}" if row[0] != "slope" else "slope"
        print(f"{label}: trotter={float(row[1]):.3g} strang={float(row[2]):.3g}")
    return 0


def cmd_gatecount(args) -> int:
    profile = VelocityProfile.named(args.profile)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        if profile.order == 0:
            adv = build_uniform_advection(n, 1.0)
        else:
            adv = build_shear_advection(n, n, 1.0, profile)
        qft = build_qft_circuit(n)
        rows.append(
            (
                n,
                count_controlled_gates(adv),
                count_two_qubit_gates(adv),
                count_controlled_gates(qft),
                count_two_qubit_gates(qft),
            )
        )
    table = [tuple(str(v) for v in row) for row in rows]
    if len(rows) > 1 and all(r[2] > 0 for r in rows):
        ns = [r[0] for r in rows]
        table.append(
            (
                "fit_exponent",
                _fmt(_fit_slope(ns, [r[1] for r in rows])),
                _fmt(_fit_slope(ns, [r[2] for r in rows])),
                _fmt(_fit_slope(ns, [r[3] for r in rows])),
                _fmt(_fit_slope(ns, [r[4] for r in rows])),
            )
        )
    header = ("n", "controlled", "two_qubit", "qft_controlled", "qft_two_qubit")
    _write_csv(out / "gatecount.csv", header, table)
    for row in table:
        print(" ".join(f"{h}={v}" for h, v in zip(header, row)))
    return 0


def _band_rows(ideal, sampled, lo, hi):
    for i in range(len(ideal)):
        yield (str(i), _fmt(ideal[i]), _fmt(sampled[i]), _fmt(lo[i]), _fmt(hi[i]))


def cmd_hardware_demo(args) -> int:
    result = run_demo(args.n, args.shots, args.seed, args.alpha, args.beta)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "demo_circuit.txt").write_text(format_circuit_listing(result.circuit))
    _write_csv(
        out / "demo_reconstruction.csv",
        ("index", "ideal_amp", "sampled_amp", "lo_3sigma", "hi_3sigma"),
        _band_rows(result.ideal_amplitudes, result.sampled_amplitudes,
                   result.lo_3sigma, result.hi_3sigma),
    )
    n_anc = result.circuit.n_qubits - args.n
    print(f"qubits = {result.circuit.n_qubits} ({args.n} main + {n_anc} ancillas)")
    print(f"success_prob = {result.success_prob:.6g}")
    print(f"fraction of bins inside the 3-sigma band = {result.inside_band_fraction:.3g}")
    return 0


def cmd_sample(args) -> int:
    settings = load_config(args.config)
    if args.shots < 1:
        raise ConfigError(f"shots must be >= 1, got {args.shots}")
    config = settings.scenario
    field = initial_scalar_field(config, settings.initial)
    result = run_scenario(config, field)
    state = result.final_state
    counts = sample_counts(state, args.shots, args.seed)
    sampled, lo, hi, inside = three_sigma_band(
        np.abs(state.amplitudes) ** 2, counts, args.shots
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "sample.csv",
        ("index", "ideal_amp", "sampled_amp", "lo_3sigma", "hi_3sigma"),
        _band_rows(np.abs(state.amplitudes), sampled, lo, hi),
    )
    print(f"success_prob = {result.success_prob:.6g}")
    print(f"fraction of bins inside the 3-sigma band = {inside:.3g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qadvdiff",
        description="Spectral quantum circuits for advection-diffusion transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and export checkpoints")
    run.add_argument("--config", required=True, help="scenario config file")
    run.add_argument("--out-dir", default=".", help="output directory")
    run.add_argument("--splitting", choices=("trotter", "strang"),
                     help="override the config's splitting")
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("converge", help="error sweeps over grid size or steps")
    conv.add_argument("--config", required=True)
    conv.add_argument("--out-dir", default=".")
    group = conv.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid-sizes", type=int, nargs="+",
                       help="1D grid-size sweep (powers of two)")
    group.add_argument("--step-counts", type=int, nargs="+",
                       help="splitting-step sweep at fixed grid")
    conv.add_argument("--reference", choices=("self", "fd10"), default="self",
                      help="reference for step sweeps (default fine-step Strang)")
    conv.set_defaults(func=cmd_converge)

    gates = sub.add_parser("gatecount", help="advection gate counts vs register size")
    gates.add_argument("--profile", default="couette",
                       choices=("uniform", "couette", "poiseuille", "blasius"))
    gates.add_argument("--n-min", type=int, default=3)
    gates.add_argument("--n-max", type=int, default=8)
    gates.add_argument("--out-dir", default=".")
    gates.set_defaults(func=cmd_gatecount)

    demo = sub.add_parser("hardware-demo", help="fresh-ancilla demo circuit export")
    demo.add_argument("--n", type=int, default=3, help="main-register qubits")
    demo.add_argument("--shots", type=int, default=10_000)
    demo.add_argument("--seed", type=int, default=1234)
    demo.add_argument("--alpha", type=float, default=DEMO_ALPHA)
    demo.add_argument("--beta", type=float, default=DEMO_BETA)
    demo.add_argument("--out-dir", default=".")
    demo.set_defaults(func=cmd_hardware_demo)

    sample = sub.add_parser("sample", help="shot-sampled reconstruction of a run")
    sample.add_argument("--config", required=True)
    sample.add_argument("--shots", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=1234)
    sample.add_argument("--out-dir", default=".")
    sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: simulate, fit, transport, assemble, spectrum,
verify, and group check.

Exit codes: 0 success, 1 check failure, 2 configuration or parse error,
3 numerical divergence. Values in a config JSON (via --config) fill in any
flag left at its default; explicit flags win. Every JSON output embeds the
resolved configuration for provenance.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dictionaries, dynamics, equivariant, groups, koopman, scenarios
from .errors import (
    ConfigurationError,
    NumericalDivergenceError,
    SymkoopError,
    read_json,
    write_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _load_config(path):
    return {} if path is None else read_json(path, lambda config: config)


# options whose config value must be a JSON string: paths, labels, names
_TEXT_KEYS = frozenset({
    "system", "traj", "set_label", "operator", "group", "element",
    "target_label", "registry", "base_operator", "checks", "out",
})


def _resolve(args, config, key, default=None):
    """flag > config file > default. A config value of a text key (see
    _TEXT_KEYS) that is not a string raises a ConfigurationError naming the
    key and the file."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    value = config.get(key, default)
    if key in config and key in _TEXT_KEYS and not isinstance(value, str):
        raise ConfigurationError(
            f"config key {key!r} in {args.config} must be a string, got {value!r}")
    return value


def _resolve_number(args, config, key, default, integer=False, minimum=None):
    """The numeric option ``key`` (flag > config file > default) as an int
    when ``integer``, else a float. A flag's text is read with ``int`` or
    ``float``; a config value must already be a JSON number. A value that is
    not a finite number, not a whole number when ``integer``, or below
    ``minimum`` raises a ConfigurationError naming the key."""
    value = _resolve(args, config, key, default)
    if getattr(args, key, None) is not None:
        try:
            value = (int if integer else float)(value)
        except ValueError:
            pass  # the text stays a string, which is refused below
    kind = "an integer" if integer else "a finite number"
    if minimum is not None:
        kind += f" >= {minimum}"
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.nan
    if not math.isfinite(number) or (integer and not number.is_integer()) \
            or (minimum is not None and number < minimum):
        raise ConfigurationError(f"{key} must be {kind}, got {value!r}")
    return int(value) if integer else number


def _resolve_json(args, config, key, default):
    """The JSON value of option ``key`` (flag > config file > default): a
    flag's text is parsed, and so is a config value that is a string; any
    other config value is already JSON. Text that is no JSON raises a
    ConfigurationError naming the flag, or the config key and file."""
    value = _resolve(args, config, key)
    if value is None:
        return default
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as err:
        source = (f"--{key}" if getattr(args, key, None) is not None
                  else f"config key {key!r} in {args.config}")
        raise ConfigurationError(f"invalid JSON for {source}: {err}") from err


def _parse_state(text, dim=None):
    try:
        x = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as err:
        raise ConfigurationError(f"invalid state {text!r}: {err}") from err
    if dim is not None and x.shape != (dim,):
        raise ConfigurationError(
            f"state {text!r} has {len(x)} components, system expects {dim}"
        )
    return x


def _require_readable(path, what):
    if path is None:
        raise ConfigurationError(f"missing required {what}")
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"{what} {path!r} does not exist or is not a file")
    return p


def _write_json(path, payload):
    write_json(path, payload)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    config = _load_config(args.config)
    name = _resolve(args, config, "system")
    if name is None:
        raise ConfigurationError("simulate needs --system")
    params = _resolve_json(args, config, "params", {})
    system = dynamics.make_system(name, params)
    record = dynamics.builtin_system(name)
    dt = _resolve_number(args, config, "dt", record.dt)
    steps = _resolve_number(args, config, "steps", 500, integer=True, minimum=1)
    discard = _resolve_number(args, config, "discard", 0, integer=True, minimum=0)
    seed = _resolve_number(args, config, "seed", 0, integer=True, minimum=0)
    n_random = _resolve_number(args, config, "random_starts", 0, integer=True,
                               minimum=0)
    outdir = Path(_resolve(args, config, "out", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    starts = [_parse_state(text, system.dim) for text in (args.x0 or [])]
    if n_random:
        starts.extend(scenarios.sample_box(name, n_random, np.random.default_rng(seed)))
    if not starts and not args.emit_phase_portrait:
        raise ConfigurationError("simulate needs --x0 (repeatable) or --random-starts")

    # all starts in one block: one RK4 loop, bit for bit the per-start results
    trajs = dynamics.simulate(system, np.array(starts), dt, steps, discard) \
        if starts else []
    for i, traj in enumerate(trajs):
        path = outdir / f"{name}_traj{i:02d}.csv"
        dynamics.save_trajectory(traj, path)
        final = traj.states[-1]
        line = (
            f"{path}: {steps} steps, dt={dt}, final state "
            + "(" + ", ".join(f"{v:.6g}" for v in final) + ")"
        )
        if record.conserved is not None:
            drift = abs(record.conserved(*traj.states[-1])
                        - record.conserved(*traj.states[0]))
            line += f", energy drift {drift:.3e}"
        print(line)

    if args.emit_phase_portrait:
        _emit_phase_portrait(system, dt, args.emit_phase_portrait)
    return EXIT_OK


def _emit_phase_portrait(system, dt, path):
    """Plot-ready CSV (traj_id,t,x1..xn): a fan of trajectories covering the
    regions of the phase portrait. No rendering happens in-process."""
    draw_starts, steps, discard = scenarios.experiment(system.name).portrait
    starts = draw_starts(np.random.default_rng(0))
    trajs = dynamics.simulate(system, starts, dt, steps, discard)
    with open(path, "w") as fh:
        fh.write(
            "traj_id,t," + ",".join(f"x{i + 1}" for i in range(system.dim)) + "\n"
        )
        for tid, traj in enumerate(trajs):
            dynamics.write_trajectory_rows(fh, traj, prefix=f"{tid},")
    print(f"wrote phase portrait data to {path}")


def cmd_fit(args):
    config = _load_config(args.config)
    traj_path = _require_readable(_resolve(args, config, "traj"), "trajectory CSV")
    rank_tol = _resolve_number(args, config, "rank_tol", koopman.DEFAULT_RANK_TOL)
    traj = dynamics.load_trajectory(traj_path)
    dict_spec = _resolve_json(args, config, "dictionary", {"kind": "identity"})
    dictionary = dictionaries.dictionary_from_spec(dict_spec, dim=traj.dim)
    set_label = _resolve(args, config, "set_label", "fit")
    op = koopman.fit_trajectory(traj, dictionary, rank_tol, set_label=set_label)
    payload = koopman.operator_to_dict(op)
    payload["config"] = {
        "traj": str(traj_path),
        "dictionary": dictionary.to_spec(),
        "rank_tol": rank_tol,
        "set_label": set_label,
    }
    _write_json(_resolve(args, config, "out", "operator.json"), payload)
    ev = np.linalg.eigvals(op.matrix)
    print(f"fit residual {op.fit_residual:.3e}, rank {op.rank_used}/{op.size}")
    print("eigenvalues:", ", ".join(f"{v:.6g}" for v in ev))
    return EXIT_OK


def _load(args, config, key, load, what):
    """``load`` of the file named by option ``key`` (a ``what``), which must exist."""
    return load(_require_readable(_resolve(args, config, key), what))


def cmd_transport(args):
    config = _load_config(args.config)
    op = _load(args, config, "operator", koopman.load_operator, "operator JSON")
    group = _load(args, config, "group", groups.load_group, "group JSON")
    element_label = _resolve(args, config, "element")
    if element_label is None:
        raise ConfigurationError("transport needs --element")
    g = group.element(element_label)
    rep = dictionaries.induced_representation(op.dictionary, g)
    target = _resolve(args, config, "target_label") or f"{op.set_label}:{element_label}"
    transported = equivariant.transport_case1(op, rep, target_label=target)
    payload = koopman.operator_to_dict(transported)
    payload["config"] = {
        "operator": str(_resolve(args, config, "operator")),
        "group": str(_resolve(args, config, "group")),
        "element": element_label,
    }
    _write_json(_resolve(args, config, "out", "transported.json"), payload)
    return EXIT_OK


def cmd_assemble(args):
    config = _load_config(args.config)
    registry = _load(args, config, "registry", equivariant.load_registry, "registry JSON")
    base = _load(args, config, "base_operator", koopman.load_operator, "operator JSON")
    group = _load(args, config, "group", groups.load_group, "group JSON")
    equivariant.check_registry(registry, group)
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    gk = equivariant.assemble_global(registry, base, elements)
    payload = equivariant.global_to_dict(gk)
    payload["config"] = {
        "registry": str(_resolve(args, config, "registry")),
        "base_operator": str(_resolve(args, config, "base_operator")),
        "group": str(_resolve(args, config, "group")),
    }
    _write_json(_resolve(args, config, "out", "global.json"), payload)
    print(f"{'label':<12} {'size':>4} {'origin':<12} {'residual':>10}")
    for label, op in gk.blocks:
        origin = "transported" if op.is_transported else "fitted"
        print(f"{label:<12} {op.size:>4} {origin:<12} {op.fit_residual:>10.3e}")
    return EXIT_OK


def cmd_spectrum(args):
    config = _load_config(args.config)
    op = _load(args, config, "operator", koopman.load_operator, "operator JSON")
    spec = koopman.spectrum(op)
    for i, lam in enumerate(spec.eigenvalues):
        print(f"lambda_{i}: {lam.real:+.9g} {lam.imag:+.9g}i  |lambda|={abs(lam):.9g}")
    out = _resolve(args, config, "out")
    if out:
        _write_json(out, {"set_label": op.set_label,
                          "eigenvalues": koopman.spectrum_to_list(spec)})
    return EXIT_OK


def cmd_verify(args):
    config = _load_config(args.config)
    if args.list:
        for name in scenarios.check_names():
            print(name)
        return EXIT_OK
    names = _resolve(args, config, "checks")
    if names is not None:
        names = [n for n in names.split(",") if n]
        unknown = set(names) - set(scenarios.check_names())
        if unknown:
            raise ConfigurationError(f"unknown checks: {sorted(unknown)}")
    results = scenarios.run_verification(names)
    if not results:
        print("warning: no checks run")
        return EXIT_OK
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    out = _resolve(args, config, "out")
    if out:
        _write_json(out, {
            "all_passed": all(r.passed for r in results),
            "checks": [r.to_dict() for r in results],
        })
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_group_check(args):
    config = _load_config(args.config)
    # load_group ends in check_axioms and refuses a table that fails it, so
    # every axiom holds on the group it returns
    group = _load(args, config, "group", groups.load_group, "group JSON")
    report = {"order": group.order, **dict.fromkeys(groups.AXIOMS, True), "ok": True}
    print(f"order {group.order}: " + ", ".join(f"{axiom}=ok" for axiom in groups.AXIOMS))
    out = _resolve(args, config, "out")
    if out:
        _write_json(out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="symkoop",
        description="Koopman operators for symmetric dynamical systems: "
                    "fit locally, transport globally by group conjugation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("simulate", help="integrate a built-in system to CSV")
    common(p)
    p.add_argument("--system", choices=dynamics.system_names())
    p.add_argument("--params", help="JSON parameter overrides")
    p.add_argument("--x0", action="append", help="initial state 'a,b,...' (repeatable)")
    p.add_argument("--dt")
    p.add_argument("--steps")
    p.add_argument("--discard")
    p.add_argument("--seed")
    p.add_argument("--random-starts", dest="random_starts")
    p.add_argument("--emit-phase-portrait", dest="emit_phase_portrait",
                   help="write plot-ready portrait CSV to this path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fit", help="fit a Koopman operator from a trajectory CSV")
    common(p)
    p.add_argument("--traj")
    p.add_argument("--dictionary", help='e.g. {"kind": "monomial", "max_degree": 2}')
    p.add_argument("--rank-tol", dest="rank_tol")
    p.add_argument("--set-label", dest="set_label")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("transport", help="conjugate an operator across symmetry")
    common(p)
    p.add_argument("--operator")
    p.add_argument("--group")
    p.add_argument("--element")
    p.add_argument("--target-label", dest="target_label")
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("assemble", help="build the global block-diagonal operator")
    common(p)
    p.add_argument("--registry")
    p.add_argument("--base-operator", dest="base_operator")
    p.add_argument("--group")
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenfunction coefficients")
    common(p)
    p.add_argument("--operator")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run the built-in verification scenarios")
    common(p)
    p.add_argument("--checks", help="comma-separated check names (default: all)")
    p.add_argument("--list", action="store_true", help="list check names and exit")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("group", help="group-file utilities")
    gsub = p.add_subparsers(dest="group_command", required=True)
    pc = gsub.add_parser("check", help="verify group axioms from a group JSON")
    common(pc)
    pc.add_argument("--group")
    pc.set_defaults(fn=cmd_group_check)

    return parser


@functools.cache
def _parser():
    """build_parser(), built once per process; parse_args leaves it unchanged
    and fills a new namespace on every call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalDivergenceError as err:
        where = [f"{what} {index}" for what, index in
                 (("start", err.start_index), ("step", err.step_index))
                 if index is not None]
        where = f" ({', '.join(where)})" if where else ""
        print(f"error: numerical divergence{where}: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (SymkoopError, OSError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

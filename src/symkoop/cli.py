"""Command-line surface: simulate, fit, transport, assemble, spectrum,
verify, and group check.

Exit codes: 0 success, 1 check failure, 2 configuration or parse error,
3 numerical divergence. ``main`` resolves every option once (flag > config
JSON via --config > default) before the command runs. The JSON outputs of
fit, transport and assemble embed the resolved configuration.
"""

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import dictionaries, dynamics, equivariant, groups, koopman, scenarios
from .errors import (
    ConfigurationError,
    NumericalDivergenceError,
    SymkoopError,
    json_value,
    read_json,
    write_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _resolve(args, config, key, default=None, required=None):
    """The text option ``key`` (a path, label or name): flag > config file >
    default. A config value must be a string, and a missing value raises
    the message ``required``."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return json_value(config[key], f"config key {key!r} in {args.config}", "a string")
    if required:
        raise ConfigurationError(required)
    return default


def _resolve_number(args, config, key, default=None, kind="a finite number"):
    """The numeric option ``key`` (flag > config file > default, unchecked)
    of ``kind``, a number or integer kind of ``json_value``: a flag's text
    is read with ``int`` or ``float``, and a config value must already be a
    JSON number. An integer is also a finite number: a whole float counts
    as one, and an int too large for a float is refused."""
    read = float if kind == "a finite number" else int
    value = getattr(args, key, None)
    if value is None:
        if key not in config:
            return default
        value = config[key]
    else:
        try:
            value = read(value)
        except ValueError:
            pass  # the text stays a string, which is refused below
    if read is int and type(value) in (int, float) \
            and json_value(value, key, "a finite number").is_integer():
        value = int(value)
    return json_value(value, key, kind)


def _resolve_json(args, config, key, default=None):
    """The JSON object of option ``key`` (flag > config file > default): a
    flag's text is parsed, and so is a config value that is a string; any
    other config value is already JSON. Text that is no JSON, or a value
    that is no object (null included), raises a ConfigurationError naming
    the flag, or the config key and file."""
    value, source = getattr(args, key, None), f"--{key}"
    if value is None:
        if key not in config:
            return default
        value, source = config[key], f"config key {key!r} in {args.config}"
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"invalid JSON for {source}: {err}") from err
    return json_value(value, source, "a JSON object")


def _resolve_file(args, config, key, what):
    """The path named by the text option ``key`` (a ``what``), which must
    be a file."""
    path = _resolve(args, config, key, required=f"missing required {what}")
    if not Path(path).is_file():
        raise ConfigurationError(f"{what} {path!r} does not exist or is not a file")
    return Path(path)


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


def _write_json(path, payload):
    write_json(path, payload)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    system = dynamics.make_system(args.system, args.params)
    dt = system.dt if args.dt is None else args.dt
    starts = [_parse_state(text, system.dim) for text in (args.x0 or [])]
    if args.random_starts:
        starts.extend(scenarios.sample_box(args.system, args.random_starts,
                                           np.random.default_rng(args.seed)))
    if not starts and not args.emit_phase_portrait:
        raise ConfigurationError("simulate needs --x0 (repeatable) or --random-starts")

    # all starts in one block: one RK4 loop, bit for bit the per-start results
    trajs = dynamics.simulate(system, np.array(starts), dt, args.steps, args.discard) \
        if starts else []
    portrait = _phase_portrait(system, dt) if args.emit_phase_portrait else None
    outdir = Path(args.out)  # made only now, so a refused run leaves none behind
    # the directories mkdir makes, leaf first; a '..' names one that exists
    made = [d for d in (outdir, *outdir.parents) if d.name != ".." and not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:  # opened once --out exists, which may hold it, and before any output
        fh = open(args.emit_phase_portrait, "w") if portrait is not None else nullcontext()
    except OSError:
        for d in made:
            d.rmdir()
        raise
    with fh:
        for i, traj in enumerate(trajs):
            path = outdir / f"{args.system}_traj{i:02d}.csv"
            dynamics.save_trajectory(traj, path)
            final = traj.states[-1]
            line = (
                f"{path}: {args.steps} steps, dt={dt}, final state "
                + "(" + ", ".join(f"{v:.6g}" for v in final) + ")"
            )
            if system.conserved is not None:
                drift = abs(system.conserved(*final) - system.conserved(*traj.states[0]))
                line += f", energy drift {drift:.3e}"
            print(line)
        if portrait is not None:  # plot-ready CSV (traj_id,t,x1..xn), no rendering
            fh.write("traj_id,t," + ",".join(f"x{i + 1}" for i in range(system.dim)) + "\n")
            for tid, traj in enumerate(portrait):
                dynamics.write_trajectory_rows(fh, traj, prefix=f"{tid},")
    if portrait is not None:
        print(f"wrote phase portrait data to {args.emit_phase_portrait}")
    return EXIT_OK


def _phase_portrait(system, dt):
    """A fan of trajectories covering the regions of the phase portrait."""
    draw, n, discard = scenarios.experiment(system.name).portrait
    return dynamics.simulate(system, draw(np.random.default_rng(0)), dt, n, discard)


def cmd_fit(args):
    traj = dynamics.load_trajectory(args.traj)
    dictionary = dictionaries.dictionary_from_spec(args.dictionary, dim=traj.dim)
    op = koopman.fit_trajectory(traj, dictionary, args.rank_tol, set_label=args.set_label)
    payload = koopman.operator_to_dict(op)
    payload["config"] = {
        "traj": str(args.traj),
        "dictionary": dictionary.to_spec(),
        "rank_tol": args.rank_tol,
        "set_label": args.set_label,
    }
    _write_json(args.out, payload)
    ev = np.linalg.eigvals(op.matrix)
    print(f"fit residual {op.fit_residual:.3e}, rank {op.rank_used}/{op.size}")
    print("eigenvalues:", ", ".join(f"{v:.6g}" for v in ev))
    return EXIT_OK


def cmd_transport(args):
    op = koopman.load_operator(args.operator)
    group = groups.load_group(args.group)
    g = group.element(args.element)
    rep = dictionaries.induced_representation(op.dictionary, g)
    transported = equivariant.transport_case1(op, rep, target_label=args.target_label or None)
    payload = koopman.operator_to_dict(transported)
    payload["config"] = {
        "operator": str(args.operator),
        "group": str(args.group),
        "element": args.element,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_assemble(args):
    registry = equivariant.load_registry(args.registry)
    base = koopman.load_operator(args.base_operator)
    group = groups.load_group(args.group)
    equivariant.check_registry(registry, group)
    elements = {label: group.element(e) for label, e in registry.mapping.items()}
    gk = equivariant.assemble_global(registry, base, elements)
    payload = equivariant.global_to_dict(gk)
    payload["config"] = {
        "registry": str(args.registry),
        "base_operator": str(args.base_operator),
        "group": str(args.group),
    }
    _write_json(args.out, payload)
    print(f"{'label':<12} {'size':>4} {'origin':<12} {'residual':>10}")
    for label, op in gk.blocks:
        origin = "transported" if op.is_transported else "fitted"
        print(f"{label:<12} {op.size:>4} {origin:<12} {op.fit_residual:>10.3e}")
    return EXIT_OK


def cmd_spectrum(args):
    op = koopman.load_operator(args.operator)
    spec = koopman.spectrum(op)
    for i, lam in enumerate(spec.eigenvalues):
        print(f"lambda_{i}: {lam.real:+.9g} {lam.imag:+.9g}i  |lambda|={abs(lam):.9g}")
    if args.out:
        _write_json(args.out, {"set_label": op.set_label,
                               "eigenvalues": koopman.spectrum_to_list(spec)})
    return EXIT_OK


def cmd_verify(args):
    if args.list:
        for name in scenarios.check_names():
            print(name)
        return EXIT_OK
    names = args.checks
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
    if args.out:
        _write_json(args.out, {
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
    # load_group ends in check_axioms and refuses a table that fails it, so
    # every axiom holds on the group it returns
    group = groups.load_group(args.group)
    report = {"order": group.order, **dict.fromkeys(groups.AXIOMS, True), "ok": True}
    print(f"order {group.order}: " + ", ".join(f"{axiom}=ok" for axiom in groups.AXIOMS))
    if args.out:
        _write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    """The parser. A subcommand's ``options`` default lists, in declaration
    order, ``(key, resolve)``: ``main`` sets ``args.<key> = resolve(args, config)``."""
    parser = argparse.ArgumentParser(
        prog="symkoop",
        description="Koopman operators for symmetric dynamical systems: "
                    "fit locally, transport globally by group conjugation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, key, resolve, help=None, choices=None, **kw):
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=help, choices=choices)
        p.get_default("options").append((key, functools.partial(resolve, key=key, **kw)))

    def command(parent, name, fn, help, out=None):
        p = parent.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.set_defaults(fn=fn, options=[])
        option(p, "out", _resolve, help="output path", default=out)
        return p

    p = command(sub, "simulate", cmd_simulate, "integrate a built-in system to CSV", ".")
    option(p, "system", _resolve, choices=dynamics.system_names(),
           required="simulate needs --system")
    option(p, "params", _resolve_json, help="JSON parameter overrides")
    p.add_argument("--x0", action="append", help="initial state 'a,b,...' (repeatable)")
    option(p, "dt", _resolve_number)
    option(p, "steps", _resolve_number, default=500, kind="a positive integer")
    option(p, "discard", _resolve_number, default=0, kind="a nonnegative integer")
    option(p, "seed", _resolve_number, default=0, kind="a nonnegative integer")
    option(p, "random_starts", _resolve_number, default=0, kind="a nonnegative integer")
    p.add_argument("--emit-phase-portrait", dest="emit_phase_portrait",
                   help="write plot-ready portrait CSV to this path")

    p = command(sub, "fit", cmd_fit, "fit a Koopman operator from a trajectory CSV",
                "operator.json")
    # the path is checked, then rank_tol, and only then does cmd_fit read the CSV
    option(p, "traj", _resolve_file, what="trajectory CSV")
    option(p, "rank_tol", _resolve_number, default=koopman.DEFAULT_RANK_TOL)
    option(p, "dictionary", _resolve_json, default={"kind": "identity"},
           help='e.g. {"kind": "monomial", "max_degree": 2}')
    option(p, "set_label", _resolve, default="fit")

    p = command(sub, "transport", cmd_transport, "conjugate an operator across symmetry",
                "transported.json")
    option(p, "operator", _resolve_file, what="operator JSON")
    option(p, "group", _resolve_file, what="group JSON")
    option(p, "element", _resolve, required="transport needs --element")
    option(p, "target_label", _resolve)

    p = command(sub, "assemble", cmd_assemble, "build the global block-diagonal operator",
                "global.json")
    option(p, "registry", _resolve_file, what="registry JSON")
    option(p, "base_operator", _resolve_file, what="operator JSON")
    option(p, "group", _resolve_file, what="group JSON")

    p = command(sub, "spectrum", cmd_spectrum, "eigenvalues and eigenfunction coefficients")
    option(p, "operator", _resolve_file, what="operator JSON")

    p = command(sub, "verify", cmd_verify, "run the built-in verification scenarios")
    option(p, "checks", _resolve, help="comma-separated check names (default: all)")
    p.add_argument("--list", action="store_true", help="list check names and exit")

    p = sub.add_parser("group", help="group-file utilities")
    gsub = p.add_subparsers(dest="group_command", required=True)
    p = command(gsub, "check", cmd_group_check, "verify group axioms from a group JSON")
    option(p, "group", _resolve_file, what="group JSON")

    return parser


@functools.cache
def _parser():
    """build_parser(), built once per process; parse_args leaves it unchanged
    and fills a new namespace on every call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = {} if args.config is None else read_json(args.config, lambda c: c)
        for key, resolve in args.options:
            setattr(args, key, resolve(args, config))
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

"""Command-line experiments over the built-in fixtures.

Every command writes its artifacts (solutions in the grid text format, CSV
reports, a flat key=value run manifest carrying every parameter and tolerance
plus the code version) into --out, every CSV formatted here from the records
the layers return, and returns a process exit code:

    0   all certifications embedded in the run passed
    1   a certification failed (message names the failing check), or the
        data failed a certificate outright (``CertificationError``)
    2   flag errors, unreadable inputs, a flag the command does not read, and
        every other failed precondition (``ValueError``), e.g. a grid too
        small for the operator's stencil, for the touching balls or for the
        decay ladder's resolution floor, or a solve's grid with an even
        number of nodes on an axis, which multigrid cannot coarsen
    3   a solve that did not converge (message names the grid it failed on),
        and anything unexpected

A command reads its subject once: u from --input (whose directory --out may not
be) or --fixture; its operator from --op, else the run manifest beside the
input, else trace; its bounds from --lambda, else that manifest if it recorded
them for that operator.

Identical flags + seed produce byte-identical CSV artifacts; the only random
number generator in the package is the seeded one inside the operator
property checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .decay import (
    CHAIN_REL_TOL,
    MIN_RADIUS_NODES,
    CertificationError,
    DecayConfig,
    decay_profile,
    verify_decay_chain,
)
from .fileio import FLOAT_FMT, atomic_write_text, read_manifest, write_csv, write_manifest
from .fixtures import build_fixture, disc_problem, limit_families
from .grids import GridFunction, SymMatrix, read_grid_function, write_grid_function
from .mollify import check_schedule, sandwich_tolerance, stability_sweep
from .operators import (
    EllipticOperator,
    check_homogeneity,
    check_uniform_ellipticity,
    operator_spec_string,
    parse_operator,
    trace_operator,
)
from .solvers import MIN_LEVEL_NODES, SolverError, solve_dirichlet, solve_obstacle
from .stencils import eval_discrete
from .viscosity import (
    LIMIT_NODE_BUDGET,
    TRIGGER_SLACK,
    VISC_NODE_BUDGET,
    Bounds,
    check_pointwise,
    check_touching,
    default_tolerance,
    limit_stability_experiment,
    make_touching_dictionary,
)

__all__ = ["main"]


def _tol_scale(args) -> float:
    if not 0.0 < args.tol_scale < math.inf:
        raise ValueError("--tol-scale must be positive and finite")
    return args.tol_scale


def _resolution(args) -> int:
    if args.res < MIN_LEVEL_NODES:
        raise ValueError("--res must be at least %d" % MIN_LEVEL_NODES)
    return args.res


@dataclasses.dataclass(frozen=True)
class _Subject:
    """u, its operator, the bounds lam_lo <= F_h(u) <= lam_hi stated for that
    operator (None when nothing states them) and the keys naming u's source."""

    u: GridFunction
    op: EllipticOperator
    bounds: Bounds | None
    source: dict


def _subject(args) -> _Subject:
    """The subject by the rule in the module docstring, read once."""
    manifest = {}  # the run manifest beside --input
    if args.input:
        directory = os.path.dirname(os.path.abspath(args.input))
        if os.path.realpath(args.out) == os.path.realpath(directory):
            raise ValueError("--out is the directory of --input, whose manifest it would replace")
        u = read_grid_function(args.input)
        sibling = os.path.join(directory, "run_manifest.txt")
        if os.path.exists(sibling):
            manifest = read_manifest(sibling)
        source = {"input": args.input, "res": u.grid.shape[0]}
    else:
        u = build_fixture(args.fixture, _resolution(args))
        source = {"fixture": args.fixture, "res": u.grid.shape[0]}
    op = parse_operator(getattr(args, "op", None) or manifest.get("op", "trace"))
    bounds = None if getattr(args, "lam", None) is None else Bounds.symmetric(args.lam)
    recorded = [manifest.get(key) for key in ("lam_lo", "lam_hi")]
    if bounds is None and any(recorded) and manifest.get("op") == operator_spec_string(op):
        if not all(recorded):
            raise ValueError("%s records no %s" % (sibling, "lam_hi" if recorded[0] else "lam_lo"))
        bounds = Bounds(*map(float, recorded))
    return _Subject(u, op, bounds, source)


def _write_run_manifest(out, command, entries: dict):
    import scipy

    data = {"command": command, "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    data.update(entries)
    write_manifest(os.path.join(out, "run_manifest.txt"), data)


def _write_solve(out, command, result, entries: dict):
    """A solve's solution.txt, its manifest (``entries`` and the result's
    steps and bounds, which ``visc`` reads) and timings.json."""
    write_grid_function(result.u, os.path.join(out, "solution.txt"))
    entries.update({"steps": result.iterations,
                    "level_steps": " ".join("%d:%d" % lv for lv in result.level_steps),
                    "krylov_iterations": sum(row[2] for row in result.history),
                    "lam_lo": result.lam_lo, "lam_hi": result.lam_hi,
                    "contact_fraction": result.contact_fraction})
    _write_run_manifest(out, command, entries)
    # wall-clock seconds per level: never in a CSV, so reruns stay byte-identical
    atomic_write_text(os.path.join(out, "timings.json"), json.dumps(
        {"levels": [dict(nodes=n, **seconds) for n, seconds in result.timings]},
        indent=1) + "\n")


def _write_visc_report(out, report, grid):
    """visc_<scheme>.csv: one row per node with a verdict (its index,
    coordinates, margins and verdict), then the report's footer."""
    header = (["node"] + ["x", "y", "z"][: grid.ndim]
              + ["scheme", "upper_margin", "lower_margin", "verdict"])
    # one format string for every row: the text write_csv gives each cell
    row_format = ",".join(["%d"] + [FLOAT_FMT] * grid.ndim
                          + [report.scheme, FLOAT_FMT, FLOAT_FMT, "%d"])
    rows = map(row_format.__mod__, zip(
        report.node_indices.tolist(), *grid.points_at(report.node_indices).T.tolist(),
        report.node_upper.tolist(), report.node_lower.tolist(), report.verdicts.tolist()))
    footer = [("# worst_upper", report.worst_upper), ("# worst_lower", report.worst_lower),
              ("# tolerance", report.tolerance), ("# triggered", report.triggered)]
    if report.scheme == "touching":
        footer += [("# candidates", report.candidates), ("# worst_node", report.worst_node)]
    footer.append(("# passed", report.passed))
    write_csv(os.path.join(out, "visc_%s.csv" % report.scheme), header, (), footer, rows)


# -- commands -------------------------------------------------------------------


def cmd_props(args) -> int:
    out = args.out
    if args.seed is None:
        raise ValueError("--seed is required for randomized property checks")
    op = parse_operator(args.op)
    ell = check_uniform_ellipticity(op, seed=args.seed)
    hom = check_homogeneity(op, seed=args.seed)
    write_csv(
        os.path.join(out, "props.csv"),
        ["name", "passed", "worst_violation", "worst_normalized", "samples", "seed"],
        [(r.name, r.passed, r.worst_violation, r.worst_normalized, r.samples, r.seed)
         for r in (ell, hom)],
    )
    _write_run_manifest(out, "props", {
        "op": operator_spec_string(op),
        "seed": args.seed,
        "samples": ell.samples,
        "tolerance_normalized": 1e-10,
    })
    ok = ell.passed and hom.passed
    print("props[%s]: %s" % (operator_spec_string(op), "pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_solve(args) -> int:
    out = args.out
    subject = _subject(args)
    op, target = subject.op, subject.u
    # manufacture data so the exact discrete solution is known
    f = GridFunction(target.grid,
                     np.nan_to_num(eval_discrete(op, target).values, nan=0.0))
    tol = _tol_scale(args) * 1e-9 * (1.0 + f.sup_norm())
    # start from zero inside: the solver pins the margin band to the target
    zero = GridFunction(target.grid, np.zeros(target.grid.node_count))
    result = solve_dirichlet(op, f, target, tol=tol, grid=target.grid, initial=zero)
    sup_error = float(np.max(np.abs(result.u.values - target.values)))
    write_csv(os.path.join(out, "solve_report.csv"),
              ["steps", "residual", "sup_error"],
              [(result.iterations, result.residual, sup_error)])
    _write_solve(out, "solve", result, dict(subject.source, op=operator_spec_string(op),
                                            residual_tolerance=tol))
    print("solve: residual %.3e after %d steps, sup error %.3e"
          % (result.residual, result.iterations, sup_error))
    return 0


def cmd_obstacle(args) -> int:
    out = args.out
    if args.fixture != "disc":
        raise ValueError("the obstacle command supports only the 'disc' fixture")
    res = _resolution(args)
    tol = _tol_scale(args) * 1e-9
    op = parse_operator(args.op)
    problem = dataclasses.replace(disc_problem(res), op=op)
    result = solve_obstacle(problem, tol=tol)
    write_csv(os.path.join(out, "obstacle_report.csv"),
              ["contact_fraction", "lam_lo", "lam_hi", "steps", "residual"],
              [(result.contact_fraction, result.lam_lo, result.lam_hi,
                result.iterations, result.residual)])
    _write_solve(out, "obstacle", result, {
        "fixture": "disc", "res": res, "op": operator_spec_string(op),
        "g_weight": problem.g_weight, "residual_tolerance": tol,
    })
    print("obstacle: contact %.1f%%, bounds [%.4g, %.4g]"
          % (100 * result.contact_fraction, result.lam_lo, result.lam_hi))
    return 0


def cmd_visc(args) -> int:
    out = args.out
    if not args.input:
        raise ValueError("the visc command needs --input (a grid-function file)")
    subject = _subject(args)
    u, op, bounds = subject.u, subject.op, subject.bounds
    if bounds is None:
        raise ValueError(
            "no bounds available for %s: pass --lambda, or keep the input next to "
            "the run manifest that recorded bounds for this operator"
            % operator_spec_string(op))
    tol = _tol_scale(args) * default_tolerance(op, u)
    pointwise = check_pointwise(u, op, bounds, tol=tol)
    dictionary = make_touching_dictionary(u, node_budget=VISC_NODE_BUDGET)
    touching = check_touching(u, op, bounds, dictionary, tol=tol)
    _write_visc_report(out, pointwise, u.grid)
    _write_visc_report(out, touching, u.grid)
    _write_run_manifest(out, "visc", {
        "input": args.input, "op": operator_spec_string(op),
        "lam_lo": bounds.lam_lo, "lam_hi": bounds.lam_hi,
        "tolerance": tol, "node_budget": VISC_NODE_BUDGET,
        "trigger_slack": TRIGGER_SLACK * u.grid.h ** 2,
    })
    ok = pointwise.passed and touching.passed
    print("visc: pointwise %s, touching %s (tol %.3g)"
          % (pointwise.passed, touching.passed, tol))
    if not ok:
        print("see %s" % os.path.join(out, "visc_pointwise.csv"), file=sys.stderr)
    return 0 if ok else 1


def cmd_campanato(args) -> int:
    out = args.out
    subject = _subject(args)
    cfg = DecayConfig(lam=args.ratio, beta=args.beta, levels=args.levels)
    grid = subject.u.grid
    center = tuple(0.5 * (lo + hi) for lo, hi in
                   zip(grid.domain.lower, grid.domain.upper))
    radius0 = 0.5 * min(grid.domain.extent(a) for a in range(grid.ndim))
    profile = decay_profile(subject.u, center, cfg, radius0)
    write_csv(os.path.join(out, "decay.csv"), ["k", "r", "psi", "phi", "usable"],
              zip(range(len(profile.radii)), profile.radii, profile.psi, profile.phi,
                  profile.usable),
              [("# slope", profile.slope), ("# beta_hat", profile.beta_hat),
               ("# sigma", profile.sigma), ("# bootstrap_spread", profile.spread)])
    chain = verify_decay_chain(profile)
    write_csv(os.path.join(out, "chain.csv"), ["k", "phi", "bound", "ok"], chain)
    ok = all(step[3] for step in chain)
    _write_run_manifest(out, "campanato", {
        **subject.source, "ratio": cfg.lam, "beta": cfg.beta, "levels": cfg.levels,
        "radius0": radius0, "chain_rel_tol": CHAIN_REL_TOL, "min_radius_nodes": MIN_RADIUS_NODES,
        "beta_hat": profile.beta_hat, "slope": profile.slope, "sigma": profile.sigma,
        "spread": profile.spread, "simplex_pivots": sum(profile.pivots), "chain_ok": int(ok)})
    print("campanato: beta_hat %.4f (spread %.2g), chain %s"
          % (profile.beta_hat, profile.spread, "pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_mollify(args) -> int:
    out = args.out
    subject = _subject(args)
    u, op = subject.u, subject.op
    if op.kind not in ("trace", "linear"):  # the sweep takes one constant SPD matrix
        raise ValueError("mollify checks linear operators only, not %s" % operator_spec_string(op))
    h = u.grid.h
    schedule = check_schedule([24.0 * h, 16.0 * h, 12.0 * h, 8.0 * h]
                              if args.eps is None else [args.eps], h)
    if subject.bounds is None:  # the realized range of F_h(u), NaN where undefined
        realized = eval_discrete(op, u).values
        f1, f2 = float(np.nanmin(realized)), float(np.nanmax(realized))
    else:
        f1, f2 = subject.bounds.lam_lo, subject.bounds.lam_hi
    a = SymMatrix(op.mats[0]) if op.mats else SymMatrix.identity(u.grid.ndim)
    min_half = 0.5 * min(u.grid.domain.extent(ax) for ax in range(u.grid.ndim))
    r = 0.5 * (min_half - schedule[0])
    if r <= 2.0 * h:
        raise ValueError("grid too small for this schedule: no room for the norm ball")
    sandwich_tol = sandwich_tolerance(u, a, f2)
    entries = {**subject.source, "op": operator_spec_string(op), "lam_lo": f1, "lam_hi": f2,
               "eps_schedule": " ".join("%.17g" % e for e in schedule),
               "p": 4.0, "r": r, "sandwich_tolerance": sandwich_tol}
    rows = stability_sweep(u, a, f1, f2, schedule, 4.0, r)
    write_csv(os.path.join(out, "sweep.csv"), ["eps", "norm_p", "pass-flag"],
              [(row.eps, row.norm_p, row.passed) for row in rows])
    _write_run_manifest(out, "mollify", entries)
    ok = all(row.passed for row in rows)
    norms = [row.norm_p for row in rows]
    print("mollify: sandwich %s, norm column %.4g .. %.4g"
          % ("pass" if ok else "FAIL", min(norms), max(norms)))
    return 0 if ok else 1


def cmd_limit(args) -> int:
    out = args.out
    res = _resolution(args)
    if args.levels < 1:
        raise ValueError("--levels must be positive")
    op = trace_operator()
    rows = []
    verdicts = {}
    for name, (gen, u_lim, lam_lim) in sorted(limit_families(res).items()):
        report = limit_stability_experiment(gen, args.levels, op, u_limit=u_lim,
                                            lam_limit=lam_lim)
        verdicts[name] = report.passed
        for k in range(len(report.lam_seq)):
            rows.append((name, k + 1, report.lam_seq[k], report.deltas[k],
                         report.self_pass[k], report.pointwise_pass[k],
                         report.touching_pass[k]))
    write_csv(os.path.join(out, "limit_report.csv"),
              ["family", "k", "lam_k", "delta_k", "self_pass",
               "pointwise_pass", "touching_pass"], rows)
    _write_run_manifest(out, "limit", {
        "res": res, "k_max": args.levels, "op": "trace", "node_budget": LIMIT_NODE_BUDGET,
    })
    ok = all(verdicts.values())
    print("limit: " + ", ".join("%s %s" % (n, "pass" if v else "FAIL")
                                for n, v in sorted(verdicts.items())))
    return 0 if ok else 1


# -- wiring ---------------------------------------------------------------------


# dest -> (option string, type, help) of every flag a command may read
_FLAGS = {
    "op": ("--op", str, "trace | linear:a11,a12,a22 | pucci+:l1,l2 | pucci-:l1,l2"),
    "res": ("--res", int, "nodes per axis, at least %d; odd for a solve"
            % MIN_LEVEL_NODES),
    "fixture": ("--fixture", str, "harmonic | quad | kink | radial-holder:g | disc"),
    "input": ("--input", str, "grid-function file from an earlier run"),
    "seed": ("--seed", int, "seed for randomized checks"),
    "lam": ("--lambda", float, "symmetric bound |F_h(u)| <= lambda"),
    "ratio": ("--ratio", float, "decay ratio of the dyadic radii"),
    "beta": ("--beta", float, "Holder exponent target"),
    "eps": ("--eps", float, "mollifier radius (default: 24h, 16h, 12h, 8h)"),
    "levels": ("--levels", int, "dyadic levels / iterate count"),
    "tol_scale": ("--tol-scale", float,
                  "multiply every default tolerance: positive and finite"),
}

# command -> (function, help, {dest: default} of the flags it reads besides
# --out); any other flag is a usage error
_COMMANDS = {
    "solve": (cmd_solve, "solve F_h(u) = f manufactured from a fixture",
              {"op": "trace", "res": 65, "fixture": "harmonic", "input": None,
               "tol_scale": 1.0}),
    "obstacle": (cmd_obstacle, "solve the disc obstacle problem",
                 {"op": "trace", "res": 65, "fixture": "disc", "tol_scale": 1.0}),
    "visc": (cmd_visc, "certify viscosity bounds on a stored solution",
             {"input": None, "lam": None, "op": None, "tol_scale": 1.0}),
    # four dyadic quarterings need headroom over the 4h floor: res 257
    "campanato": (cmd_campanato, "oscillation-decay profile and chain check",
                  {"res": 257, "fixture": "harmonic", "input": None, "ratio": 0.25,
                   "beta": 0.5, "levels": 2}),
    "mollify": (cmd_mollify, "mollification sandwich and Hessian norm sweep",
                {"res": 65, "fixture": "harmonic", "input": None, "eps": None,
                 "lam": None, "op": None}),
    "limit": (cmd_limit, "certificate stability under locally uniform limits",
              {"res": 65, "levels": 6}),
    "props": (cmd_props, "randomized operator property checks",
              {"op": "pucci+:1,2", "seed": None}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="ellipticlab",
        description="Experiments with discrete elliptic differential inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--out", default=".", help="artifact directory (default .)")
        for dest, default in defaults.items():
            flag, kind, text = _FLAGS[dest]
            if default is not None:
                text += " (default %(default)s)"
            sp.add_argument(flag, dest=dest, type=kind, default=default, help=text)
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # --out is created by the first artifact written into it
        return args.func(args)
    except CertificationError as exc:
        print("ellipticlab: certification failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # bad flags, unreadable inputs and failed preconditions, StencilReachError
        # among them: nothing was certified
        print("ellipticlab: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        # no certificate was attempted: the solve itself did not converge
        print("ellipticlab: solver failed: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print("ellipticlab: internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

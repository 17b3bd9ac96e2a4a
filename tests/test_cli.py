"""End-to-end command-line runs, exercised the way a shell user would:
exit code 0 = certified, 1 = certification failure, 2 = usage error,
3 = a solve that did not converge, or anything unexpected."""

import argparse
import ast
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from ellipticlab import (
    GridFunction,
    build_fixture,
    pucci_max,
    write_grid_function,
)
from ellipticlab import cli, solvers
from ellipticlab.fileio import read_manifest
from ellipticlab.operators import operator_spec_string

from conftest import field, unit_square_grid

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ellipticlab.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def affine_file(tmp_path_factory):
    g = unit_square_grid(257)
    u = field(g, lambda p: 0.25 + 0.5 * p[:, 0] - 0.125 * p[:, 1])
    path = tmp_path_factory.mktemp("inputs") / "affine.txt"
    write_grid_function(u, path)
    return path


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    """A 5x5 grid function: no touching ball fits inside its domain."""
    g = unit_square_grid(5)
    path = tmp_path_factory.mktemp("inputs") / "tiny.txt"
    write_grid_function(field(g, lambda p: p[:, 0] ** 2), path)
    return path


def obstacle(tmp_path_factory, *args):
    out = tmp_path_factory.mktemp("obstacle")
    r = run_cli("obstacle", "--fixture", "disc", *args, "--out", str(out))
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def obstacle_run(tmp_path_factory):
    return obstacle(tmp_path_factory, "--res", "33")


@pytest.fixture(scope="module")
def obstacle_run_65(tmp_path_factory):
    """Fine enough for mollify's default radii."""
    return obstacle(tmp_path_factory, "--res", "65")


@pytest.fixture(scope="module")
def pucci_run(tmp_path_factory):
    return obstacle(tmp_path_factory, "--res", "33", "--op", "pucci+:1,2")


# ---------------------------------------------------------------------------
# usage errors -> exit 2


@pytest.mark.parametrize("args", [
    ("props",),                                   # missing --seed
    ("props", "--seed", "1", "--op", "nonsense"),
    ("solve", "--res", "5"),
    ("solve", "--tol-scale", "0"),
    ("visc",),                                    # missing --input
    ("obstacle", "--fixture", "harmonic"),        # only disc has an obstacle
    ("campanato", "--ratio", "0.5"),              # induction cannot close
    ("mollify", "--eps", "0.001"),                # under-resolved kernel
    ("campanato", "--fixture", "quad", "--res", "33",
     "--out", "{tmp}"),                           # resolution floor violated
    ("visc", "--input", "{tiny}", "--lambda", "1",
     "--out", "{tmp}"),                           # no touching ball fits
    ("mollify", "--lambda", "nan", "--out", "{tmp}"),  # non-finite sandwich bounds
    # even --res: 2^k m cells with m odd, which multigrid cannot coarsen
    ("obstacle", "--res", "128", "--out", "{tmp}"),
    ("obstacle", "--res", "128", "--op", "pucci-:1,2", "--out", "{tmp}"),
    ("solve", "--res", "64", "--out", "{tmp}"),
    ("limit", "--res", "64", "--out", "{tmp}"),
    # a tolerance must be positive and finite: inf passed any certificate,
    # and nan broke BiCGSTAB down at its first step
    ("solve", "--tol-scale", "nan", "--out", "{tmp}"),
    ("solve", "--tol-scale", "inf", "--out", "{tmp}"),
    ("obstacle", "--tol-scale", "nan", "--out", "{tmp}"),
    ("obstacle", "--tol-scale", "inf", "--out", "{tmp}"),
    ("visc", "--input", "{solution}", "--tol-scale", "nan", "--out", "{tmp}"),
    ("visc", "--input", "{solution}", "--lambda", "1", "--tol-scale", "inf",
     "--out", "{tmp}"),
    # bounds must be finite: inf passed both certificates, and nan was
    # refused as crossed bounds
    ("visc", "--input", "{solution}", "--lambda", "inf", "--out", "{tmp}"),
    ("visc", "--input", "{solution}", "--lambda", "nan", "--out", "{tmp}"),
    # a non-finite eps: nan stopped in Python's float-to-int conversion, and
    # inf was refused as leaving no room for the norm ball
    ("mollify", "--eps", "nan", "--out", "{tmp}"),
    ("mollify", "--eps", "inf", "--out", "{tmp}"),
    # --lambda is a magnitude: -1 was read as 1
    ("visc", "--input", "{solution}", "--lambda", "-1", "--out", "{tmp}"),
    ("mollify", "--fixture", "harmonic", "--lambda", "-1", "--out", "{tmp}"),
])
def test_usage_errors(args, tiny_file, obstacle_run, tmp_path):
    """A refused run exits 2 and leaves nothing of a run that never
    happened: not even its --out directory."""
    solution = obstacle_run / "solution.txt"
    out = tmp_path / "out"
    r = run_cli(*(a.format(tiny=tiny_file, solution=solution, tmp=out) for a in args))
    assert r.returncode == 2, (args, r.stderr)
    assert r.stderr.strip()
    assert "certification failed" not in r.stderr
    assert not out.exists()
    if "--tol-scale" in args:
        assert "--tol-scale must be positive and finite" in r.stderr
    flags = dict(zip(args, args[1:]))
    if flags.get("--lambda") in ("nan", "inf"):
        assert "bounds must be finite" in r.stderr
    if flags.get("--lambda") == "-1":
        assert "a symmetric bound must be >= 0, got -1.0" in r.stderr
    if flags.get("--eps") in ("nan", "inf"):
        assert "every eps must be finite" in r.stderr
    res = flags.get("--res")
    if res and int(res) % 2 == 0:
        assert "the %sx%s grid has an odd number of cells" % (res, res) in r.stderr


def test_unknown_command_is_a_usage_error():
    assert run_cli("frobnicate").returncode == 2


@pytest.mark.parametrize("args", [
    ("obstacle", "--lambda", "0.5"),
    ("limit", "--op", "pucci+:1,2"),
    ("campanato", "--eps", "0.1"),
    ("mollify", "--tol-scale", "2"),
    ("props", "--seed", "1", "--res", "33"),
    ("visc", "--input", "{tiny}", "--fixture", "quad"),
    ("campanato", "--lambda", "0.5"),  # the decay ratio is --ratio
])
def test_unread_flags_are_usage_errors(args, tiny_file, tmp_path, capsys):
    """A flag the command would not read is refused, not parsed and dropped."""
    argv = [a.format(tiny=tiny_file) for a in args] + ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_DEFAULTS = {
    "props": dict(op="pucci+:1,2", seed=None),
    "solve": dict(op="trace", res=65, fixture="harmonic", input=None, tol_scale=1.0),
    "obstacle": dict(op="trace", res=65, fixture="disc", tol_scale=1.0),
    # no --op: the input's manifest names the operator, else trace
    "visc": dict(input=None, lam=None, op=None, tol_scale=1.0),
    "campanato": dict(res=257, fixture="harmonic", input=None, ratio=0.25, beta=0.5,
                      levels=2),
    # no --op: the input's manifest names the operator, else trace
    "mollify": dict(res=65, fixture="harmonic", input=None, eps=None, lam=None,
                    op=None),
    "limit": dict(res=65, levels=6),
}


@pytest.mark.parametrize("command", list(_DEFAULTS))
def test_command_defaults(command):
    """Each command parses exactly --out plus its own flags, with these defaults."""
    args = vars(cli.build_parser().parse_args([command]))
    assert args.pop("func") is getattr(cli, "cmd_" + command)
    assert args == dict(_DEFAULTS[command], command=command, out=".")


def test_readme_flag_table_matches_the_parser():
    """README's command-line table lists each command's flags and defaults as
    the parser declares them: `--flag default`, or `--flag` when absent means
    something else."""
    readme = (ROOT / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` +\|[^|]*\|(.*)\|$", readme, re.M))
    parsers = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices
    assert set(rows) == set(parsers)
    for command, sp in parsers.items():
        documented = {flag: default or None for flag, default
                      in re.findall(r"`(--[a-z-]+) ?([^`]*)`", rows[command])}
        declared = {a.option_strings[0]: None if a.default is None else str(a.default)
                    for a in sp._actions if a.option_strings[0] not in ("-h", "--out")}
        assert documented == declared, command


def test_grid_too_small_for_the_stencil_is_a_usage_error(tmp_path):
    """Selling's stencil for this anisotropic A reaches 9 nodes: no room on 17^2."""
    r = run_cli("solve", "--op", "linear:1.01,9,81.01", "--fixture", "quad",
                "--res", "17", "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "reach 9" in r.stderr
    assert "certification failed" not in r.stderr


def test_three_dimensional_grid_is_a_usage_error(tmp_path):
    """The scheme is implemented for 1D and 2D grids: a 3D input is a failed
    precondition, not a crash."""
    path = tmp_path / "quad3d.txt"
    write_grid_function(build_fixture("quad", 9, ndim=3), path)
    r = run_cli("visc", "--input", str(path), "--lambda", "5", "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "the scheme is implemented for 1D and 2D grids" in r.stderr


# ---------------------------------------------------------------------------
# certification failures -> exit 1


def test_affine_input_fails_campanato(affine_file, tmp_path):
    r = run_cli("campanato", "--input", str(affine_file), "--out", str(tmp_path))
    assert r.returncode == 1
    assert "fewer than 3 usable levels" in r.stderr


# ---------------------------------------------------------------------------
# solver failures -> exit 3


def test_solver_failure_is_not_a_certification_failure(monkeypatch, capsys, tmp_path):
    """A one-step budget stops the coarse-to-fine solve on its coarsest level;
    no certificate was attempted, so the exit code is 3, and the message
    names the grid that failed."""
    monkeypatch.setattr(solvers, "MAX_STEPS", 1)
    code = cli.main(["obstacle", "--res", "65", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "17x17 grid" in err
    assert "certification failed" not in err


# ---------------------------------------------------------------------------
# happy paths -> exit 0 plus artifacts


def test_props_writes_report(tmp_path):
    r = run_cli("props", "--seed", "7", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    text = (tmp_path / "props.csv").read_text()
    assert text.splitlines()[0].startswith("name,")
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert man["seed"] == "7"


def test_solve_quad_exact(tmp_path):
    r = run_cli("solve", "--fixture", "quad", "--res", "33", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "solution.txt").exists()
    head, row = (tmp_path / "solve_report.csv").read_text().splitlines()
    report = dict(zip(head.split(","), row.split(",")))
    assert int(report["steps"]) >= 1  # a real solve from a zero interior
    assert float(report["sup_error"]) <= 1e-8
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert man["steps"] == report["steps"]
    assert int(man["krylov_iterations"]) >= int(report["steps"])
    assert "tau" not in man


@pytest.mark.parametrize("args, report", [
    (("solve", "--fixture", "quad", "--res", "33"), "solve_report.csv"),
    (("obstacle", "--res", "33"), "obstacle_report.csv"),
])
def test_tol_scale_scales_the_solver_tolerance(args, report, tmp_path):
    """--tol-scale 0.5 halves the residual tolerance the manifest records, and
    the solve meets the halved tolerance."""
    tols = []
    for scale in ("1", "0.5"):
        out = tmp_path / scale
        assert cli.main([*args, "--tol-scale", scale, "--out", str(out)]) == 0
        tols.append(float(read_manifest(out / "run_manifest.txt")["residual_tolerance"]))
    assert tols[1] == 0.5 * tols[0]
    head, row = (out / report).read_text().splitlines()
    assert float(dict(zip(head.split(","), row.split(",")))["residual"]) <= tols[1]


def test_solve_non_diagonal_linear(tmp_path):
    """linear:2,0.5,1 has a monotone scheme (Selling's weights), so it solves."""
    r = run_cli("solve", "--op", "linear:2,0.5,1", "--fixture", "quad", "--res", "33",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    head, row = (tmp_path / "solve_report.csv").read_text().splitlines()
    report = dict(zip(head.split(","), row.split(",")))
    assert float(report["sup_error"]) <= 1e-8


def test_import_leaves_scipy_unloaded():
    """scipy loads inside the solves, so importing the package stays light."""
    code = ("import sys, ellipticlab, ellipticlab.cli; "
            "sys.exit('scipy' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr or "importing ellipticlab loaded scipy"


def test_only_the_cli_and_the_grid_format_import_fileio():
    """The CLI formats every CSV and manifest, and grids the grid file format:
    no other module of the package imports the text-output helpers."""
    importers = set()
    for path in (ROOT / "src" / "ellipticlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module or "", a.name) for a in node.names]
            else:
                continue
            if any("fileio" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers == {"cli.py", "grids.py"}


def test_mollification_leaves_scipy_unloaded():
    """The mollifier convolves by numpy's FFT: a sweep never loads scipy."""
    code = ("import sys; import ellipticlab as el; "
            "u = el.build_fixture('quad', 33); h = u.grid.h; "
            "el.mollify(u, 4 * h); "
            "el.stability_sweep(u, el.SymMatrix.identity(2), 0.0, 4.0, [4 * h, 3 * h], "
            "p=4.0, r=0.2); "
            "sys.exit('scipy' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr or "mollification loaded scipy"


TIMINGS = {"nodes", "build_s", "refill_s", "krylov_s", "projected_s"}


def test_obstacle_writes_its_timings_outside_the_csvs(obstacle_run):
    """Seconds per level of layout and V-cycle builds, refills, BiCGSTAB and
    projected steps go to timings.json, beside the manifest and in no CSV.
    The coarse level only takes projected steps; the finest goes on to
    BiCGSTAB steps."""
    import json

    levels = json.loads((obstacle_run / "timings.json").read_text())["levels"]
    assert [level["nodes"] for level in levels] == [17, 33]
    for level in levels:
        assert set(level) == TIMINGS
        assert all(level[key] > 0.0 for key in ("build_s", "refill_s", "projected_s"))
    assert levels[0]["krylov_s"] == 0.0 < levels[1]["krylov_s"]
    for csv in obstacle_run.glob("*.csv"):
        assert "krylov_s" not in csv.read_text()


def test_solve_writes_its_timings_outside_the_csvs(tmp_path):
    """The Dirichlet solve's one level records its seconds of layout and
    V-cycle builds, refills and BiCGSTAB in timings.json, as the obstacle's
    levels do, and no CSV carries them; it takes no projected step."""
    import json

    r = run_cli("solve", "--fixture", "quad", "--res", "33", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    levels = json.loads((tmp_path / "timings.json").read_text())["levels"]
    assert [level["nodes"] for level in levels] == [33]
    for level in levels:
        assert set(level) == TIMINGS
        assert all(level[key] > 0.0 for key in ("build_s", "refill_s", "krylov_s"))
        assert level["projected_s"] == 0.0  # no obstacle, so no projected step
    for csv in tmp_path.glob("*.csv"):
        assert "krylov_s" not in csv.read_text()


def test_obstacle_manifest_records_bounds(obstacle_run):
    man = read_manifest(obstacle_run / "run_manifest.txt")
    levels = [level.split(":") for level in man["level_steps"].split()]
    assert [n for n, _ in levels] == ["17", "33"]
    assert sum(int(steps) for _, steps in levels) == int(man["steps"])
    assert int(man["krylov_iterations"]) >= 1
    assert float(man["lam_hi"]) == pytest.approx(0.25, abs=1e-6)
    assert float(man["lam_lo"]) == pytest.approx(-4.0, abs=1e-6)
    assert 0.05 <= float(man["contact_fraction"]) <= 0.30
    assert (man["python"], man["numpy"], man["scipy"]) == \
        (platform.python_version(), np.__version__, scipy.__version__)


def test_visc_certifies_a_solve_run(tmp_path):
    """A solve's manifest records the bounds of its result as an obstacle's
    does, so visc certifies its solution with neither --lambda nor --op."""
    solved, certified = tmp_path / "solve", tmp_path / "visc"
    r = run_cli("solve", "--fixture", "quad", "--op", "pucci+:1,2", "--res", "33",
                "--out", str(solved))
    assert r.returncode == 0, r.stderr
    man = read_manifest(solved / "run_manifest.txt")
    assert man["level_steps"] == "33:%s" % man["steps"]
    assert man["contact_fraction"] == "0"
    r = run_cli("visc", "--input", str(solved / "solution.txt"), "--out", str(certified))
    assert r.returncode == 0, r.stderr
    visc = read_manifest(certified / "run_manifest.txt")
    assert [visc[k] for k in ("lam_lo", "lam_hi", "op")] == \
        [man[k] for k in ("lam_lo", "lam_hi", "op")]


def test_visc_reads_sibling_manifest(obstacle_run, tmp_path):
    r = run_cli("visc", "--input", str(obstacle_run / "solution.txt"),
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "visc_pointwise.csv").exists()
    assert (tmp_path / "visc_touching.csv").exists()


@pytest.mark.parametrize("args", [
    ("--input", "{affine}"),                                 # no manifest beside it
    ("--input", "{pucci}", "--op", "pucci-:1,2"),            # bounds for pucci+ only
])
def test_visc_needs_bounds_stated_for_its_operator(args, affine_file, pucci_run, tmp_path):
    """Without --lambda, visc certifies against the bounds that the input's
    manifest recorded for the operator it checks, and refuses when there
    are none."""
    argv = [a.format(affine=affine_file, pucci=pucci_run / "solution.txt") for a in args]
    r = run_cli("visc", *argv, "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "no bounds available" in r.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kept, dropped", [("lam_lo", "lam_hi"), ("lam_hi", "lam_lo")])
def test_visc_refuses_a_manifest_with_one_bound(kept, dropped, obstacle_run, tmp_path):
    """A run manifest that records one bound but not the other is an
    unreadable input: exit 2 naming the missing key, and nothing written."""
    run = tmp_path / "run"
    shutil.copytree(obstacle_run, run)
    lines = (run / "run_manifest.txt").read_text().splitlines()
    assert any(line.startswith(kept + "=") for line in lines)
    (run / "run_manifest.txt").write_text(
        "".join(line + "\n" for line in lines if not line.startswith(dropped + "=")))
    out = tmp_path / "out"
    r = run_cli("visc", "--input", str(run / "solution.txt"), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "records no %s" % dropped in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "visc", "mollify"])
def test_out_may_not_be_the_input_directory(command, obstacle_run_65, tmp_path):
    """Writing into the input's directory would replace the manifest that
    states its operator and bounds: refused, and nothing there changes."""
    run = tmp_path / "run"
    shutil.copytree(obstacle_run_65, run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    r = run_cli(command, "--input", str(run / "solution.txt"), "--out", str(run))
    assert r.returncode == 2, r.stderr
    assert "--out is the directory of --input" in r.stderr
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_obstacle_solves_the_given_operator(tmp_path):
    """``obstacle --op`` solves the disc problem for that operator, here one
    whose stencils reach two node layers; the manifest names it, and visc on
    the solution reads it from there."""
    solved, certified = tmp_path / "obstacle", tmp_path / "visc"
    r = run_cli("obstacle", "--op", "pucci+:1,10", "--res", "65", "--out", str(solved))
    assert r.returncode == 0, r.stderr
    man = read_manifest(solved / "run_manifest.txt")
    assert man["op"] == operator_spec_string(pucci_max(1.0, 10.0))
    assert man["g_weight"] == "1"
    r = run_cli("visc", "--input", str(solved / "solution.txt"), "--out", str(certified))
    assert r.returncode == 0, r.stderr
    assert read_manifest(certified / "run_manifest.txt")["op"] == man["op"]


def test_campanato_default_run(tmp_path):
    r = run_cli("campanato", "--fixture", "harmonic", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert float(man["beta_hat"]) == pytest.approx(1.0, abs=1e-9)
    assert int(man["simplex_pivots"]) >= 0
    chain = (tmp_path / "chain.csv").read_text().splitlines()
    assert chain[0] == "k,phi,bound,ok"
    assert all(line.endswith(",1") for line in chain[1:])


def test_mollify_manifest_records_the_applied_tolerance(monkeypatch, tmp_path):
    """sandwich_tolerance in the manifest is the tolerance the sweep applies."""
    mollify_module = sys.modules["ellipticlab.mollify"]
    tolerance = mollify_module.sandwich_tolerance
    applied = []

    def recording(*args):
        applied.append(tolerance(*args))
        return applied[-1]

    monkeypatch.setattr(mollify_module, "sandwich_tolerance", recording)
    assert cli.main(["mollify", "--fixture", "quad", "--res", "65",
                     "--out", str(tmp_path)]) == 0
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert applied == [float(man["sandwich_tolerance"])]


def test_mollify_sweep_runs(tmp_path):
    r = run_cli("mollify", "--fixture", "quad", "--res", "65", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,norm_p,pass-flag"
    assert len(lines) == 5  # default four-step schedule


def test_mollify_reads_the_bounds_of_its_input_run(obstacle_run_65, tmp_path):
    """With no flags, mollify checks the run's operator against the bounds
    its manifest recorded."""
    r = run_cli("mollify", "--input", str(obstacle_run_65 / "solution.txt"),
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    run = read_manifest(obstacle_run_65 / "run_manifest.txt")
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert [man[k] for k in ("op", "lam_lo", "lam_hi")] == \
        [run[k] for k in ("op", "lam_lo", "lam_hi")]


def test_mollify_checks_a_linear_operator_with_its_own_matrix(tmp_path):
    """<A, D2 u_eps> is checked against the bounds of <A, D2 u>: for the
    quadratic fixture both read 3, while its Laplacian reads 2."""
    r = run_cli("mollify", "--fixture", "quad", "--res", "257", "--op", "linear:2,0.5,1",
                "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert man["op"] == "linear:2.0,0.5,1.0"
    assert float(man["lam_lo"]) == pytest.approx(3.0) and float(man["lam_hi"]) == pytest.approx(3.0)


@pytest.mark.parametrize("args", [
    ("--fixture", "quad", "--op", "pucci+:1,10"),
    ("--input", "{pucci}", "--eps", "0.2"),  # the operator named by the run's manifest
])
def test_mollify_refuses_a_nonlinear_operator(args, pucci_run, tmp_path):
    """Mollification commutes with a constant-coefficient linear stencil only:
    a nonlinear subject is refused by name, and nothing is written."""
    argv = [a.format(pucci=pucci_run / "solution.txt") for a in args]
    r = run_cli("mollify", *argv, "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "not pucci+:1.0," in r.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_mollify_refuses_non_finite_bounds(lam, tmp_path):
    r = run_cli("mollify", "--fixture", "quad", "--res", "65", "--lambda", lam,
                "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "bounds must be finite" in r.stderr


def test_limit_families_run(tmp_path):
    r = run_cli("limit", "--res", "33", "--levels", "3", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "limit_report.csv").read_text().splitlines()
    assert rows[0].startswith("family,k,")
    families = {line.split(",")[0] for line in rows[1:]}
    assert families == {"constant", "ripple", "solver-tail"}


def test_manifest_identifies_the_run(tmp_path):
    r = run_cli("solve", "--fixture", "quad", "--res", "33", "--out", str(tmp_path))
    assert r.returncode == 0
    man = read_manifest(tmp_path / "run_manifest.txt")
    assert man["command"].startswith("solve")
    assert "version" in man


def test_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        r = run_cli("props", "--seed", "3", "--op", "pucci+:1,2", "--out", str(out))
        assert r.returncode == 0
        outs.append((out / "props.csv").read_bytes())
    assert outs[0] == outs[1]

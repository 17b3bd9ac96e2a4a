"""The three workloads: set-up, the fixed list of operations, and the check
each operation's output must pass.

Operations call ellipticlab only through the package's public functions and
``ellipticlab.cli.main``, looked up at call time so that the tracer's
wrappers are seen.  They pass problem data only (operator, f, boundary
data, initial guess, fixture, resolution, sample count); no solver or
stencil tuning knob is ever passed.

Every check compares against a computation made in ``reference`` or against
a property the method must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# A manufactured solve counts as solved when it is this close to the exact
# discrete solution; the Jacobi tolerance reaches about 5e-10 today.
SOLVE_ACCURACY = 1e-8


class CheckFailed(Exception):
    """An operation's output broke its check."""


def require(condition, message, *values):
    if not condition:
        raise CheckFailed(message % values if values else message)


@dataclass
class Operation:
    metric: str  # name of the operation's time metric
    run: Callable[[], object]
    check: Callable[[object], None]


def _cli(el, argv) -> int:
    """``ellipticlab.cli.main`` with its summary lines kept off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return el.cli.main([str(a) for a in argv])


def _memo(cache, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


class Workload:
    """Base: ``setup`` builds the inputs, ``control`` runs once before the
    loop and returns failure messages, ``operations`` is one pass."""

    sizes = {}
    smoke_sizes = {}

    def __init__(self, el, seed: int, workdir: Path, smoke: bool):
        self.el = el
        self.seed = seed
        self.workdir = workdir
        self.size = self.smoke_sizes if smoke else self.sizes
        self.refs = {}  # independent reference results, computed on first use

    def setup(self):
        raise NotImplementedError

    def control(self) -> list:
        return []

    def operations(self) -> list:
        raise NotImplementedError


# -- manufacture ---------------------------------------------------------------


class Manufacture(Workload):
    """Cold-start Dirichlet solves of linear and nonlinear operators and the
    obstacle command, which writes the solution file."""

    sizes = {"trace": 65, "nonlinear": 33, "obstacle": 129}
    smoke_sizes = {"trace": 17, "nonlinear": 17, "obstacle": 33}
    NONLINEAR = ("pucci", "maxlin")

    def setup(self):
        el = self.el
        n = self.size["trace"]
        grid = el.square_grid(n)
        self.trace = (el.trace_operator(), grid, el.GridFunction(grid, np.zeros(grid.node_count)))
        self.nonlinear = {}
        for key, op in (("pucci", el.parse_operator("pucci+:1,2")),
                        ("maxlin", el.max_of_linear([np.diag([1.0, 2.0]),
                                                     np.diag([2.0, 1.0])]))):
            target = el.build_fixture("quad", self.size["nonlinear"])
            f = el.GridFunction(target.grid, np.nan_to_num(
                el.eval_discrete(op, target).values, nan=0.0))
            zero = el.GridFunction(target.grid, np.zeros(target.grid.node_count))
            self.nonlinear[key] = (op, f, target, zero)
        self.obstacle_dir = self.workdir / "obstacle"

    def operations(self):
        ops = [Operation("solve_trace_s", self._solve_trace, self._check_trace)]
        for key in self.NONLINEAR:
            ops.append(Operation("solve_%s_s" % key,
                                 lambda key=key: self._solve_nonlinear(key),
                                 lambda res, key=key: self._check_nonlinear(key, res)))
        ops.append(Operation("obstacle_s", self._obstacle, self._check_obstacle))
        return ops

    def _solve_trace(self):
        op, grid, zero = self.trace
        return self.el.solve_dirichlet(op, 1.0, 0.0, grid=grid, initial=zero)

    def _check_trace(self, res):
        n = self.size["trace"]
        exact = _memo(self.refs, "poisson", lambda: ref.poisson_dirichlet(n, 1.0, 1.0))
        u = res.u.values.reshape(n, n)
        h = 2.0 / (n - 1)
        r = float(np.max(np.abs(ref.laplacian_5pt(u, h) - 1.0)))
        err = float(np.max(np.abs(u - exact)))
        # comparison with the barrier (1 - x^2)/2, whose 5-point Laplacian is -1
        require(err <= 0.5 * r * (1 + 1e-6) + 1e-11,
                "solve_trace: error %.3g exceeds the residual bound %.3g", err, 0.5 * r)
        require(err <= SOLVE_ACCURACY, "solve_trace: error %.3g", err)

    def _solve_nonlinear(self, key):
        op, f, target, zero = self.nonlinear[key]
        return self.el.solve_dirichlet(op, f, target, initial=zero)

    def _check_nonlinear(self, key, res):
        _, _, target, _ = self.nonlinear[key]
        err = float(np.max(np.abs(res.u.values - target.values)))
        # Both schemes are monotone, sub-additive and lower the value by at
        # least lam1 = 1 under the barrier w = (1 - x^2)/2, so the target is
        # the unique discrete solution and |u - target| <= residual * sup w / lam1.
        bound = 0.5 * res.residual * (1 + 1e-6) + 1e-11
        require(err <= bound, "solve_%s: error %.3g exceeds the comparison bound %.3g",
                key, err, bound)
        require(err <= SOLVE_ACCURACY, "solve_%s: error %.3g", key, err)

    def _obstacle(self):
        return _cli(self.el, ["obstacle", "--fixture", "disc",
                              "--res", self.size["obstacle"], "--out", self.obstacle_dir])

    def _check_obstacle(self, code):
        require(code == 0, "obstacle: exit code %s", code)
        check_obstacle_files(self.obstacle_dir, self.size["obstacle"])


def check_obstacle_files(out: Path, n: int):
    """The disc obstacle solution on disk: u >= psi, a contact set of at
    least 5%, an independent 5-point Laplacian inside the manifest's bounds,
    and Laplacian(u) - u = 0 off the contact set."""
    u, lower, upper = ref.read_grid_file(out / "solution.txt")
    manifest = ref.read_key_values(out / "run_manifest.txt")
    require(u.shape == (n, n) and lower == (-0.75, -0.75) and upper == (0.75, 0.75),
            "obstacle: unexpected grid %s on %s..%s", u.shape, lower, upper)
    x, y = ref.square_lattice(n, 0.75)
    psi = 0.25 - (x * x + y * y)
    require(float(np.min(u - psi)) >= -1e-14, "obstacle: u dips below the obstacle")
    ring = np.ones_like(u, dtype=bool)
    ring[1:-1, 1:-1] = False
    require(np.all(u[ring] == 0.0), "obstacle: boundary values are not zero")
    gap = (u - psi)[1:-1, 1:-1]
    contact = gap <= 1e-12
    frac = float(np.mean(contact))
    require(frac >= 0.05, "obstacle: contact fraction %.3g below 5%%", frac)
    lap = ref.laplacian_5pt(u, 1.5 / (n - 1))
    lam_lo, lam_hi = float(manifest["lam_lo"]), float(manifest["lam_hi"])
    require(lam_lo <= float(lap.min()) and float(lap.max()) <= lam_hi,
            "obstacle: Laplacian range [%.6g, %.6g] outside the manifest's [%.6g, %.6g]",
            float(lap.min()), float(lap.max()), lam_lo, lam_hi)
    tol = float(manifest["residual_tolerance"]) + 1e-10  # plus roundoff
    eq = float(np.max(np.abs(lap - u[1:-1, 1:-1])[~contact]))
    require(eq <= tol, "obstacle: |Laplacian(u) - u| = %.3g off contact (tol %.3g)", eq, tol)


# -- certify ---------------------------------------------------------------------


class Certify(Workload):
    """Viscosity certification of a stored solution, operator property
    checks and the pointwise certificate on a large grid; no solve in the loop."""

    sizes = {"stored": 65, "samples": 10_000, "pointwise": 513}
    smoke_sizes = {"stored": 33, "samples": 200, "pointwise": 33}

    def setup(self):
        el = self.el
        self.stored = self.workdir / "stored"
        code = _cli(el, ["obstacle", "--fixture", "disc", "--res", self.size["stored"],
                         "--out", self.stored])
        if code != 0:
            raise RuntimeError("set-up obstacle run exited %d" % code)
        self.operators = [
            ("trace", el.trace_operator()),
            ("linear:2,0.5,1", el.linear_operator([[2.0, 0.5], [0.5, 1.0]])),
            ("pucci+:1,2", el.pucci_max(1.0, 2.0)),
            ("pucci-:1,2", el.pucci_min(1.0, 2.0)),
            ("max_of_linear", el.max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])])),
        ]
        self.harmonic = el.build_fixture("harmonic", self.size["pointwise"])
        # F(diag(2, -2)) in closed form
        self.pointwise = [("trace", el.parse_operator("trace"), 0.0),
                          ("pucci+:1,2", el.parse_operator("pucci+:1,2"), 2.0)]

    def control(self):
        """--lambda 1 must fail: the stored solution's Laplacian reaches -4."""
        out = self.workdir / "control"
        code = _cli(self.el, ["visc", "--input", self.stored / "solution.txt",
                              "--lambda", 1, "--out", out])
        u, _, _ = ref.read_grid_file(self.stored / "solution.txt")
        n = self.size["stored"]
        lap_min = float(ref.laplacian_5pt(u, 1.5 / (n - 1)).min())
        tol = float(ref.read_key_values(out / "run_manifest.txt")["tolerance"])
        failures = []
        if lap_min >= -1.0 - tol:
            failures.append("control: Laplacian minimum %.3g does not break -1" % lap_min)
        if code != 1:
            failures.append("control: visc --lambda 1 exited %s, expected 1" % code)
        return failures

    def operations(self):
        ops = [Operation("visc_s", self._visc, self._check_visc)]
        for name, op in self.operators:
            ops.append(Operation("props_s[%s]" % name,
                                 lambda op=op: self._props(op),
                                 lambda res, name=name: self._check_props(name, res)))
        for name, op, value in self.pointwise:
            ops.append(Operation("pointwise_s[%s]" % name,
                                 lambda op=op, value=value: self.el.check_pointwise(
                                     self.harmonic, op, self.el.Bounds(value, value)),
                                 lambda rep, name=name: self._check_pointwise(name, rep)))
        return ops

    def _visc(self):
        return _cli(self.el, ["visc", "--input", self.stored / "solution.txt",
                              "--out", self.workdir / "visc"])

    def _check_visc(self, code):
        require(code == 0, "visc: exit code %s", code)
        n = self.size["stored"]
        rows, footer = ref.csv_rows_and_footer(self.workdir / "visc" / "visc_pointwise.csv")
        require(footer.get("passed") == "1", "visc: pointwise verdict is not a pass")
        require(len(rows) == (n - 2) ** 2,
                "visc: pointwise verdict covers %d of %d interior nodes", len(rows), (n - 2) ** 2)
        _, footer = ref.csv_rows_and_footer(self.workdir / "visc" / "visc_touching.csv")
        require(footer.get("passed") == "1", "visc: touching verdict is not a pass")

    def _props(self, op):
        el, count = self.el, self.size["samples"]
        return (el.check_uniform_ellipticity(op, sample_count=count, seed=self.seed),
                el.check_homogeneity(op, sample_count=count, seed=self.seed))

    def _check_props(self, name, reports):
        for rep in reports:
            require(rep.passed and rep.worst_normalized <= 1e-10,
                    "props[%s]: %s worst normalized violation %.3g",
                    name, rep.name, rep.worst_normalized)
            require(rep.samples == self.size["samples"] and rep.seed == self.seed,
                    "props[%s]: %s ran %d samples with seed %d", name, rep.name,
                    rep.samples, rep.seed)

    def _check_pointwise(self, name, rep):
        worst = max(rep.worst_upper, rep.worst_lower)
        require(worst <= 1e-9, "pointwise[%s]: |F_h - F(diag(2,-2))| = %.3g", name, worst)
        n = self.size["pointwise"]
        deep = np.zeros((n, n), dtype=bool)
        deep[8:-8, 8:-8] = True  # every node 8 layers in must carry a verdict
        require(np.isin(np.flatnonzero(deep), rep.node_indices).all(),
                "pointwise[%s]: nodes deep inside were not checked", name)


# -- regularity -------------------------------------------------------------------


class Regularity(Workload):
    """Decay profiles, blow-up rescaling and mollification sweeps on sampled
    fixtures; no solve and no touching."""

    sizes = {"decay": 257, "rescale": 1025, "sweep": 129}
    smoke_sizes = {"decay": 129, "rescale": 129, "sweep": 65}
    PROFILES = (("radial-holder:0.25", 0.25, 0.05), ("radial-holder:0.5", 0.5, 0.05),
                ("radial-holder:0.75", 0.75, 0.05), ("quad", 1.0, 0.02))
    SWEEPS = (("quad", 0.0, 4.0), ("kink", -1.0, 1.0))
    LEVELS = 2

    def setup(self):
        el = self.el
        self.decay_cfg = el.DecayConfig(lam=0.25, beta=0.5, levels=self.LEVELS)
        self.profiles = {name: el.build_fixture(name, self.size["decay"])
                         for name, _, _ in self.PROFILES}
        self.harmonic = el.build_fixture("harmonic", self.size["rescale"])
        self.rescale_cfg = el.DecayConfig(lam=0.25, beta=0.5)
        self.sweep_fields = {name: el.build_fixture(name, self.size["sweep"])
                             for name, _, _ in self.SWEEPS}
        self.identity = el.SymMatrix.identity(2)
        # the workload seed picks which ladder level each profile's width is
        # cross-checked at
        rng = np.random.default_rng(self.seed)
        self.lp_level = {name: int(rng.integers(0, self.LEVELS + 1))
                         for name, _, _ in self.PROFILES}

    def operations(self):
        ops = []
        for name, target, tol in self.PROFILES:
            ops.append(Operation("decay_s[%s]" % name,
                                 lambda name=name: self._decay(name),
                                 lambda res, name=name, target=target, tol=tol:
                                 self._check_decay(name, target, tol, res)))
        ops.append(Operation("rescale_s", self._rescale, self._check_rescale))
        for name, f1, f2 in self.SWEEPS:
            ops.append(Operation("sweep_s[%s]" % name,
                                 lambda name=name, f1=f1, f2=f2: self._sweep(name, f1, f2),
                                 lambda rows, name=name: self._check_sweep(name, rows)))
        return ops

    def _decay(self, name):
        el = self.el
        profile = el.decay_profile(self.profiles[name], (0.0, 0.0), self.decay_cfg, 1.0)
        return profile, el.verify_decay_chain(profile)

    def _check_decay(self, name, target, tol, result):
        profile, chain = result
        require(abs(profile.beta_hat - target) <= tol,
                "decay[%s]: beta_hat %.4f, expected %.4g +- %.2g",
                name, profile.beta_hat, target, tol)
        require(len(chain) == self.LEVELS + 1 and all(row[3] for row in chain),
                "decay[%s]: the decay chain breaks", name)
        k = self.lp_level[name]
        r = profile.radii[k]
        require(r == 0.25 ** k, "decay[%s]: radius %r at level %d", name, r, k)
        u = self.profiles[name]
        n = self.size["decay"]

        def width():
            x, y = ref.square_lattice(n)
            inside = (x * x + y * y <= r * r * (1 + 1e-12)).ravel()
            pts = np.stack([x.ravel()[inside], y.ravel()[inside]], axis=1)
            return ref.minimax_width(pts, u.values[inside])

        lp = _memo(self.refs, (name, k), width)
        require(abs(profile.psi[k] - lp) <= 1e-9 * abs(lp),
                "decay[%s]: width %.17g at level %d, linprog %.17g",
                name, profile.psi[k], k, lp)

    def _rescale(self):
        el = self.el
        n = self.size["rescale"]
        w, kappa = el.normalize(self.harmonic, radius=1.0, lam=0.0, eps=0.5, unit_nodes=n)
        return kappa, el.rescale_sequence(w, self.rescale_cfg, levels=8)

    def _check_rescale(self, result):
        kappa, seq = result
        # kappa = lam/eps + radius^2 + osc_{B(0, radius)} u + 1 with lam = 0,
        # radius = 1; an odd lattice on [-1, 1]^2 holds (+-1, 0) and (0, +-1),
        # where x1^2 - x2^2 reaches 1 and -1, so the oscillation is 2
        expect = 0.0 / 0.5 + 1.0 + 2.0 + 1.0
        require(abs(kappa - expect) <= 1e-12 * expect, "rescale: kappa %.17g, formula %.17g",
                kappa, expect)
        require(len(seq.states) >= 3, "rescale: only %d levels resolved", len(seq.states))
        for state in seq.states:
            m = state.u.grid.shape[0]
            x, y = ref.square_lattice(m)
            zoom = state.u.values.reshape(m, m)[x * x + y * y <= 1.0 + 1e-12]
            osc = float(zoom.max() - zoom.min())
            require(state.osc < 1.0 and abs(state.osc - osc) <= 1e-12,
                    "rescale: level %d oscillation %.6g (recomputed %.6g)",
                    state.level, state.osc, osc)

    def _sweep_schedule(self):
        h = 2.0 / (self.size["sweep"] - 1)
        schedule = [24 * h, 16 * h, 12 * h, 8 * h]
        return schedule, 0.5 * (1.0 - schedule[0])

    def _sweep(self, name, f1, f2):
        schedule, r = self._sweep_schedule()
        return self.el.stability_sweep(self.sweep_fields[name], self.identity, f1, f2,
                                       schedule, 4.0, r)

    def _check_sweep(self, name, rows):
        schedule, r = self._sweep_schedule()
        require([row.eps for row in rows] == schedule, "sweep[%s]: eps column differs", name)
        norms = [row.norm_p for row in rows]
        if name == "quad":
            require(all(row.passed for row in rows), "sweep[quad]: a sandwich fails")
            require(max(norms) / min(norms) <= 2.0, "sweep[quad]: norms spread %.3g",
                    max(norms) / min(norms))
            # u_eps = u + const has Hessian I: |D2|_F = sqrt 2 on every node of the ball
            n = self.size["sweep"]
            x, y = ref.square_lattice(n)
            nodes = int(np.count_nonzero(x * x + y * y <= r * r * (1 + 1e-12)))
            h = 2.0 / (n - 1)
            expect = math.sqrt(2.0) * (nodes * h * h) ** 0.25
            worst = max(abs(v - expect) for v in norms)
            require(worst <= 1e-9 * expect, "sweep[quad]: L4 norm off by %.3g", worst)
        else:
            growth = (norms[-1] / norms[0]) ** 4
            require(growth >= 4.0, "sweep[kink]: L4 mass grows only %.3gx", growth)
            require(not any(row.passed for row in rows), "sweep[kink]: a sandwich passes")


WORKLOADS = {"manufacture": Manufacture, "certify": Certify, "regularity": Regularity}

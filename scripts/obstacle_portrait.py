"""Manufacture a genuinely two-sided inequality via the disc obstacle.

psi = 0.25 - |x|^2 pokes above zero boundary data, so the active-set
solve pins u to psi near the origin and solves Delta u = u g outside.
The realized field Delta u then jumps between the obstacle's -4 and the
reaction term's values: a function that satisfies

    -4 <= Delta u <= max(u g)

without solving any single equation everywhere.  The script solves, runs the
pointwise viscosity certification, and prints a coarse contact-set portrait.
"""

import argparse

import numpy as np

from ellipticlab import Bounds, check_pointwise, disc_problem, solve_obstacle, trace_operator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--res", type=int, default=65)
    args = ap.parse_args()

    result = solve_obstacle(disc_problem(args.res))
    rep = check_pointwise(result.u, trace_operator(),
                          Bounds(result.lam_lo, result.lam_hi))
    print("resolution      : %d^2" % args.res)
    print("steps           : %d  (residual %.2e)" % (result.iterations, result.residual))
    print("steps per level : %s" % "  ".join("%d^2: %d" % level
                                             for level in result.level_steps))
    start, krylov = 0, []
    for n, steps in result.level_steps:
        rows = result.history[start:start + steps]
        krylov.append("%d^2: %d" % (n, sum(row[2] for row in rows)))
        start += steps
    print("Krylov per level: %s" % "  ".join(krylov))
    print("realized bounds : [%.6g, %.6g]" % (result.lam_lo, result.lam_hi))
    print("contact fraction: %.2f%%" % (100.0 * result.contact_fraction))
    print("certified       : %s  (worst margins %.2e / %.2e)"
          % (rep.passed, rep.worst_lower, rep.worst_upper))

    # 33x33 downsampled glyph of the contact set
    lat = result.u.grid.lattice(result.contact)
    step = max(1, args.res // 33)
    for row in lat[::step]:
        print("".join("#" if c else "." for c in row[::step]))

    # sanity: contact nodes sit exactly on the obstacle
    psi = disc_problem(args.res).psi
    pin = np.max(np.abs(result.u.values[result.contact] - psi.values[result.contact]))
    print("max |u - psi| on contact: %.1e" % pin)


if __name__ == "__main__":
    main()

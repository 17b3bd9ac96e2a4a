"""Does |D2 u_eps|_{L^p} stay bounded as the mollification width shrinks?

For solutions of bounded-right-hand-side problems it should (the discrete
shadow of interior W^{2,p} estimates); for a Lipschitz kink it must not --
|x1| mollified at scale eps has Hessian ~ 1/eps on a band of width eps, so
the L^4 norm grows like eps^(-3/4).  Both behaviours on one table.
"""

import argparse

from ellipticlab import SymMatrix, build_fixture, stability_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--res", type=int, default=129)
    ap.add_argument("--p", type=float, default=4.0)
    args = ap.parse_args()

    eye = SymMatrix.identity(2)
    cases = [
        ("quad", 0.0, 4.0, 0.25),
        ("radial-holder:0.5", -8.0, 8.0, 0.25),
        ("kink", -1.0, 1.0, 0.3),
    ]
    for name, lo, hi, r in cases:
        u = build_fixture(name, args.res)
        h = u.grid.h
        # the norm ball must fit in the domain shrunk by the widest kernel,
        # so at most the mollify command's radius 0.5 (1 - 24h)
        r = min(r, 0.5 * (1.0 - 24 * h))
        rows = stability_sweep(u, eye, lo, hi, [24 * h, 16 * h, 12 * h, 8 * h],
                               p=args.p, r=r)
        print("%s  (bounds [%g, %g], ball r=%g)" % (name, lo, hi, r))
        for row in rows:
            print("  eps=%6.4f  |D2 u_eps|_%g = %9.4f  sandwich=%s"
                  % (row.eps, args.p, row.norm_p, row.passed))
        growth = rows[-1].norm_p / rows[0].norm_p
        print("  24h -> 8h growth: %.3fx in norm, %.1fx in L^%g mass\n"
              % (growth, growth ** args.p, args.p))


if __name__ == "__main__":
    main()

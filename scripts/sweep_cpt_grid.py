"""Sweep the two CPT exponents and map the measured mixture defect.

For each (value_exponent, weight_exponent) pair on a coarse grid, measure
the mixture-linearity defect on three-prize lotteries and the sup gap to
the affine benchmark, then print one CSV-ish line per cell. The identity
row (both exponents 1) should come out at numerical zero; defects grow as
either exponent moves away from 1.

Usage: python scripts/sweep_cpt_grid.py [RESOLUTION]
"""

import sys

from nearrep.risk import (
    CumulativeProspect,
    SimplexSampler,
    build_affine_benchmark,
    measure_eps_rcl,
    mixture_utility_batch,
    verify_thm1,
)


def sweep(resolution: int = 7) -> None:
    prizes = (4000.0, 3000.0, 0.0)
    sampler = SimplexSampler(resolution=resolution, seed=0, n_random_triples=50)
    print("value_exponent,weight_exponent,eps_rcl,sup_gap,allowed")
    for a in (0.4, 0.54, 0.7, 0.88, 1.0):
        for b in (0.5, 0.61, 0.74, 0.9, 1.0):
            model = CumulativeProspect(a, b, prizes)
            u = mixture_utility_batch(model, sampler.grid(len(prizes)))
            rcl = measure_eps_rcl(model, u, sampler)
            benchmark = build_affine_benchmark(model)
            rep = verify_thm1(u, benchmark, rcl.value, sampler)
            print(f"{a},{b},{rcl.value:.6g},{rep.achieved_distance:.6g},"
                  f"{rep.bound:.6g}")


if __name__ == "__main__":
    res = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    sweep(res)

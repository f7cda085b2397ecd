"""The benchmark's workloads: rotorkit CLI command sequences.

Each sequence runs one command per fresh process, as a user would.  Every
command gets ``--seed`` from the workload seed N: as N itself, or, for the
iterative spectrum, as 3N, 3N+1 and 3N+2 (see below).  All four
subcommands accept a seed; ``classical`` and ``pathintegral`` only echo
it.  Why each workload is here is written up in README.md.
"""

# The iterative spectrum's seed picks the Lanczos start vector, and the
# iteration count depends on it (at res 32, 18 of seeds 0-19 take 421-444
# iterations, the other two 386 and 388), so one start vector per
# sequence makes the workload's time a function of the seed.  Each
# sequence therefore runs LANCZOS_STARTS start vectors.
LANCZOS_STARTS = 3
_LANCZOS = ["spectrum", "--res", "32", "--method", "iterative"]

# workload -> argv lists; commands() adds each one's --seed
WORKLOADS = {
    # D=3 dense route with Richardson extrapolation; the CLI default
    # 48,64,96 takes the same path but about 54 s and 2.7 GB per run
    "spectrum-dense": [
        ["spectrum", "--res", "32,48,64"],
    ],
    # Lanczos (matrix-vector bound) and many small sector blocks
    "spectrum-krylov": [_LANCZOS] * LANCZOS_STARTS + [
        ["spectrum", "--dim", "4", "--res", "64", "--method", "sector"],
    ],
    # symbolic expression building and evaluation, integrator steps
    "identities": [
        ["check", "chart-equivalence"],
        ["check", "angular-momentum"],
        ["check", "hermiticity"],
        ["check", "dirac-brackets"],
        ["classical"],
    ],
    # 2048^2 kernel build and apply, with the process-global kernel cache
    "slicing": [
        ["pathintegral"],
        ["pathintegral", "--prescription", "corrected"],
    ],
}


def commands(workload, seed):
    """The workload's argv lists for seed N, each ending in ``--seed``."""
    seeds = [seed] * len(WORKLOADS[workload])
    if workload == "spectrum-krylov":
        seeds[:LANCZOS_STARTS] = [LANCZOS_STARTS * seed + i
                                  for i in range(LANCZOS_STARTS)]
    return [argv + ["--seed", str(s)]
            for argv, s in zip(WORKLOADS[workload], seeds)]

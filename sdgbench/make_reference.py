"""Write reference.npz: the solved grids of every pde_ladder rung.

The stored values are the bar the pde_ladder checks hold later solvers
to (sup-norm difference at most 1e-10).  Run from the repository root,
only at a commit whose solver is the accepted reference:

    python3 sdgbench/make_reference.py
"""

import sys

import numpy as np

from workloads import REFERENCE, ROOT, PdeLadder

sys.path.insert(0, str(ROOT / "src"))
import sdglab  # noqa: E402


def main() -> None:
    arrays = {}
    for tiny in (False, True):
        ladder = PdeLadder(tiny=tiny)
        ladder.setup(sdglab, load_reference=False)
        solved, rate = ladder.solve_all()
        for label, (_, solver) in solved.items():
            arrays[label] = solver.value_.values
        arrays[f"holder_gaps_h{ladder.p['holder_h']}"] = np.asarray(rate.sup_errors)
    np.savez_compressed(REFERENCE, **arrays)
    for k, v in sorted(arrays.items()):
        print(f"{k}: {v.size} values")


if __name__ == "__main__":
    main()

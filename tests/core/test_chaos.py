"""Chaos sweep: fault seeds × crash plans on the bsp engine.

A supervised run recovers every crash bit-identically; an unsupervised one
surfaces the crash as a typed failure, never as a truncated edge list.
"""

import numpy as np
import pytest

from repro.core.generator import generate
from repro.mpsim.errors import MPSimError
from repro.mpsim.faults import FaultPlan

pytestmark = pytest.mark.usefixtures("no_leftovers")

SEEDS = [0, 1, 2]
#: crashes in each plan kind's chaos plan
CRASHES = {"crash": 1, "crashes": 2}


class TestBSPSweep:
    @pytest.mark.parametrize("fault_seed", SEEDS)
    @pytest.mark.parametrize("kind", ["crash", "crashes"])
    def test_supervised_run_matches_fault_free(self, tmp_path, fault_seed, kind):
        n, ranks, seed = 2000, 4, 11
        baseline = generate(n, x=1, ranks=ranks, seed=seed)
        chaotic = generate(
            n,
            x=1,
            ranks=ranks,
            seed=seed,
            checkpoint_dir=str(tmp_path),
            fault_plan=FaultPlan.chaos(fault_seed, ranks, crashes=CRASHES[kind]),
            max_retries=6,
        )
        assert np.array_equal(
            chaotic.edges.canonical(), baseline.edges.canonical()
        )
        assert chaotic.validate().ok
        assert len(chaotic.recoveries) == CRASHES[kind]
        assert chaotic.fault_plan.counts() == {"crash": CRASHES[kind]}

    def test_unsupervised_crash_propagates(self):
        """Without a supervisor, the fault is the caller's problem."""
        with pytest.raises(MPSimError):
            generate(
                2000,
                x=1,
                ranks=4,
                seed=11,
                fault_plan=FaultPlan(0).crash(1, at_superstep=3),
            )

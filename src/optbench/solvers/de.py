"""Differential evolution (rand/1/bin) with optional Latin-hypercube init."""

from __future__ import annotations

import numpy as np

from ..core import Candidate, RunContext, ScalarSolver
from ..errors import ConfigurationError


class DifferentialEvolution(ScalarSolver):
    """rand/1/bin DE over the standardized domain.

    The first ``NP`` asks are quasi-uniform initial samples (Latin hypercube
    when ``lhs_init``); afterwards each ask is a binomial crossover of the
    next population slot with a mutant ``a + F (b - c)`` built from three
    distinct other slots.  A slot is replaced when the trial's loss does not
    exceed the slot's, so slot losses never increase in noise-free mode.

    Each generation (``NP`` consecutive asks) draws one *plan* with one call
    per array: three uniforms per slot, mapped to three distinct slots that
    are evaluated and differ from it, a crossover mask ``random < CR`` per
    slot, and one forced mutant coordinate per slot.  An ask then does only
    the arithmetic.

    A tell replaces only its own slot's row, so a trial is fixed once its
    plan is drawn and its slot and three donors have no tell to come.
    ``free_asks`` counts the run of such slots from the cursor to the
    generation's end, and ``_ask_many`` builds a run of trials in one pass.
    """

    def __init__(
        self,
        context: RunContext,
        seed: int = 0,
        init_point=None,
        population_size: int | None = None,
        f_weight: float = 0.8,
        crossover: float = 0.5,
        lhs_init: bool = False,
    ):
        super().__init__(context, seed=seed, init_point=init_point)
        d = self._view.dim
        np_size = max(30, d) if population_size is None else population_size
        if np_size < 4:
            raise ConfigurationError("DE needs a population of at least 4")
        if not (0.0 <= f_weight <= 2.0):  # 0 is degenerate but well-defined
            raise ConfigurationError("differential weight F must lie in [0, 2]")
        if not (0.0 <= crossover <= 1.0):
            raise ConfigurationError("crossover rate CR must lie in [0, 1]")
        self.np_size = np_size
        self.generation_size = np_size
        self.f_weight = f_weight
        self.crossover = crossover
        self.positions = np.zeros((np_size, d))
        self.losses = np.full(np_size, np.inf)
        self._initialized = np.zeros(np_size, dtype=bool)
        self._num_ready = 0
        self._plan_generation = -1
        self._donors: list[list[int]] = []  # plan: slot -> [a, b, c]
        self._donor_rows = np.empty((0, 3), dtype=np.intp)  # the same as one array
        self._masks = np.empty((0, 0), dtype=bool)  # plan: slot -> crossover mask
        self._init_samples = self._draw_init(lhs_init)
        if self.init_point is not None:
            self._init_samples[0] = self._view.encode(self.init_point)
        self._cursor = 0
        self._busy = [0] * np_size  # slot -> its asks with no tell yet

    def _draw_init(self, lhs_init: bool) -> np.ndarray:
        lo, hi = self._view.init_box()
        d = self._view.dim
        if lhs_init:
            u = np.empty((self.np_size, d))
            for j in range(d):
                strata = (self.rng.permutation(self.np_size) + self.rng.random(self.np_size))
                u[:, j] = strata / self.np_size
        else:
            u = self.rng.random((self.np_size, d))
        return lo + u * (hi - lo)

    def _ask(self) -> Candidate:
        generation, slot = divmod(self._cursor, self.np_size)
        self._cursor += 1
        if not self._initialized[slot]:
            z = self._init_samples[slot].copy()
        else:
            z = self._trial(generation, slot)
        self._busy[slot] += 1
        return self._new_candidate(self._view.decode(z), payload=(slot, z))

    def free_asks(self) -> int:
        # an initial sample is fixed while its slot has no tell to come; the
        # next plan reads ``_initialized``, so a run ends with the generation
        generation, start = divmod(self._cursor, self.np_size)
        busy, donors = self._busy, self._donors
        drawn = self._plan_generation == generation
        stop = start  # the slots [start, stop) are free, and busy once asked
        while stop < self.np_size and not busy[stop]:
            if self._initialized[stop]:
                if not drawn:
                    break
                a, b, c = donors[stop]
                if busy[a] or busy[b] or busy[c] or start <= a < stop or start <= b < stop or start <= c < stop:
                    break
            stop += 1
        return max(1, stop - start)

    def _ask_many(self, n: int) -> list[Candidate]:
        generation, start = divmod(self._cursor, self.np_size)
        stop = start + n
        if stop > self.np_size or self._plan_generation != generation or not (
            self._num_ready == self.np_size or self._initialized[start:stop].all()
        ):
            return super()._ask_many(n)
        # the trials of n asks, with no tell between them: row by row the
        # arithmetic of ``_trial``
        self._cursor += n
        for slot in range(start, stop):
            self._busy[slot] += 1
        p = self.positions
        donors = p[self._donor_rows[start:stop]]  # (n, 3, d): rows a, b, c
        mutants = donors[:, 0] + self.f_weight * (donors[:, 1] - donors[:, 2])
        zs = np.where(self._masks[start:stop], mutants, p[start:stop])
        return self._book(self._view.decode(zs), list(zip(range(start, stop), zs)))

    def _trial(self, generation: int, slot: int) -> np.ndarray:
        if self._num_ready < 4:
            # fewer than 3 other evaluated slots: fall back to a fresh sample
            lo, hi = self._view.init_box()
            return lo + self.rng.random(self._view.dim) * (hi - lo)
        if generation != self._plan_generation:
            self._draw_plan()
            self._plan_generation = generation
        a, b, c = self._donors[slot]
        p = self.positions
        return np.where(self._masks[slot], p[a] + self.f_weight * (p[b] - p[c]), p[slot])

    def _draw_plan(self) -> None:
        """Donors and crossover masks of every slot for one generation.

        Slot s picks three distinct indices into its pool, the evaluated
        slots other than s, by the usual shift: ``k1`` skips ``k0``, ``k2``
        skips both.  Slots evaluated later in the generation keep drawing
        from the pool of the plan, which stays evaluated.
        """
        n, d = self.np_size, self._view.dim
        ready = np.flatnonzero(self._initialized)
        u = self.rng.random((n, 3))
        masks = self.rng.random((n, d)) < self.crossover
        masks[np.arange(n), self.rng.integers(d, size=n)] = True  # a coordinate from the mutant
        # position of each slot among the ready ones; len(ready) for the others
        position = np.where(self._initialized, np.cumsum(self._initialized) - 1, len(ready))
        pool = len(ready) - self._initialized
        k = (u * (pool[:, None] - np.arange(3))).astype(np.intp)
        k[:, 1] += k[:, 1] >= k[:, 0]
        low, high = np.minimum(k[:, 0], k[:, 1]), np.maximum(k[:, 0], k[:, 1])
        k[:, 2] += k[:, 2] >= low
        k[:, 2] += k[:, 2] >= high
        k += k >= position[:, None]
        self._donor_rows = ready[k]
        self._donors = self._donor_rows.tolist()
        self._masks = masks

    def _tell(self, candidate: Candidate, loss: float) -> None:
        entry, candidate.payload = candidate.payload, None
        if entry is None:
            return  # re-tell of an old candidate: population already settled
        slot, z = entry
        self._busy[slot] -= 1
        if loss <= self.losses[slot]:
            self.positions[slot] = z
            self.losses[slot] = loss
        if not self._initialized[slot]:
            self._initialized[slot] = True
            self._num_ready += 1

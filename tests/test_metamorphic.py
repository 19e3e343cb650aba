"""Metamorphic relations of the exact DRM optimum.

Each relation changes a small random exact instance in a way whose effect
on the optimal value is known, solves both instances with ``solve_drm`` in
exact mode, and compares the values exactly:

* permuting the types leaves the value unchanged;
* adding c(t) to the designer's value of every outcome for type t adds
  sum_t mass(t) c(t);
* splitting a type into two half-mass copies, with the same natural score,
  costs and payoffs, leaves the value unchanged.
"""

import random

from scoremech.finite import solve_drm
from scoremech.model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteTypeSpace,
    Instance,
)

from conftest import random_instance, random_rational

DRAWS = 60


def _draws(seed=7):
    """(rng, instance) pairs: 1-4 types, 2-3 scores, exact data."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        yield rng, random_instance(rng, max_types=4,
                                   n_scores=rng.choice((2, 3)))


def _value(inst: Instance):
    sol, _ = solve_drm(inst, "exact")
    return sol.value


def test_permuting_the_types_keeps_the_value():
    for rng, inst in _draws():
        types = list(inst.space.types)
        rng.shuffle(types)
        space = FiniteTypeSpace(types=types, scores=inst.space.scores,
                                outcomes=inst.space.outcomes,
                                prior=inst.space.prior)
        permuted = Instance(space, inst.costs, inst.agent, inst.designer)
        assert _value(permuted) == _value(inst)


def test_shifting_a_types_decision_values_adds_its_weighted_shift():
    for rng, inst in _draws():
        shift = {t: random_rational(rng) for t in inst.space.types}
        designer = DesignerPayoff(
            {(x, t): v + shift[t]
             for (x, t), v in inst.designer.decision_value.items()},
            inst.designer.loss_coefficient)
        shifted = Instance(inst.space, inst.costs, inst.agent, designer)
        assert _value(shifted) == _value(inst) + sum(
            inst.space.mass(t) * c for t, c in shift.items())


def test_splitting_a_type_into_half_mass_copies_keeps_the_value():
    for rng, inst in _draws():
        space = inst.space
        t = rng.choice(space.types)
        halves = (AgentType(t.label + "a", t.score),
                  AgentType(t.label + "b", t.score))
        types = [u for s in space.types for u in (halves if s == t else (s,))]

        def split(table):  # t's entries go to both halves
            return {(k, u): v for (k, s), v in table.items()
                    for u in (halves if s == t else (s,))}

        prior = {u: space.mass(t) / 2 if u in halves else space.mass(u)
                 for u in types}
        twin = Instance(
            FiniteTypeSpace(types=types, scores=space.scores,
                            outcomes=space.outcomes, prior=prior),
            CostModel.tabulated(split(inst.costs.table)),
            AgentPayoff(split(inst.agent.value)),
            DesignerPayoff(split(inst.designer.decision_value),
                           inst.designer.loss_coefficient))
        assert _value(twin) == _value(inst)

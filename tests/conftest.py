import random
from fractions import Fraction

import pytest

from scoremech.model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteTypeSpace,
    Instance,
    college_instance,
    college_menu_mechanism,
)


@pytest.fixture
def college2() -> Instance:
    return college_instance(internalize_costs=True)


@pytest.fixture
def college1() -> Instance:
    return college_instance(internalize_costs=False)


@pytest.fixture
def menu_mechanism():
    return college_menu_mechanism()


def random_rational(rng: random.Random, lo=-2, hi=4, denom=4) -> Fraction:
    return Fraction(rng.randint(lo * denom, hi * denom), denom)


def random_instance(rng: random.Random, max_types=3, n_scores=2) -> Instance:
    """Small random binary-outcome instance with exact rational data."""
    n_types = rng.randint(1, max_types)
    scores = tuple(f"a{i}" for i in range(n_scores))
    types = tuple(AgentType(f"t{i}", rng.choice(scores))
                  for i in range(n_types))
    raw = [Fraction(rng.randint(1, 5)) for _ in types]
    total = sum(raw)
    prior = {t: w / total for t, w in zip(types, raw)}
    space = FiniteTypeSpace(types=types, scores=scores,
                            outcomes=("no", "yes"), prior=prior)
    table = {}
    for t in types:
        for a in scores:
            if a == t.score:
                table[(a, t)] = Fraction(0)
            else:
                table[(a, t)] = Fraction(rng.randint(0, 6), 4)
    agent = AgentPayoff.unit_approval(space, approve="yes")
    dv = {}
    for t in types:
        dv[("yes", t)] = random_rational(rng)
        dv[("no", t)] = Fraction(0)
    lam = rng.choice([None, Fraction(0), Fraction(1, 6), Fraction(1, 4)])
    designer = DesignerPayoff(decision_value=dv, loss_coefficient=lam)
    return Instance(space=space, costs=CostModel.tabulated(table),
                    agent=agent, designer=designer)


def stub_highs_status(monkeypatch, name: str) -> None:
    """Make every float solve run HiGHS as usual, then report model status
    ``name`` (e.g. "kSolveError")."""
    from scipy.optimize._highspy import _core

    class Highs(_core._Highs):
        def getModelStatus(self):
            return getattr(_core.HighsModelStatus, name)

    monkeypatch.setattr(_core, "_Highs", Highs)

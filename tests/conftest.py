"""Shared builders for the test suite."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biloc import ChoiceModel, GeneratorParams, Instance, RhoTable, generate
from biloc.instance import Customer, Facility, Meta, PriceLadder, ServiceLevel


def tiny_params(seed: int, ratio: float = 1.5, **overrides) -> GeneratorParams:
    """Smallest interesting configuration: 2 facilities, 2 shippers x 2
    categories, 2 services, 2 prices, 4 customers."""
    base = dict(
        n_facilities=2, n_customers=4, n_shippers=2, categories_per_shipper=2,
        n_services=2, n_prices=2, ratio=ratio, seed=seed,
    )
    base.update(overrides)
    return GeneratorParams(**base)


def tiny_family_instance(seed: int) -> Instance:
    """Seeded member of the tiny cross-validation family: sizes within
    (|I|<=2, |N|<=2, |K|<=2, |M|<=2, |P|<=2, |J|<=4), with varying ratio,
    price sensitivity, noise scale, capacity-usage factors and minimum-demand
    gates."""
    rng = np.random.default_rng(seed)
    params = GeneratorParams(
        n_facilities=int(rng.integers(1, 3)),
        n_customers=int(rng.integers(2, 5)),
        n_shippers=int(rng.integers(1, 3)),
        categories_per_shipper=int(rng.integers(1, 3)),
        n_services=int(rng.integers(1, 3)),
        n_prices=2,
        ratio=float(rng.uniform(0.4, 3.0)),
        seed=seed,
        alpha=float(rng.choice([-0.3, -0.1, 0.0])),
        beta=float(rng.choice([0.5, 1.0, 4.0])),
    )
    inst = generate(params)
    if rng.random() < 0.5:
        service_levels = tuple(
            ServiceLevel(s.id, gamma=float(1.0 + rng.uniform(0.0, 0.3)),
                         cost_multiplier=s.cost_multiplier)
            for s in inst.service_levels
        )
        inst = replace(inst, service_levels=service_levels)
    if rng.random() < 0.5:
        ladders = tuple(
            PriceLadder(l.shipper, l.service, l.prices,
                        tuple(float(rng.choice([0.0, rng.uniform(5.0, 50.0)]))
                              for _ in l.prices))
            for l in inst.price_ladders
        )
        inst = replace(inst, price_ladders=ladders)
    return inst


def single_offer_instance(demand: float = 10.0, price: float = 2.0,
                          cost: float = 5.0, fixed_cost: float = 4.0,
                          capacity: float = 20.0, min_demand: float = 0.0,
                          gamma: float = 1.0) -> Instance:
    """One facility, one shipper, one category, one customer, one price."""
    model = ChoiceModel.uniform_spec(1, (1,), 1, alpha=-0.1, beta=1.0)
    return Instance(
        facilities=(Facility(0, capacity, fixed_cost),),
        customers=(Customer(0, shipper=0, category=0, demand=demand),),
        service_levels=(ServiceLevel(0, gamma=gamma, cost_multiplier=1.0),),
        categories_per_shipper=(1,),
        services_by_category=(((0,),),),
        price_ladders=(PriceLadder(0, 0, (price,), (min_demand,)),),
        costs=np.array([[[cost]]], dtype=float),
        choice_model=model,
        meta=Meta(seed=0),
    )


def strict_json(path):
    """The JSON in ``path``, read as strict readers such as ``jq`` read it:
    ``NaN``, ``Infinity`` and ``-Infinity`` are refused."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not strict JSON")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def external_milp_optimum(model) -> float | None:
    """Solve a parsed model with an external branch-and-cut (HiGHS through
    scipy); shares nothing with the in-repo search."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as scipy_milp

    n = len(model.variables)
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = -coef  # scipy minimizes
    rows = np.zeros((len(model.constraints), n))
    lb = np.empty(len(model.constraints))
    ub = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for idx, coef in con.coeffs.items():
            rows[r, idx] = coef
        if con.sense == "<=":
            lb[r], ub[r] = -np.inf, con.rhs
        elif con.sense == ">=":
            lb[r], ub[r] = con.rhs, np.inf
        else:
            lb[r] = ub[r] = con.rhs
    integrality = np.array(
        [1 if v.kind == "binary" else 0 for v in model.variables]
    )
    bounds = Bounds(np.array([v.lb for v in model.variables]),
                    np.array([v.ub for v in model.variables]))
    result = scipy_milp(c=c, constraints=LinearConstraint(rows, lb, ub),
                        integrality=integrality, bounds=bounds)
    if result.status != 0:
        return None
    return float(-result.fun)


@pytest.fixture
def tiny_instance() -> Instance:
    return generate(tiny_params(seed=0))


@pytest.fixture
def tiny_rho(tiny_instance) -> RhoTable:
    return RhoTable.closed_form(tiny_instance)

"""Problem data model, seeded random generator, validation and JSON I/O.

An :class:`Instance` bundles the capacitated-facility-location backbone
(facilities, customers, assignment costs) with the pricing side (service
levels, per-shipper price ladders with minimum-demand gates) and the demand
model.  Instances are immutable after construction and safe to share across
threads; all generation is a pure function of the seed.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .choice import ChoiceModel

#: Per-unit-distance, per-demand-unit haul rate used for base assignment costs.
HAUL_RATE = 10.0
#: Fixed cost scale: f_i is U[0.5, 1.5] * FIXED_COST_SCALE * sqrt(capacity).
FIXED_COST_SCALE = 10.0
#: Integer customer demands are drawn uniformly from this inclusive range.
DEMAND_RANGE = (5, 35)
#: Assignment cost multiplier of service level m is 1 + m * COST_MULTIPLIER_STEP.
COST_MULTIPLIER_STEP = 0.05

JSON_FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Raised when an instance file cannot be parsed or violates the schema."""


@dataclass(frozen=True)
class Facility:
    id: int
    capacity: float
    fixed_cost: float
    location: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class Customer:
    id: int
    shipper: int
    category: int
    demand: float
    location: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ServiceLevel:
    """A service tier: gamma scales capacity usage, the multiplier scales cost."""

    id: int
    gamma: float
    cost_multiplier: float


@dataclass(frozen=True)
class Shipper:
    """A shipper's entry in the instance file."""

    id: int
    n_categories: int
    services_by_category: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PriceLadder:
    """Price menu of one (shipper, service): strictly increasing prices, each
    optionally gated by a minimum total demand the shipper must commit."""

    shipper: int
    service: int
    prices: tuple[float, ...]
    min_demands: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.prices) != len(self.min_demands):
            raise ValueError(
                f"ladder (n={self.shipper}, m={self.service}): {len(self.prices)} "
                f"prices but {len(self.min_demands)} minimum demands"
            )


@dataclass(frozen=True)
class Meta:
    """Where an instance came from, and the version of its file layout."""

    seed: int
    generator: GeneratorParams | None = None
    format_version: int = JSON_FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.format_version != JSON_FORMAT_VERSION:
            raise ValueError(f"format_version must be {JSON_FORMAT_VERSION} "
                             f"(got {self.format_version})")


@dataclass(frozen=True)
class Instance:
    facilities: tuple[Facility, ...]
    customers: tuple[Customer, ...]
    service_levels: tuple[ServiceLevel, ...]
    categories_per_shipper: tuple[int, ...]
    services_by_category: tuple[tuple[tuple[int, ...], ...], ...]
    price_ladders: tuple[PriceLadder, ...]
    costs: np.ndarray  # (|I|, |J|, |M|), read-only
    choice_model: ChoiceModel
    meta: Meta = field(default_factory=lambda: Meta(seed=0))

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)

    # -- sizes ------------------------------------------------------------
    @property
    def n_facilities(self) -> int:
        return len(self.facilities)

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    @property
    def n_shippers(self) -> int:
        return len(self.categories_per_shipper)

    @property
    def n_services(self) -> int:
        return len(self.service_levels)

    # -- derived structure (cached; instances are immutable) ---------------
    @cached_property
    def _ladder_index(self) -> dict[tuple[int, int], PriceLadder]:
        return {(lad.shipper, lad.service): lad for lad in self.price_ladders}

    def ladder(self, n: int, m: int) -> PriceLadder:
        try:
            return self._ladder_index[(n, m)]
        except KeyError:
            raise KeyError(f"no price ladder for shipper {n}, service {m}") from None

    def has_ladder(self, n: int, m: int) -> bool:
        return (n, m) in self._ladder_index

    @cached_property
    def customers_by_category(self) -> dict[tuple[int, int], tuple[int, ...]]:
        groups: dict[tuple[int, int], list[int]] = {
            (n, k): []
            for n in range(self.n_shippers)
            for k in range(self.categories_per_shipper[n])
        }
        for cust in self.customers:
            key = (cust.shipper, cust.category)
            if key in groups:
                groups[key].append(cust.id)
        return {key: tuple(js) for key, js in groups.items()}

    @cached_property
    def _category_demands(self) -> dict[tuple[int, int], float]:
        return {
            key: float(sum(self.customers[j].demand for j in js))
            for key, js in self.customers_by_category.items()
        }

    def category_demand(self, n: int, k: int) -> float:
        """d_k: total demand of the category, always the sum over its customers."""
        return self._category_demands[(n, k)]

    @cached_property
    def category_members(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """Per category: its customer ids and their demands, as read-only
        arrays in ``customers_by_category`` order."""
        members = {}
        for key, js in self.customers_by_category.items():
            ids = np.array(js, dtype=int)
            demands = np.array([self.customers[j].demand for j in js], dtype=float)
            ids.setflags(write=False)
            demands.setflags(write=False)
            members[key] = (ids, demands)
        return members

    @cached_property
    def total_demand(self) -> float:
        return float(sum(c.demand for c in self.customers))

    @cached_property
    def total_capacity(self) -> float:
        return float(sum(f.capacity for f in self.facilities))

    @property
    def capacity_ratio(self) -> float:
        return self.total_capacity / self.total_demand

    @property
    def shippers(self) -> tuple[Shipper, ...]:
        return tuple(map(Shipper, range(self.n_shippers), self.categories_per_shipper,
                         self.services_by_category))

    def shipper_services(self, n: int) -> tuple[int, ...]:
        """Service levels available to shipper n (union over its categories)."""
        seen: set[int] = set()
        for k in range(self.categories_per_shipper[n]):
            seen.update(self.services_by_category[n][k])
        return tuple(sorted(seen))

    def services_for_customer(self, j: int) -> tuple[int, ...]:
        cust = self.customers[j]
        return self.services_by_category[cust.shipper][cust.category]

    def offer_keys(self):
        """All (n, k, m, p) combinations that can be offered."""
        for n in range(self.n_shippers):
            for k in range(self.categories_per_shipper[n]):
                for m in self.services_by_category[n][k]:
                    for p in range(len(self.ladder(n, m).prices)):
                        yield (n, k, m, p)

    def with_choice_model(self, model: ChoiceModel) -> "Instance":
        return replace(self, choice_model=model)


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the seeded CFLP-style generator.

    ``ratio`` pins total capacity / total demand exactly; prices form an
    equally spaced grid between ``price_min`` and ``price_max``.  The demand
    model defaults follow the shared-utility experimental setup (alpha=-0.1,
    beta=1, service taste 4.5, outside option 3).
    """

    n_facilities: int
    n_customers: int
    n_shippers: int
    categories_per_shipper: int
    n_services: int
    n_prices: int
    ratio: float
    seed: int
    price_min: float = 15.0
    price_max: float = 23.0
    alpha: float = -0.1
    beta: float = 1.0
    service_preference: float = 4.5
    optout_utility: float = 3.0

    def check(self) -> None:
        for name in ("alpha", "beta", "ratio", "price_min", "price_max",
                     "service_preference", "optout_utility"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number (got {value})")
        for name in ("n_facilities", "n_customers", "n_shippers",
                     "categories_per_shipper", "n_services"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 (got {getattr(self, name)})")
        if self.n_prices < 2:
            raise ValueError(
                f"equal price steps need at least 2 price levels (got {self.n_prices})"
            )
        if not self.ratio > 0.0:
            raise ValueError(f"ratio must be > 0 (got {self.ratio})")
        if not self.price_min < self.price_max:
            raise ValueError(
                f"price_min must be below price_max (got {self.price_min} "
                f">= {self.price_max})"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits (got {self.seed})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (got {self.beta})")


def price_grid(price_min: float, price_max: float, count: int) -> list[float]:
    """Equally spaced price levels, step (max - min) / (count - 1)."""
    step = (price_max - price_min) / (count - 1)
    return [price_min + p * step for p in range(count)]


def generate(params: GeneratorParams) -> Instance:
    """Deterministic instance from the parameter set.

    Construction, in fixed draw order: facility and customer coordinates
    uniform on the unit square; integer demands; capacities drawn uniform then
    rescaled so that total capacity / total demand hits ``ratio`` exactly;
    fixed costs with square-root economies of scale; base assignment cost =
    distance x haul rate x customer demand, scaled per service level by
    1, 1.05, 1.10, ...; customers assigned round-robin to shippers, then
    round-robin to categories within each shipper.  Every service level is
    available to every category and shares one price grid; minimum-demand
    gates are zero (experiment harnesses inject nonzero gates where needed).
    """
    params.check()
    rng = np.random.default_rng(params.seed)

    fac_xy = rng.uniform(0.0, 1.0, size=(params.n_facilities, 2))
    cust_xy = rng.uniform(0.0, 1.0, size=(params.n_customers, 2))
    demands = rng.integers(DEMAND_RANGE[0], DEMAND_RANGE[1] + 1,
                           size=params.n_customers).astype(float)
    cap_shape = rng.uniform(0.5, 1.5, size=params.n_facilities)
    cost_mult = rng.uniform(0.5, 1.5, size=params.n_facilities)

    total_demand = float(demands.sum())
    capacities = cap_shape * (params.ratio * total_demand / cap_shape.sum())
    fixed_costs = cost_mult * FIXED_COST_SCALE * np.sqrt(capacities)

    facilities = tuple(
        Facility(i, float(capacities[i]), float(fixed_costs[i]),
                 (float(fac_xy[i, 0]), float(fac_xy[i, 1])))
        for i in range(params.n_facilities)
    )
    customers = tuple(
        Customer(
            j,
            shipper=j % params.n_shippers,
            category=(j // params.n_shippers) % params.categories_per_shipper,
            demand=float(demands[j]),
            location=(float(cust_xy[j, 0]), float(cust_xy[j, 1])),
        )
        for j in range(params.n_customers)
    )
    service_levels = tuple(
        ServiceLevel(m, gamma=1.0, cost_multiplier=1.0 + COST_MULTIPLIER_STEP * m)
        for m in range(params.n_services)
    )

    dist = np.sqrt(((fac_xy[:, None, :] - cust_xy[None, :, :]) ** 2).sum(axis=2))
    base = dist * HAUL_RATE * demands[None, :]
    multipliers = np.array([s.cost_multiplier for s in service_levels])
    costs = base[:, :, None] * multipliers[None, None, :]

    prices = tuple(price_grid(params.price_min, params.price_max, params.n_prices))
    zeros = tuple(0.0 for _ in prices)
    ladders = tuple(
        PriceLadder(n, m, prices, zeros)
        for n in range(params.n_shippers)
        for m in range(params.n_services)
    )

    all_services = tuple(range(params.n_services))
    services_by_category = tuple(
        tuple(all_services for _ in range(params.categories_per_shipper))
        for _ in range(params.n_shippers)
    )
    model = ChoiceModel.uniform_spec(
        params.n_shippers,
        (params.categories_per_shipper,) * params.n_shippers,
        params.n_services,
        alpha=params.alpha,
        beta=params.beta,
        service_preference=params.service_preference,
        optout_utility=params.optout_utility,
    )
    return Instance(
        facilities=facilities,
        customers=customers,
        service_levels=service_levels,
        categories_per_shipper=(params.categories_per_shipper,) * params.n_shippers,
        services_by_category=services_by_category,
        price_ladders=ladders,
        costs=costs,
        choice_model=model,
        meta=Meta(seed=params.seed, generator=params),
    )


def scale_to_ratio(inst: Instance, ratio: float) -> Instance:
    """Copy of the instance with all capacities scaled by one common factor so
    that total capacity / total demand equals ``ratio``; demand is untouched."""
    if not ratio > 0.0:
        raise ValueError(f"ratio must be > 0 (got {ratio})")
    factor = ratio * inst.total_demand / inst.total_capacity
    facilities = tuple(replace(f, capacity=f.capacity * factor) for f in inst.facilities)
    return replace(inst, facilities=facilities)


def validate(inst: Instance) -> list[str]:
    """Structural check; returns a violation message per problem (empty = ok).
    Ids are indices, so each must equal its position."""
    out: list[str] = []
    n_shippers = inst.n_shippers
    n_services = inst.n_services

    for kind, items in (("facility", inst.facilities), ("customer", inst.customers),
                        ("service level", inst.service_levels)):
        out += [f"{kind} at position {i} has id {x.id}"
                for i, x in enumerate(items) if x.id != i]

    for f in inst.facilities:
        if not f.capacity > 0.0:
            out.append(f"facility {f.id}: capacity must be > 0 (got {f.capacity})")
        if f.fixed_cost < 0.0:
            out.append(f"facility {f.id}: fixed cost must be >= 0 (got {f.fixed_cost})")

    for c in inst.customers:
        if not c.demand > 0.0:
            out.append(f"customer {c.id}: demand must be > 0 (got {c.demand})")
        if not 0 <= c.shipper < n_shippers:
            out.append(f"customer {c.id}: shipper {c.shipper} out of range")
        elif not 0 <= c.category < inst.categories_per_shipper[c.shipper]:
            out.append(
                f"customer {c.id}: category {c.category} out of range for "
                f"shipper {c.shipper}"
            )

    for s in inst.service_levels:
        if s.gamma < 1.0:
            out.append(f"service {s.id}: gamma must be >= 1 (got {s.gamma})")
        if s.cost_multiplier < 1.0:
            out.append(
                f"service {s.id}: cost multiplier must be >= 1 (got {s.cost_multiplier})"
            )

    if len(inst.services_by_category) != n_shippers:
        out.append(
            f"services_by_category lists {len(inst.services_by_category)} shippers, "
            f"expected {n_shippers}"
        )
    for n in range(min(n_shippers, len(inst.services_by_category))):
        per_shipper = inst.services_by_category[n]
        if len(per_shipper) != inst.categories_per_shipper[n]:
            out.append(
                f"shipper {n}: services listed for {len(per_shipper)} categories, "
                f"expected {inst.categories_per_shipper[n]}"
            )
            continue
        for k, services in enumerate(per_shipper):
            for m in services:
                if not 0 <= m < n_services:
                    out.append(f"shipper {n} category {k}: service {m} out of range")
                elif not inst.has_ladder(n, m):
                    out.append(
                        f"shipper {n} category {k}: service {m} has no price ladder"
                    )

    for lad in inst.price_ladders:
        if not 0 <= lad.shipper < n_shippers:
            out.append(f"ladder: shipper {lad.shipper} out of range")
        if not 0 <= lad.service < n_services:
            out.append(f"ladder (n={lad.shipper}): service {lad.service} out of range")
        for p, price in enumerate(lad.prices):
            if not price > 0.0:
                out.append(
                    f"ladder (n={lad.shipper}, m={lad.service}): price at position "
                    f"{p} must be > 0 (got {price})"
                )
        for p in range(1, len(lad.prices)):
            if not lad.prices[p] > lad.prices[p - 1]:
                out.append(
                    f"ladder (n={lad.shipper}, m={lad.service}): prices must be "
                    f"strictly increasing at position {p}"
                )
        for p, level in enumerate(lad.min_demands):
            if level < 0.0:
                out.append(
                    f"ladder (n={lad.shipper}, m={lad.service}): minimum demand at "
                    f"position {p} must be >= 0 (got {level})"
                )

    if inst.costs.shape != (inst.n_facilities, inst.n_customers, n_services):
        out.append(
            f"cost array shape {inst.costs.shape} does not match "
            f"({inst.n_facilities}, {inst.n_customers}, {n_services})"
        )
    elif (inst.costs < 0.0).any():  # only then look for listed services
        listed = inst.services_by_category
        for j, cust in enumerate(inst.customers):
            n, k = cust.shipper, cust.category
            if not (0 <= n < min(n_shippers, len(listed)) and 0 <= k < len(listed[n])):
                continue  # reported above
            for m in listed[n][k]:
                if not 0 <= m < n_services:
                    continue  # reported above
                for i in np.flatnonzero(inst.costs[:, j, m] < 0.0):
                    out.append(
                        f"cost c[{int(i)},{j},{m}] must be >= 0 "
                        f"(got {inst.costs[int(i), j, m]})"
                    )

    model = inst.choice_model
    if len(model.service_preference) != n_shippers or len(model.optout_preference) != n_shippers:
        out.append("choice model does not cover every shipper")
    else:
        for n in range(n_shippers):
            kn = inst.categories_per_shipper[n]
            if len(model.service_preference[n]) != kn or len(model.optout_preference[n]) != kn:
                out.append(f"choice model does not cover every category of shipper {n}")

    return out


# ---------------------------------------------------------------------------
# JSON serialization.  The schema is strict: unknown keys are rejected so that
# drifting experiment configs fail loudly instead of being silently ignored,
# and numbers must be finite, although JSON readers take NaN and Infinity.
# ---------------------------------------------------------------------------

#: The instance file's record lists and the record type of their entries,
#: each named as the ``Instance`` attribute it holds.
_RECORD_LISTS = {"facilities": Facility, "customers": Customer, "shippers": Shipper,
                 "service_levels": ServiceLevel, "price_ladders": PriceLadder}
#: The instance file's single records, named the same way.
_RECORDS = {"choice_model": ChoiceModel, "meta": Meta}
#: The file keys of the record fields that are stored under another name.
_FILE_KEYS = {ChoiceModel: {"service_preference": "L", "optout_preference": "L_optout"}}


def _record_dict(record) -> dict:
    """JSON object of a record, each field under its file key; None is left out."""
    keys = _FILE_KEYS.get(type(record), {})
    return {keys.get(name, name): value for name, value in asdict(record).items()
            if value is not None}


def to_json_dict(inst: Instance) -> dict:
    return {
        **{key: [_record_dict(r) for r in getattr(inst, key)] for key in _RECORD_LISTS},
        **{key: _record_dict(getattr(inst, key)) for key in _RECORDS},
        "costs": inst.costs.tolist(),
    }


def _read(obj, where: str, convert: dict, optional: tuple = (), into=dict,
          error: type[ValueError] = InstanceFormatError):
    """``into(**fields)`` from the JSON object ``obj``, each field passed
    through its converter in ``convert``; the fields in ``optional`` may be
    missing.  Raises ``error`` naming the unknown, missing or malformed
    field."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    for key in obj:
        if key not in convert:
            raise error(f"unknown field '{key}' in {where}")
    values = {}
    for key, fn in convert.items():
        if key in obj:
            try:
                values[key] = fn(obj[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise error(f"{where}.{key}: {exc}") from None
        elif key not in optional:
            raise error(f"missing field '{key}' in {where}")
    try:
        return into(**values)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from None


def _of_type(*kinds: type):
    """Converter passing values of ``kinds`` through and rejecting the rest;
    JSON ``true`` and ``false`` pass as bool only, never as a number."""
    def check(value):
        if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
            raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, "
                            f"got {type(value).__name__} {reprlib.repr(value)}")
        return value
    return check


_integer = _of_type(int)


def _number(value) -> float:
    number = float(_of_type(int, float)(value))
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number!r}")
    return number


def _tuple_of(convert):
    """Converter of a JSON list whose items each pass ``convert``."""
    def check(values):
        return tuple(convert(v) for v in _of_type(list)(values))
    return check


_floats = _tuple_of(_number)


def _float_array(value) -> np.ndarray:
    """Nested JSON lists of finite numbers as a float array."""
    array = np.asarray(value, dtype=float)
    for kind in set(map(type, np.asarray(value, dtype=object).flat)) - {int, float}:
        raise TypeError(f"expected int or float, got {kind.__name__}")
    if not np.isfinite(array).all():
        raise ValueError("expected finite numbers only")
    return array


#: JSON converter of each field type of the records ``read_record`` reads.
_CONVERTERS = {
    "int": _integer, "float": _number, "bool": _of_type(bool),
    "tuple[float, float]": _floats, "tuple[float, ...]": _floats,
    "tuple[tuple[float, ...], ...]": _tuple_of(_floats),
    "tuple[tuple[tuple[float, ...], ...], ...]": _tuple_of(_tuple_of(_floats)),
    "tuple[tuple[int, ...], ...]": _tuple_of(_tuple_of(_integer)),
    # an object here; ``from_json_dict`` reads it as a ``GeneratorParams``
    "GeneratorParams | None": _of_type(dict),
}


def read_record(obj, where: str, cls, error: type[ValueError] = InstanceFormatError):
    """Dataclass ``cls`` from a JSON object, each field under its file key
    and converted by its declared type; the fields with a default may be
    missing."""
    keys = _FILE_KEYS.get(cls, {})
    spec = {keys.get(f.name, f.name): f for f in fields(cls)}
    return _read(obj, where, {key: _CONVERTERS[f.type] for key, f in spec.items()},
                 tuple(key for key, f in spec.items() if f.default is not MISSING),
                 lambda **values: cls(**{spec[key].name: v for key, v in values.items()}),
                 error)


def from_json_dict(data: dict) -> Instance:
    """Instance from its JSON form; raises ``InstanceFormatError`` on a
    schema violation or listing every problem ``validate`` finds."""
    data = _read(data, "instance", {**dict.fromkeys(_RECORD_LISTS, _of_type(list)),
                                    **dict.fromkeys(_RECORDS, _of_type(dict)),
                                    "costs": _float_array})
    records = {key: tuple(read_record(obj, f"{key}[{idx}]", cls)
                          for idx, obj in enumerate(data[key]))
               for key, cls in _RECORD_LISTS.items()}
    records.update((key, read_record(data[key], key, cls)) for key, cls in _RECORDS.items())
    shippers = records.pop("shippers")
    for idx, shipper in enumerate(shippers):
        if shipper.id != idx:
            raise InstanceFormatError(f"shippers[{idx}] has id {shipper.id}; "
                                      "shippers must be listed in order")
    generator = records["meta"].generator
    if generator is not None:
        records["meta"] = replace(records["meta"], generator=read_record(
            generator, "meta.generator", GeneratorParams))

    inst = Instance(**records, costs=data["costs"],
                    categories_per_shipper=tuple(s.n_categories for s in shippers),
                    services_by_category=tuple(s.services_by_category for s in shippers))
    problems = validate(inst)
    if problems:
        raise InstanceFormatError("invalid instance:\n  " + "\n  ".join(problems))
    return inst


def dumps(inst: Instance) -> str:
    """Canonical JSON text: sorted keys, full float precision, newline-terminated."""
    return json.dumps(to_json_dict(inst), sort_keys=True, indent=1) + "\n"


def save(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps(inst), encoding="utf-8")


def load(path: str | Path) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return from_json_dict(data)

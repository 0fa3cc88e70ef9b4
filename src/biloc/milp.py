"""Single-level MILP of the acceptance-probability reduction.

The builder emits a solver-agnostic model over the first-stage binaries
(open facilities ``r``, price picks ``y``, service assignments ``z``), the
fractional allocation ``w``, and the two families of product-linearization
variables: ``pi`` (= y*z, gates revenue) and ``nu`` (= w*y, gates allocation
cost).  A text export/import pair allows cross-checking against external
solvers, and a preprocessing bound certifies instances whose optimum is zero
without any search.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .choice import RhoTable
from .instance import _integer, _number, _of_type, _read, _tuple_of, read_record

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

FEASIBILITY_TOL = 1e-7
OBJECTIVE_REL_TOL = 1e-6
#: An instance whose profit upper bound is at or below this is certified
#: trivial: the optimum is exactly 0 (offer nothing, open nothing).
TRIVIAL_THRESHOLD = 1e-9

LP_HEADER = "\\ biloc lp export v1"


class BuildError(ValueError):
    """Raised when a model cannot be assembled from the given inputs."""


class LpParseError(ValueError):
    """Raised when LP text cannot be parsed back into a model."""


class SolutionFormatError(ValueError):
    """Raised when solution JSON has unknown or missing fields."""


class InfeasibleSolutionError(ValueError):
    """Raised by evaluate() and simulate() when a solution violates the model
    constraints; the message lists the violations on one line."""

    def __init__(self, violations: list[str]):
        super().__init__(f"solution violates {len(violations)} constraint(s): "
                         + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" | "continuous"
    lb: float
    ub: float
    tag: tuple


@dataclass
class Constraint:
    name: str
    family: str
    coeffs: dict[int, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    """Linear model: variables, rows, and a maximization objective."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    maximize: bool = True

    def __post_init__(self) -> None:
        self._by_tag = {v.tag: i for i, v in enumerate(self.variables)}

    def add_variable(self, name: str, kind: str, lb: float, ub: float, tag: tuple) -> int:
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, lb, ub, tag))
        self._by_tag[tag] = idx
        return idx

    def var_index(self, tag: tuple) -> int:
        return self._by_tag[tag]

    def has_var(self, tag: tuple) -> bool:
        return tag in self._by_tag

    def add_constraint(self, family: str, suffix: str, coeffs: dict[int, float],
                       sense: str, rhs: float) -> None:
        self.constraints.append(
            Constraint(f"{family}__{suffix}", family, coeffs, sense, rhs)
        )

    def variables_by_prefix(self, prefix: str) -> list[Variable]:
        return [v for v in self.variables if v.tag[0] == prefix]

    def families(self) -> set[str]:
        return {c.family for c in self.constraints}

    def binary_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.kind == "binary"]


#: Every status a solver gives its ``Solution``.
_STATUSES = ("optimal", "infeasible", "time_limit", "trivial")


def _status(value) -> str:
    if value not in _STATUSES:
        raise ValueError(f"expected one of {', '.join(_STATUSES)}, "
                         f"got {reprlib.repr(value)}")
    return value


def _bound(infinite: float):
    """Converter of a finite number, or of ``null``, which stands for the
    ``infinite`` objective or gap of a search without an incumbent."""
    def check(value) -> float:
        return infinite if value is None else _number(value)
    return check


#: Top-level fields of solution JSON and their converters.
_SOLUTION_FIELDS = {
    "status": _status, "objective": _bound(-math.inf), "open_facilities": _tuple_of(_integer),
    "price_choices": _of_type(list), "service_choices": _of_type(list),
    "allocation": _of_type(list), "revenue": _number, "assignment_cost": _number,
    "fixed_cost": _number, "offer_summary": _of_type(list), "nodes": _integer,
    "seconds": _number, "gap": _bound(math.inf),
}
#: The profit breakdown and the search counters, which default to zero when
#: absent.
_SOLUTION_OPTIONAL = ("revenue", "assignment_cost", "fixed_cost", "offer_summary",
                      "nodes", "seconds", "gap")
#: The decision lists of solution JSON, each a map in ``Solution``: the key
#: fields of its entries (integers), then their value field and its converter.
#: ``offer_summary`` entries are read as ``OfferLine`` records.
_SOLUTION_DECISIONS = {
    "price_choices": (("shipper", "service"), "price_index", _integer),
    "service_choices": (("shipper", "category"), "service", _integer),
    "allocation": (("facility", "customer", "service"), "fraction", _number),
}


@dataclass(frozen=True)
class OfferLine:
    shipper: int
    category: int
    service: int
    price_index: int
    price: float
    rho: float


@dataclass
class Solution:
    """First-stage decisions plus the allocation and a profit breakdown.

    The model's product variables ``pi`` and ``nu`` are not stored: at
    integral points they equal y*z and w*y.

    Its JSON form has one key per field, in field order, each read through
    its converter in ``_SOLUTION_FIELDS``; the three decision maps are lists
    of entries laid out by ``_SOLUTION_DECISIONS``, which both the writer
    and the reader follow.  A new scalar field needs its converter entry
    (and an optional entry, if older files lack it) but no edit to either
    method.  It is strict JSON: an infinite objective or gap is ``null``.
    """

    status: str  # "optimal" | "infeasible" | "time_limit" | "trivial"
    objective: float
    open_facilities: tuple[int, ...] = ()
    price_choices: dict = field(default_factory=dict)    # (n, m) -> p
    service_choices: dict = field(default_factory=dict)  # (n, k) -> m
    allocation: dict = field(default_factory=dict)       # (i, j, m) -> w
    revenue: float = 0.0
    assignment_cost: float = 0.0
    fixed_cost: float = 0.0
    offer_summary: tuple[OfferLine, ...] = ()
    nodes: int = 0
    seconds: float = 0.0
    gap: float = 0.0

    @property
    def proven_optimal(self) -> bool:
        return self.status in ("optimal", "trivial")

    @property
    def offers(self) -> dict:
        """The offer map {(n, k): (m, p)}: every category whose service has a
        chosen price, in ``service_choices`` order."""
        return {(n, k): (m, self.price_choices[(n, m)])
                for (n, k), m in self.service_choices.items()
                if (n, m) in self.price_choices}

    def r_value(self, i: int) -> float:
        return 1.0 if i in self.open_facilities else 0.0

    def y_value(self, n: int, m: int, p: int) -> float:
        return 1.0 if self.price_choices.get((n, m)) == p else 0.0

    def z_value(self, n: int, k: int, m: int) -> float:
        return 1.0 if self.service_choices.get((n, k)) == m else 0.0

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update((name, None) for name in ("objective", "gap") if math.isinf(data[name]))
        for name, (keys, value, _convert) in _SOLUTION_DECISIONS.items():
            names = (*keys, value)
            data[name] = [dict(zip(names, key + (v,))) for key, v in sorted(data[name].items())]
        data["open_facilities"] = list(self.open_facilities)
        data["offer_summary"] = [asdict(o) for o in self.offer_summary]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Solution":
        """Solution from its JSON form; raises ``SolutionFormatError`` naming
        the unknown, missing or malformed field."""
        top = _read(data, "solution", _SOLUTION_FIELDS, _SOLUTION_OPTIONAL,
                    error=SolutionFormatError)
        for name, (keys, value, convert) in _SOLUTION_DECISIONS.items():
            entry = {**dict.fromkeys(keys, _integer), value: convert}
            key_of = itemgetter(*keys)
            top[name] = {key_of(o): o[value] for o in (
                _read(obj, f"{name}[{idx}]", entry, error=SolutionFormatError)
                for idx, obj in enumerate(top[name]))}
        top["offer_summary"] = tuple(
            read_record(obj, f"offer_summary[{idx}]", OfferLine, SolutionFormatError)
            for idx, obj in enumerate(top.get("offer_summary", ())))
        return cls(**top)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=1, allow_nan=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "Solution":
        text = Path(path).read_text(encoding="utf-8")
        try:
            return cls.from_json_dict(json.loads(text))
        except ValueError as exc:  # a format error, or invalid JSON
            raise SolutionFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

#: LP names of the variable families: tag (head, *indices) is named head,
#: then each index after its prefix, joined by underscores: ``y_n0_m1_p2``.
_TAG_PATTERNS = {"r": ("i",), "y": ("n", "m", "p"), "z": ("n", "k", "m"),
                 "w": ("i", "j", "m"), "pi": ("n", "k", "m", "p"),
                 "nu": ("i", "j", "m", "p")}


def _var_name(tag: tuple) -> str:
    return "_".join([tag[0], *map("{}{}".format, _TAG_PATTERNS[tag[0]], tag[1:])])


def build(inst: "Instance", rho: RhoTable) -> MilpModel:
    """Assemble the reduced single-level MILP for the instance.

    Objective: -sum f_i r_i + sum rho*d_k*q*pi - sum rho*c*nu.  Rows: at most
    one price per (shipper, service); per-shipper offer budget; one service
    per category; services need a priced ladder; capacity with gamma-scaled
    demand; allocation only to open facilities; full assignment of offered
    categories; minimum committed demand per priced service; and the eight
    product-linearization families for pi and nu.

    Variables come in the order r, y, z, w, pi, nu.  Each r, pi and nu is
    declared with its objective coefficient, and each pi and nu with its
    four McCormick rows, which follow the eight other row families.
    """
    for key in inst.offer_keys():
        if key not in rho:
            raise BuildError(
                "rho table has no entry for (shipper={}, category={}, service={}, "
                "price={})".format(*key)
            )

    model = MilpModel()
    I = inst.n_facilities
    J = inst.n_customers

    def declare(kind: str, *tag) -> int:
        return model.add_variable(_var_name(tag), kind, 0.0, 1.0, tag)

    for i in range(I):
        model.objective[declare("binary", "r", i)] = -inst.facilities[i].fixed_cost
    for n in range(inst.n_shippers):
        for m in inst.shipper_services(n):
            for p in range(len(inst.ladder(n, m).prices)):
                declare("binary", "y", n, m, p)
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            for m in inst.services_by_category[n][k]:
                declare("binary", "z", n, k, m)
    for i in range(I):
        for j in range(J):
            for m in inst.services_for_customer(j):
                declare("continuous", "w", i, j, m)

    # one price per (shipper, service)
    for n in range(inst.n_shippers):
        for m in inst.shipper_services(n):
            coeffs = {
                model.var_index(("y", n, m, p)): 1.0
                for p in range(len(inst.ladder(n, m).prices))
            }
            model.add_constraint("one_price_per_service", f"n{n}_m{m}", coeffs, "<=", 1.0)

    # per-shipper budget: priced (service, price) pairs cannot exceed category count
    for n in range(inst.n_shippers):
        coeffs = {model.var_index(("y", n, m, p)): 1.0 for m in inst.shipper_services(n)
                  for p in range(len(inst.ladder(n, m).prices))}
        model.add_constraint("offer_budget", f"n{n}", coeffs, "<=",
                             float(inst.categories_per_shipper[n]))

    # one service per category
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            coeffs = {
                model.var_index(("z", n, k, m)): 1.0
                for m in inst.services_by_category[n][k]
            }
            model.add_constraint("one_service_per_category", f"n{n}_k{k}", coeffs,
                                 "<=", 1.0)

    # a category can only take a service whose ladder has a chosen price
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            for m in inst.services_by_category[n][k]:
                coeffs = {model.var_index(("z", n, k, m)): 1.0}
                for p in range(len(inst.ladder(n, m).prices)):
                    coeffs[model.var_index(("y", n, m, p))] = -1.0
                model.add_constraint("service_requires_price", f"n{n}_k{k}_m{m}",
                                     coeffs, "<=", 0.0)

    # capacity, gamma-scaled usage
    for i in range(I):
        coeffs = {model.var_index(("w", i, j, m)): inst.service_levels[m].gamma * cust.demand
                  for j, cust in enumerate(inst.customers) for m in inst.services_for_customer(j)}
        coeffs[model.var_index(("r", i))] = -inst.facilities[i].capacity
        model.add_constraint("capacity", f"i{i}", coeffs, "<=", 0.0)

    # allocation only to open facilities
    for i in range(I):
        for j in range(J):
            coeffs = {
                model.var_index(("w", i, j, m)): 1.0
                for m in inst.services_for_customer(j)
            }
            coeffs[model.var_index(("r", i))] = -1.0
            model.add_constraint("open_gate", f"i{i}_j{j}", coeffs, "<=", 0.0)

    # offered categories are fully assigned
    for j in range(J):
        cust = inst.customers[j]
        for m in inst.services_for_customer(j):
            coeffs = {model.var_index(("w", i, j, m)): 1.0 for i in range(I)}
            coeffs[model.var_index(("z", cust.shipper, cust.category, m))] = -1.0
            model.add_constraint("assignment_balance", f"j{j}_m{m}", coeffs, "=", 0.0)

    # committed demand must reach the chosen price's minimum level
    for n in range(inst.n_shippers):
        for m in inst.shipper_services(n):
            coeffs = {}
            for k in range(inst.categories_per_shipper[n]):
                if m in inst.services_by_category[n][k]:
                    coeffs[model.var_index(("z", n, k, m))] = inst.category_demand(n, k)
            ladder = inst.ladder(n, m)
            for p, level in enumerate(ladder.min_demands):
                y_idx = model.var_index(("y", n, m, p))
                coeffs[y_idx] = coeffs.get(y_idx, 0.0) - level
            model.add_constraint("min_demand", f"n{n}_m{m}", coeffs, ">=", 0.0)

    # pi = y*z, the revenue of a deal, and its linearization
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            d_k = inst.category_demand(n, k)
            for m in inst.services_by_category[n][k]:
                z_idx = model.var_index(("z", n, k, m))
                for p, q in enumerate(inst.ladder(n, m).prices):
                    pi_idx = declare("continuous", "pi", n, k, m, p)
                    model.objective[pi_idx] = rho.get(n, k, m, p) * d_k * q
                    y_idx = model.var_index(("y", n, m, p))
                    sfx = f"n{n}_k{k}_m{m}_p{p}"
                    model.add_constraint("deal_le_service", sfx,
                                         {pi_idx: 1.0, z_idx: -1.0}, "<=", 0.0)
                    model.add_constraint("deal_le_price", sfx,
                                         {pi_idx: 1.0, y_idx: -1.0}, "<=", 0.0)
                    model.add_constraint("deal_ge_link", sfx,
                                         {pi_idx: 1.0, z_idx: -1.0, y_idx: -1.0},
                                         ">=", -1.0)
                    model.add_constraint("deal_nonneg", sfx, {pi_idx: 1.0}, ">=", 0.0)

    # nu = w*y, the serving cost of a flow, and its linearization
    for i in range(I):
        for j in range(J):
            n = inst.customers[j].shipper
            k = inst.customers[j].category
            for m in inst.services_for_customer(j):
                w_idx = model.var_index(("w", i, j, m))
                for p in range(len(inst.ladder(n, m).prices)):
                    nu_idx = declare("continuous", "nu", i, j, m, p)
                    model.objective[nu_idx] = -rho.get(n, k, m, p) * inst.costs[i, j, m]
                    y_idx = model.var_index(("y", n, m, p))
                    sfx = f"i{i}_j{j}_m{m}_p{p}"
                    model.add_constraint("flow_le_alloc", sfx,
                                         {nu_idx: 1.0, w_idx: -1.0}, "<=", 0.0)
                    model.add_constraint("flow_le_price", sfx,
                                         {nu_idx: 1.0, y_idx: -1.0}, "<=", 0.0)
                    model.add_constraint("flow_ge_link", sfx,
                                         {nu_idx: 1.0, w_idx: -1.0, y_idx: -1.0},
                                         ">=", -1.0)
                    model.add_constraint("flow_nonneg", sfx, {nu_idx: 1.0}, ">=", 0.0)

    return model


# ---------------------------------------------------------------------------
# LP text export / import
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value) + 0.0)  # plain float, -0.0 normalized


def _fmt_terms(coeffs: dict[int, float], variables: list[Variable]) -> str:
    """Signed terms, a leading "+" left out."""
    return " ".join(f"{'-' if coeff < 0 else '+'} {_fmt(abs(coeff))} {variables[idx].name}"
                    for idx, coeff in coeffs.items()).removeprefix("+ ")


def export_lp(model: MilpModel) -> str:
    """Canonical LP text: fixed header, one row per line, full-precision
    coefficients.  export -> parse -> export is byte-identical."""
    lines = [LP_HEADER, "Maximize" if model.maximize else "Minimize"]
    lines.append(" obj: " + _fmt_terms(model.objective, model.variables))
    lines.append("Subject To")
    for con in model.constraints:
        body = _fmt_terms(con.coeffs, model.variables)
        lines.append(f" {con.name}: {body} {con.sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == "continuous":
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    lines.append("Binaries")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(model: MilpModel, path: str | Path) -> None:
    Path(path).write_text(export_lp(model), encoding="utf-8")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM_RE = re.compile(r"([+-])?\s*([0-9][0-9.eE+-]*)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _tag_from_name(name: str) -> tuple:
    """The tag ``_var_name`` gives this name, else ("x", name)."""
    head, *parts = name.split("_")
    try:
        tag = (head, *(int(part[len(prefix):])
                       for prefix, part in zip(_TAG_PATTERNS[head], parts, strict=True)))
    except (KeyError, ValueError):
        return ("x", name)
    return tag if _var_name(tag) == name else ("x", name)


def _lp_number(text: str, line_no: int, what: str) -> float:
    """The number ``text``, which may be infinite but not NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise LpParseError(f"line {line_no}: {what} '{text.strip()}' is not a number")
    return value


def _parse_terms(text: str, line_no: int) -> list[tuple[str, float]]:
    terms: list[tuple[str, float]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise LpParseError(f"line {line_no}: cannot parse term at '{text[pos:]}'")
        sign, number, name = match.groups()
        coeff = 1.0 if number is None else _lp_number(number, line_no, "coefficient")
        if sign == "-":
            coeff = -coeff
        terms.append((name, coeff))
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return terms


#: Section headers of LP text, lower-cased, and the section each opens.
_SECTIONS = {
    **dict.fromkeys(("maximize", "maximise", "max", "minimize", "minimise", "min"), "objective"),
    **dict.fromkeys(("subject to", "st", "s.t."), "constraints"), "bounds": "bounds",
    **dict.fromkeys(("binaries", "binary", "bin"), "binaries"), "end": "end",
}


def parse_lp(text: str) -> MilpModel:
    """Parse the canonical LP text back into a model."""
    section = None
    objective_terms: list[tuple[str, float]] = []
    maximize = True
    rows: list[tuple[str, list[tuple[str, float]], str, float]] = []
    # (line, name, kind, lb, ub) of each declaration
    binaries: list[tuple[int, str, str, float, float]] = []
    bounds: list[tuple[int, str, str, float, float]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in _SECTIONS:
            section = _SECTIONS[lowered]
            if section == "objective":
                maximize = lowered.startswith("max")
            continue

        if section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            if body.strip():
                objective_terms.extend(_parse_terms(body, line_no))
        elif section == "constraints":
            if ":" not in line:
                raise LpParseError(f"line {line_no}: constraint without a name")
            name, body = line.split(":", 1)
            sense_match = re.search(r"(<=|>=|=)", body)
            if sense_match is None:
                raise LpParseError(f"line {line_no}: constraint without a sense")
            sense = sense_match.group(1)
            lhs, rhs_text = body.split(sense, 1)
            rhs = _lp_number(rhs_text, line_no, "right-hand side")
            rows.append((name.strip(), _parse_terms(lhs, line_no), sense, rhs))
        elif section == "bounds":
            match = re.fullmatch(
                r"(\S+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*(\S+)", line
            )
            if match is None:
                raise LpParseError(f"line {line_no}: cannot parse bound '{line}'")
            lb, name, ub = match.groups()
            bounds.append((line_no, name, "continuous", _lp_number(lb, line_no, "bound"),
                           _lp_number(ub, line_no, "bound")))
        elif section == "binaries":
            binaries.extend((line_no, name, "binary", 0.0, 1.0)
                            for name in _NAME_RE.findall(line))
        elif section is None:
            raise LpParseError(f"line {line_no}: content before any section header")

    first_line: dict[str, int] = {}
    for line_no, name, *_ in sorted(binaries + bounds):
        if name in first_line:
            raise LpParseError(f"line {line_no}: variable '{name}' is declared twice "
                               f"(first on line {first_line[name]})")
        first_line[name] = line_no
    model = MilpModel(maximize=maximize)
    for _, name, kind, lb, ub in binaries + bounds:
        model.add_variable(name, kind, lb, ub, _tag_from_name(name))

    def resolve(name: str, line_ctx: str) -> int:
        tag = _tag_from_name(name)
        if not model.has_var(tag):
            raise LpParseError(f"{line_ctx} references undeclared variable '{name}'")
        return model.var_index(tag)

    model.objective = {
        resolve(name, "objective"): coeff for name, coeff in objective_terms
    }
    for name, terms, sense, rhs in rows:
        family = name.split("__", 1)[0]
        coeffs = {resolve(t, f"constraint {name}"): c for t, c in terms}
        model.constraints.append(Constraint(name, family, coeffs, sense, rhs))

    if not model.variables:
        raise LpParseError("model declares no variables")
    return model


def read_lp(path: str | Path) -> MilpModel:
    return parse_lp(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Preprocessing: profit upper bound and trivial certification
# ---------------------------------------------------------------------------

def profit_upper_bound(inst: "Instance", rho: RhoTable) -> float:
    """Capacity-blind bound on the optimum over solutions that open something.

    Sums each category's best nonnegative offer value and subtracts the
    cheapest fixed cost.  The value of offer (m, p) is rho * (d_k * q -
    cheapest way to serve every customer of the category at service m, each
    from its individually cheapest facility).  A bound at or below
    TRIVIAL_THRESHOLD certifies the instance trivial (optimum exactly 0)
    without any search; a positive bound certifies nothing, since it ignores
    capacity and minimum-demand gates.
    """
    # per category and service, its members' cheapest costs added one by one
    groups = inst.customers_by_category
    width = max(map(len, groups.values())) + 1
    members = [[*js] + [inst.n_customers] * (width - len(js))  # J costs 0
               for js in groups.values()]
    min_cost = np.vstack([inst.costs.min(axis=0), np.zeros(inst.n_services)])
    serve_costs = np.add.accumulate(min_cost[members], axis=1)[:, -1].tolist()
    total = 0.0
    for (n, k), serve_cost in zip(groups, serve_costs):
        d_k = inst.category_demand(n, k)
        best = 0.0
        for m in inst.services_by_category[n][k]:
            for p, q in enumerate(inst.ladder(n, m).prices):
                best = max(best, rho.get(n, k, m, p) * (d_k * q - serve_cost[m]))
        total += best
    return total - min(f.fixed_cost for f in inst.facilities)


def certifies_trivial(bound: float) -> bool:
    return bound <= TRIVIAL_THRESHOLD


# ---------------------------------------------------------------------------
# Solution checking and independent objective evaluation
# ---------------------------------------------------------------------------

def first_stage_violations(inst: "Instance", solution: Solution) -> list[str]:
    """Violations of the first-stage families only (facilities, prices,
    services, budget, minimum demand); the allocation is not examined."""
    out: list[str] = []
    for i in solution.open_facilities:
        if not 0 <= i < inst.n_facilities:
            out.append(f"open facility {i} out of range")
    valid_prices = {}
    for (n, m), p in solution.price_choices.items():
        if not (0 <= n < inst.n_shippers and m in inst.shipper_services(n)):
            out.append(f"shipper {n}: priced service {m} is not available")
        elif not 0 <= p < len(inst.ladder(n, m).prices):
            out.append(f"shipper {n} service {m}: price position {p} out of range")
        else:
            valid_prices[(n, m)] = p
    for n in range(inst.n_shippers):
        priced = sum(1 for (nn, _m) in solution.price_choices if nn == n)
        if priced > inst.categories_per_shipper[n]:
            out.append(f"shipper {n}: {priced} priced services exceed the "
                       f"{inst.categories_per_shipper[n]}-category budget")
    for (n, k), m in solution.service_choices.items():
        if not (0 <= n < inst.n_shippers and 0 <= k < inst.categories_per_shipper[n]
                and m in inst.services_by_category[n][k]):
            out.append(f"shipper {n} category {k}: service {m} is not available")
        elif (n, m) not in solution.price_choices:
            out.append(f"shipper {n} category {k}: service {m} has no chosen price")
    for (n, m), p in valid_prices.items():
        level = inst.ladder(n, m).min_demands[p]
        committed = sum(
            inst.category_demand(n, k)
            for k in range(inst.categories_per_shipper[n])
            if solution.service_choices.get((n, k)) == m
        )
        if committed < level - FEASIBILITY_TOL:
            out.append(
                f"shipper {n} service {m}: committed demand {committed:g} below "
                f"minimum level {level:g}"
            )
    return out


def check_solution(inst: "Instance", solution: Solution) -> list[str]:
    """All constraint violations of the first stage plus allocation (empty = feasible)."""
    out = first_stage_violations(inst, solution)

    # allocation structure
    usage = {i: 0.0 for i in range(inst.n_facilities)}
    for (i, j, m), w in solution.allocation.items():
        if not (0 <= i < inst.n_facilities and 0 <= j < inst.n_customers):
            out.append(f"allocation w[{i},{j},{m}] names a facility or customer "
                       "out of range")
            continue
        if not -FEASIBILITY_TOL <= w <= 1.0 + FEASIBILITY_TOL:
            out.append(f"allocation w[{i},{j},{m}] = {w:g} outside [0, 1]")
        if i not in solution.open_facilities and w > FEASIBILITY_TOL:
            out.append(f"allocation w[{i},{j},{m}] = {w:g} uses a closed facility")
        if m not in inst.services_for_customer(j):
            out.append(f"allocation w[{i},{j},{m}] uses a service not offered to "
                       f"customer {j}")
            continue
        usage[i] += inst.service_levels[m].gamma * inst.customers[j].demand * w

    for i, used in usage.items():
        cap = inst.facilities[i].capacity if i in solution.open_facilities else 0.0
        if used > cap + FEASIBILITY_TOL * max(1.0, cap):
            out.append(
                f"facility {i}: gamma-scaled load {used:g} exceeds capacity {cap:g}"
            )

    for j in range(inst.n_customers):
        cust = inst.customers[j]
        for m in inst.services_for_customer(j):
            assigned = sum(
                solution.allocation.get((i, j, m), 0.0)
                for i in range(inst.n_facilities)
            )
            target = 1.0 if solution.service_choices.get(
                (cust.shipper, cust.category)
            ) == m else 0.0
            if abs(assigned - target) > FEASIBILITY_TOL:
                out.append(
                    f"customer {j} service {m}: assigned fraction {assigned:g} "
                    f"must equal {target:g}"
                )
    return out


def profit_report(inst: "Instance", rho: RhoTable, solution: Solution
                  ) -> tuple[float, float, float]:
    """(expected revenue, expected assignment cost, fixed cost) of a solution."""
    revenue = offer_revenue(inst, rho, solution.offers)
    cost = 0.0
    for (i, j, m), w in solution.allocation.items():
        cust = inst.customers[j]
        p = solution.price_choices.get((cust.shipper, m))
        if p is None:
            continue
        cost += rho.get(cust.shipper, cust.category, m, p) * inst.costs[i, j, m] * w
    fixed = sum(inst.facilities[i].fixed_cost for i in solution.open_facilities)
    return float(revenue), float(cost), float(fixed)


def offer_revenue(inst: "Instance", rho: RhoTable, offers: dict) -> float:
    """Expected revenue of an offer map {(n, k): (m, p)}: rho * d_k * price
    summed over its offers in map order."""
    return sum(
        rho.get(n, k, m, p) * inst.category_demand(n, k) * inst.ladder(n, m).prices[p]
        for (n, k), (m, p) in offers.items()
    )


def evaluate(inst: "Instance", rho: RhoTable, solution: Solution) -> float:
    """Recompute the objective from the raw decisions, independently of any
    solver.  Raises InfeasibleSolutionError with the violation report if the
    solution does not satisfy the model."""
    violations = check_solution(inst, solution)
    if violations:
        raise InfeasibleSolutionError(violations)
    revenue, cost, fixed = profit_report(inst, rho, solution)
    return revenue - cost - fixed


def offer_summary(inst: "Instance", rho: RhoTable, solution: Solution
                  ) -> tuple[OfferLine, ...]:
    return tuple(OfferLine(n, k, m, p, inst.ladder(n, m).prices[p], rho.get(n, k, m, p))
                 for (n, k), (m, p) in sorted(solution.offers.items()))

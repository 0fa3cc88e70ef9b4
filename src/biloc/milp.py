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
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .choice import RhoTable

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

INTEGRALITY_TOL = 1e-6
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


class InfeasibleSolutionError(ValueError):
    """Raised by evaluate() when a solution violates the model constraints."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "solution violates {} constraint(s):\n{}".format(
                len(violations), "\n".join("  - " + v for v in violations)
            )
        )
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

    ``pi`` and ``nu`` are never stored; at integral points they are the exact
    products y*z and w*y and are derived on demand.
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

    def r_value(self, i: int) -> float:
        return 1.0 if i in self.open_facilities else 0.0

    def y_value(self, n: int, m: int, p: int) -> float:
        return 1.0 if self.price_choices.get((n, m)) == p else 0.0

    def z_value(self, n: int, k: int, m: int) -> float:
        return 1.0 if self.service_choices.get((n, k)) == m else 0.0

    def w_value(self, i: int, j: int, m: int) -> float:
        return self.allocation.get((i, j, m), 0.0)

    def pi_value(self, n: int, k: int, m: int, p: int) -> float:
        return self.y_value(n, m, p) * self.z_value(n, k, m)

    def nu_value(self, i: int, j: int, m: int, p: int, shipper: int) -> float:
        return self.w_value(i, j, m) * self.y_value(shipper, m, p)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "open_facilities": list(self.open_facilities),
            "price_choices": [
                {"shipper": n, "service": m, "price_index": p}
                for (n, m), p in sorted(self.price_choices.items())
            ],
            "service_choices": [
                {"shipper": n, "category": k, "service": m}
                for (n, k), m in sorted(self.service_choices.items())
            ],
            "allocation": [
                {"facility": i, "customer": j, "service": m, "fraction": w}
                for (i, j, m), w in sorted(self.allocation.items())
            ],
            "revenue": self.revenue,
            "assignment_cost": self.assignment_cost,
            "fixed_cost": self.fixed_cost,
            "offer_summary": [
                {"shipper": o.shipper, "category": o.category, "service": o.service,
                 "price_index": o.price_index, "price": o.price, "rho": o.rho}
                for o in self.offer_summary
            ],
            "nodes": self.nodes,
            "seconds": self.seconds,
            "gap": self.gap,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Solution":
        return cls(
            status=data["status"],
            objective=float(data["objective"]),
            open_facilities=tuple(int(i) for i in data["open_facilities"]),
            price_choices={
                (int(o["shipper"]), int(o["service"])): int(o["price_index"])
                for o in data["price_choices"]
            },
            service_choices={
                (int(o["shipper"]), int(o["category"])): int(o["service"])
                for o in data["service_choices"]
            },
            allocation={
                (int(o["facility"]), int(o["customer"]), int(o["service"])):
                    float(o["fraction"])
                for o in data["allocation"]
            },
            revenue=float(data.get("revenue", 0.0)),
            assignment_cost=float(data.get("assignment_cost", 0.0)),
            fixed_cost=float(data.get("fixed_cost", 0.0)),
            offer_summary=tuple(
                OfferLine(int(o["shipper"]), int(o["category"]), int(o["service"]),
                          int(o["price_index"]), float(o["price"]), float(o["rho"]))
                for o in data.get("offer_summary", [])
            ),
            nodes=int(data.get("nodes", 0)),
            seconds=float(data.get("seconds", 0.0)),
            gap=float(data.get("gap", 0.0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=1) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "Solution":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def build(inst: "Instance", rho: RhoTable) -> MilpModel:
    """Assemble the reduced single-level MILP for the instance.

    Objective: -sum f_i r_i + sum rho*d_k*q*pi - sum rho*c*nu.  Rows: at most
    one price per (shipper, service); per-shipper offer budget; one service
    per category; services need a priced ladder; capacity with gamma-scaled
    demand; allocation only to open facilities; full assignment of offered
    categories; minimum committed demand per priced service; and the eight
    product-linearization families for pi and nu.
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

    for i in range(I):
        model.add_variable(f"r_i{i}", "binary", 0.0, 1.0, ("r", i))
    for n in range(inst.n_shippers):
        for m in inst.shipper_services(n):
            for p in range(len(inst.ladder(n, m).prices)):
                model.add_variable(f"y_n{n}_m{m}_p{p}", "binary", 0.0, 1.0,
                                   ("y", n, m, p))
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            for m in inst.services_by_category[n][k]:
                model.add_variable(f"z_n{n}_k{k}_m{m}", "binary", 0.0, 1.0,
                                   ("z", n, k, m))
    for i in range(I):
        for j in range(J):
            for m in inst.services_for_customer(j):
                model.add_variable(f"w_i{i}_j{j}_m{m}", "continuous", 0.0, 1.0,
                                   ("w", i, j, m))
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            for m in inst.services_by_category[n][k]:
                for p in range(len(inst.ladder(n, m).prices)):
                    model.add_variable(f"pi_n{n}_k{k}_m{m}_p{p}", "continuous",
                                       0.0, 1.0, ("pi", n, k, m, p))
    for i in range(I):
        for j in range(J):
            n = inst.customers[j].shipper
            for m in inst.services_for_customer(j):
                for p in range(len(inst.ladder(n, m).prices)):
                    model.add_variable(f"nu_i{i}_j{j}_m{m}_p{p}", "continuous",
                                       0.0, 1.0, ("nu", i, j, m, p))

    obj: dict[int, float] = {}
    for i in range(I):
        obj[model.var_index(("r", i))] = -inst.facilities[i].fixed_cost
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            d_k = inst.category_demand(n, k)
            for m in inst.services_by_category[n][k]:
                ladder = inst.ladder(n, m)
                for p, q in enumerate(ladder.prices):
                    obj[model.var_index(("pi", n, k, m, p))] = (
                        rho.get(n, k, m, p) * d_k * q
                    )
    for i in range(I):
        for j in range(J):
            cust = inst.customers[j]
            for m in inst.services_for_customer(j):
                for p in range(len(inst.ladder(cust.shipper, m).prices)):
                    obj[model.var_index(("nu", i, j, m, p))] = (
                        -rho.get(cust.shipper, cust.category, m, p)
                        * inst.costs[i, j, m]
                    )
    model.objective = obj

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
        coeffs = {}
        for m in inst.shipper_services(n):
            for p in range(len(inst.ladder(n, m).prices)):
                coeffs[model.var_index(("y", n, m, p))] = 1.0
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
        coeffs = {}
        for j in range(J):
            d_j = inst.customers[j].demand
            for m in inst.services_for_customer(j):
                coeffs[model.var_index(("w", i, j, m))] = (
                    inst.service_levels[m].gamma * d_j
                )
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

    # pi = y*z linearization
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            for m in inst.services_by_category[n][k]:
                z_idx = model.var_index(("z", n, k, m))
                for p in range(len(inst.ladder(n, m).prices)):
                    pi_idx = model.var_index(("pi", n, k, m, p))
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

    # nu = w*y linearization
    for i in range(I):
        for j in range(J):
            n = inst.customers[j].shipper
            for m in inst.services_for_customer(j):
                w_idx = model.var_index(("w", i, j, m))
                for p in range(len(inst.ladder(n, m).prices)):
                    nu_idx = model.var_index(("nu", i, j, m, p))
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
    value = float(value) + 0.0  # plain float, -0.0 normalized
    return repr(value)


def _fmt_terms(coeffs: dict[int, float], variables: list[Variable]) -> str:
    parts: list[str] = []
    for idx, coeff in coeffs.items():
        sign = "-" if coeff < 0 else "+"
        if not parts and sign == "+":
            parts.append(f"{_fmt(abs(coeff))} {variables[idx].name}")
        else:
            parts.append(f"{sign} {_fmt(abs(coeff))} {variables[idx].name}")
    return " ".join(parts)


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

_TAG_PATTERNS = {
    "r": ("i",),
    "y": ("n", "m", "p"),
    "z": ("n", "k", "m"),
    "w": ("i", "j", "m"),
    "pi": ("n", "k", "m", "p"),
    "nu": ("i", "j", "m", "p"),
}


def _tag_from_name(name: str) -> tuple:
    parts = name.split("_")
    head = parts[0]
    fields = _TAG_PATTERNS.get(head)
    if fields is not None and len(parts) == len(fields) + 1:
        try:
            values = []
            for expected, part in zip(fields, parts[1:]):
                if not part.startswith(expected):
                    raise ValueError
                values.append(int(part[len(expected):]))
            return (head, *values)
        except ValueError:
            pass
    return ("x", name)


def _parse_terms(text: str, line_no: int) -> list[tuple[str, float]]:
    terms: list[tuple[str, float]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise LpParseError(f"line {line_no}: cannot parse term at '{text[pos:]}'")
        sign, number, name = match.groups()
        coeff = float(number) if number is not None else 1.0
        if sign == "-":
            coeff = -coeff
        terms.append((name, coeff))
        pos = match.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return terms


def parse_lp(text: str) -> MilpModel:
    """Parse the canonical LP text back into a model."""
    section = None
    objective_terms: list[tuple[str, float]] = []
    maximize = True
    rows: list[tuple[str, list[tuple[str, float]], str, float]] = []
    bounds: list[tuple[float, str, float]] = []
    binaries: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("maximize", "maximise", "max"):
            section, maximize = "objective", True
            continue
        if lowered in ("minimize", "minimise", "min"):
            section, maximize = "objective", False
            continue
        if lowered in ("subject to", "st", "s.t."):
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered in ("binaries", "binary", "bin"):
            section = "binaries"
            continue
        if lowered == "end":
            section = "end"
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
            try:
                rhs = float(rhs_text)
            except ValueError:
                raise LpParseError(
                    f"line {line_no}: right-hand side '{rhs_text.strip()}' is not a number"
                ) from None
            rows.append((name.strip(), _parse_terms(lhs, line_no), sense, rhs))
        elif section == "bounds":
            match = re.fullmatch(
                r"(\S+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*(\S+)", line
            )
            if match is None:
                raise LpParseError(f"line {line_no}: cannot parse bound '{line}'")
            bounds.append((float(match.group(1)), match.group(2), float(match.group(3))))
        elif section == "binaries":
            binaries.extend(_NAME_RE.findall(line))
        elif section is None:
            raise LpParseError(f"line {line_no}: content before any section header")

    model = MilpModel(maximize=maximize)
    for name in binaries:
        model.add_variable(name, "binary", 0.0, 1.0, _tag_from_name(name))
    for lb, name, ub in bounds:
        model.add_variable(name, "continuous", lb, ub, _tag_from_name(name))

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

def best_offer_values(inst: "Instance", rho: RhoTable) -> dict:
    """Per category: the best capacity-blind offer value and its (m, p).

    The value of offer (m, p) is rho * (d_k * q - cheapest way to serve every
    customer of the category at service m, each from its individually cheapest
    facility).  Returns {(n, k): (value, m, p)} with value possibly <= 0.
    """
    out: dict[tuple[int, int], tuple[float, int, int]] = {}
    min_cost = inst.costs.min(axis=0)  # (J, M)
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            d_k = inst.category_demand(n, k)
            members = inst.customers_by_category[(n, k)]
            best = None
            for m in inst.services_by_category[n][k]:
                serve_cost = float(sum(min_cost[j, m] for j in members))
                ladder = inst.ladder(n, m)
                for p, q in enumerate(ladder.prices):
                    value = rho.get(n, k, m, p) * (d_k * q - serve_cost)
                    if best is None or value > best[0]:
                        best = (value, m, p)
            if best is not None:
                out[(n, k)] = best
    return out


def profit_upper_bound(inst: "Instance", rho: RhoTable) -> float:
    """Capacity-blind bound on the optimum over solutions that open something.

    Sums each category's best nonnegative offer value and subtracts the
    cheapest fixed cost.  A bound at or below TRIVIAL_THRESHOLD certifies the
    instance trivial (optimum exactly 0) without any search; a positive bound
    certifies nothing, since it ignores capacity and minimum-demand gates.
    """
    best = best_offer_values(inst, rho)
    total = sum(max(0.0, value) for value, _, _ in best.values())
    return total - min(f.fixed_cost for f in inst.facilities)


def certifies_trivial(bound: float) -> bool:
    return bound <= TRIVIAL_THRESHOLD


def upper_bound_offer_pattern(inst: "Instance", rho: RhoTable) -> dict:
    """Offer pattern behind the bound: {(n, k): (m, p)} for positive-value
    categories.  Used to warm-start the search incumbent."""
    return {
        key: (m, p)
        for key, (value, m, p) in best_offer_values(inst, rho).items()
        if value > 0.0
    }


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
    revenue = 0.0
    for (n, k), m in solution.service_choices.items():
        p = solution.price_choices.get((n, m))
        if p is None:
            continue
        revenue += (rho.get(n, k, m, p) * inst.category_demand(n, k)
                    * inst.ladder(n, m).prices[p])
    cost = 0.0
    for (i, j, m), w in solution.allocation.items():
        cust = inst.customers[j]
        p = solution.price_choices.get((cust.shipper, m))
        if p is None:
            continue
        cost += rho.get(cust.shipper, cust.category, m, p) * inst.costs[i, j, m] * w
    fixed = sum(inst.facilities[i].fixed_cost for i in solution.open_facilities)
    return float(revenue), float(cost), float(fixed)


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
    lines = []
    for (n, k), m in sorted(solution.service_choices.items()):
        p = solution.price_choices.get((n, m))
        if p is None:
            continue
        lines.append(OfferLine(n, k, m, p, inst.ladder(n, m).prices[p],
                               rho.get(n, k, m, p)))
    return tuple(lines)

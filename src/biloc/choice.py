"""Random-utility demand layer.

Shipper-category pairs compare an offered (service level, price) against a
single aggregated outside option.  Utilities are linear in price with additive
extreme-value noise of scale ``beta``, so the probability that an offer beats
the outside option has the binary-logit closed form; the same probability can
be estimated by sample averaging over simulated noise draws.  Both routes are
provided, together with the follower accept rule and the helpers used to place
price-sensitivity grids for experiments.  The follower's per-scenario
decision is stated once, in ``acceptance_chunks``: it draws the noise streams
and applies ``accept_rule``, and both the sample-average table and the
scenario replay (``oracle.simulate``) read its chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .instance import Instance

#: Sentinel for the outside option in service-level arguments.
OPT_OUT = None

# Uniform draws are clipped away from 0 before the double-log transform so a
# (probability 2^-53) exact zero cannot produce an infinite noise value.
_UNIFORM_FLOOR = 1e-300

#: Draws per chunk of every noise stream; being drawn in sequence, no value depends on it.
SCENARIO_CHUNK = 1 << 14


@dataclass(frozen=True)
class ChoiceModel:
    """Utility specification shared by all demand computations.

    ``service_preference[n][k][m]`` is the deterministic taste for service
    level ``m`` of category ``k`` of shipper ``n``; ``optout_preference[n][k]``
    is the outside option's full deterministic utility (it carries no price).
    ``alpha`` converts price into utility (non-positive for price-averse
    shippers) and ``beta`` scales the additive Gumbel noise.  ``beta`` must be
    positive even in ``deterministic`` mode; the degenerate zero-noise limit is
    expressed through the flag, never through ``beta == 0``.
    """

    alpha: float
    beta: float
    service_preference: tuple[tuple[tuple[float, ...], ...], ...]
    optout_preference: tuple[tuple[float, ...], ...]
    deterministic: bool = False

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(
                f"beta must be > 0 (got {self.beta}); use deterministic=True "
                "for the zero-noise limit"
            )

    @classmethod
    def uniform_spec(
        cls,
        n_shippers: int,
        categories_per_shipper: tuple[int, ...] | list[int],
        n_services: int,
        alpha: float = -0.1,
        beta: float = 1.0,
        service_preference: float = 4.5,
        optout_utility: float = 3.0,
        deterministic: bool = False,
    ) -> "ChoiceModel":
        """One shared taste value for every (shipper, category, service)."""
        pref = tuple(
            tuple(tuple(service_preference for _ in range(n_services)) for _ in range(kn))
            for kn in categories_per_shipper[:n_shippers]
        )
        opt = tuple(
            tuple(optout_utility for _ in range(kn))
            for kn in categories_per_shipper[:n_shippers]
        )
        return cls(alpha, beta, pref, opt, deterministic)

    def preference(self, n: int, k: int, m: int) -> float:
        return self.service_preference[n][k][m]

    def optout(self, n: int, k: int) -> float:
        return self.optout_preference[n][k]

    def with_alpha(self, alpha: float) -> "ChoiceModel":
        return replace(self, alpha=alpha)

    def with_beta(self, beta: float) -> "ChoiceModel":
        return replace(self, beta=beta)

    def with_deterministic(self, flag: bool) -> "ChoiceModel":
        return replace(self, deterministic=flag)


def offer_utility(alpha: float, price: float, preference: float) -> float:
    """Deterministic utility of an offered (service, price): alpha*q + L."""
    return alpha * price + preference


def acceptance_probability(
    v_offer: float, v_optout: float, beta: float, deterministic: bool = False
) -> float:
    """P(offer utility + noise beats the outside option).

    The difference of two independent Gumbel(0, beta) draws is logistic with
    scale beta, so the probability is the logistic sigmoid of
    (v_offer - v_optout)/beta.  In deterministic mode the noise vanishes and
    the probability degenerates to the strict-comparison indicator.
    """
    if deterministic:
        return 1.0 if v_offer > v_optout else 0.0
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0 (got {beta})")
    t = (v_offer - v_optout) / beta
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def accept_rule(u_offer: float, u_optout: float) -> bool:
    """Follower decision on realized utilities: accept iff strictly better.
    Works elementwise on arrays of utilities, one entry per scenario.

    Exact ties are rejected.  Under continuous noise a tie has probability
    zero, but floats can produce one, so the rule must be deterministic; the
    reject side is the conservative choice for the provider.  With gradual
    underflow this is exactly the sign of ``u_offer - u_optout``."""
    return u_offer > u_optout


def deterministic_utility(
    inst: "Instance", n: int, k: int, m: int | None, p: int | None = None
) -> float:
    """Deterministic utility of offer (m, p) to category k of shipper n.

    ``m=OPT_OUT`` (None) returns the outside option's utility; ``p`` is the
    position in the price ladder of (n, m).
    """
    model = inst.choice_model
    if m is OPT_OUT:
        return model.optout(n, k)
    if m not in inst.services_by_category[n][k]:
        raise IndexError(f"service {m} is not offered to shipper {n} category {k}")
    ladder = inst.ladder(n, m)
    if p is None or not 0 <= p < len(ladder.prices):
        raise IndexError(f"price position {p} not in ladder of shipper {n} service {m}")
    return offer_utility(model.alpha, ladder.prices[p], model.preference(n, k, m))


def rho_closed_form(inst: "Instance", n: int, k: int, m: int, p: int) -> float:
    """Closed-form acceptance probability for offer (m, p) to (n, k)."""
    model = inst.choice_model
    v = deterministic_utility(inst, n, k, m, p)
    v0 = model.optout(n, k)
    return acceptance_probability(v, v0, model.beta, model.deterministic)


@dataclass(frozen=True)
class ScenarioSet:
    """Handle for a reproducible family of noise draws.

    Draws are never stored: each (shipper, category, alternative) owns a
    counter-based Philox stream keyed by ``(seed, n, k, stream)``, so the
    draw for scenario ``s`` is addressable by position without materializing
    the others.  Streams yield Gumbel(0, beta) values via the inverse CDF
    ``-beta*log(-log(U))``; in deterministic mode every draw is zero.
    """

    count: int
    seed: int
    beta: float
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"scenario count must be positive (got {self.count})")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits (got {self.seed})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (got {self.beta})")

    @classmethod
    def for_model(cls, model: ChoiceModel, count: int, seed: int) -> "ScenarioSet":
        return cls(count=count, seed=seed, beta=model.beta,
                   deterministic=model.deterministic)

    def require_match(self, model: ChoiceModel) -> None:
        if (self.beta, self.deterministic) != (model.beta, model.deterministic):
            raise ValueError(
                "scenario set was drawn with (beta={}, deterministic={}) but the "
                "model has (beta={}, deterministic={})".format(
                    self.beta, self.deterministic, model.beta, model.deterministic
                )
            )

    def _stream(self, n: int, k: int, m: int | None) -> np.random.Generator:
        # Philox keys are 2x64 bits: the seed, and the stream coordinates
        # packed into disjoint 20-bit fields
        stream = 0 if m is OPT_OUT else int(m) + 1
        packed = (int(n) << 40) | (int(k) << 20) | stream
        key = np.array([self.seed, packed], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def epsilon_chunks(self, n: int, k: int, m: int | None) -> Iterator[np.ndarray]:
        """Yield the noise draws for (n, k, m) in scenario order, each chunk of
        ``SCENARIO_CHUNK`` a fresh array that the caller may overwrite.  A
        paused stream holds no chunk, so many streams may be open at once."""
        gen = None if self.deterministic else self._stream(n, k, m)
        for start in range(0, self.count, SCENARIO_CHUNK):
            take = min(SCENARIO_CHUNK, self.count - start)
            yield np.zeros(take) if gen is None else self._gumbel(gen.random(take))

    def _gumbel(self, u: np.ndarray) -> np.ndarray:
        """Uniform draws turned into Gumbel(0, beta) draws in place."""
        np.clip(u, _UNIFORM_FLOOR, None, out=u)
        np.log(np.negative(np.log(u, out=u), out=u), out=u)
        u *= -self.beta
        return u

    def epsilon(self, n: int, k: int, m: int | None) -> np.ndarray:
        """All draws for (n, k, m) as one array (small scenario sets only)."""
        return np.concatenate(list(self.epsilon_chunks(n, k, m)))


def acceptance_chunks(inst: "Instance", scenarios: ScenarioSet,
                      offers: list[tuple[int, int, int, int]]) -> Iterator[np.ndarray]:
    """Yield, one chunk of scenarios at a time, the (offers x scenarios) bool
    array of which listed offers (n, k, m, p) their category accepts.

    Offers are grouped by category and then by service, so each
    (n, k, alternative) stream is drawn once however many offers share it,
    and the outside option's utility is added to each of its chunks once."""
    scenarios.require_match(inst.choice_model)
    categories: dict = {}
    for row, (n, k, m, p) in enumerate(offers):
        categories.setdefault((n, k), {}).setdefault(m, []).append(
            (row, deterministic_utility(inst, n, k, m, p)))
    plan = [(deterministic_utility(inst, n, k, OPT_OUT),
             scenarios.epsilon_chunks(n, k, OPT_OUT),
             [(scenarios.epsilon_chunks(n, k, m), rows) for m, rows in services.items()])
            for (n, k), services in categories.items()]
    for start in range(0, scenarios.count, SCENARIO_CHUNK):
        accept = np.empty((len(offers), min(SCENARIO_CHUNK, scenarios.count - start)),
                          dtype=bool)
        for v0, optout_stream, services in plan:
            u0 = next(optout_stream)
            u0 += v0
            u = np.empty_like(u0)
            for stream, rows in services:
                eps_m = next(stream)
                for row, v in rows:
                    np.add(eps_m, v, out=u)
                    accept[row] = accept_rule(u, u0)
        yield accept


def rho_saa(
    inst: "Instance", n: int, k: int, m: int, p: int, scenarios: ScenarioSet
) -> float:
    """Sample-average estimate of the acceptance probability.

    Counts the scenarios whose realized offer utility strictly beats the
    realized outside option, over draws shared with every other alternative of
    the same (n, k).  Converges to the closed form as the count grows.
    """
    hits = sum(int(np.count_nonzero(accept[0]))
               for accept in acceptance_chunks(inst, scenarios, [(n, k, m, p)]))
    return hits / scenarios.count


def alpha_for_target_rho(
    target_rho: float,
    price: float,
    preference: float,
    optout_utility: float,
    beta: float = 1.0,
) -> float:
    """Price sensitivity that makes the closed-form probability hit a target.

    Inverts the logistic: with v = alpha*price + preference we need
    (optout - v)/beta = log(1/rho - 1), hence
    alpha = (optout - preference - beta*log(1/rho - 1)) / price.
    """
    if not 0.0 < target_rho < 1.0:
        raise ValueError(f"target probability must lie in (0, 1), got {target_rho}")
    if price == 0.0:
        raise ValueError("price must be nonzero")
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0 (got {beta})")
    return (optout_utility - preference - beta * math.log(1.0 / target_rho - 1.0)) / price


def alpha_sweep_values(alpha_first: float, count: int = 11) -> list[float]:
    """Arithmetic grid from the most price-sensitive value up to 0 inclusive."""
    if count < 2:
        raise ValueError(f"need at least 2 grid points (got {count})")
    if not alpha_first < 0.0:
        raise ValueError(f"the sweep starts from a negative value (got {alpha_first})")
    return [float(a) for a in np.linspace(alpha_first, 0.0, count)]


@dataclass(frozen=True)
class RhoTable:
    """Acceptance probability for every offerable (n, k, m, p).

    Keys are (shipper, category, service, price position); every service
    available to the category and every ladder position must be present.
    """

    values: dict[tuple[int, int, int, int], float]

    def get(self, n: int, k: int, m: int, p: int) -> float:
        return self.values[(n, k, m, p)]

    def __contains__(self, key: tuple[int, int, int, int]) -> bool:
        return key in self.values

    def items(self):
        return self.values.items()

    @classmethod
    def closed_form(cls, inst: "Instance") -> "RhoTable":
        """``rho_closed_form`` for every key."""
        return cls({key: rho_closed_form(inst, *key) for key in inst.offer_keys()})

    @classmethod
    def saa(cls, inst: "Instance", scenarios: ScenarioSet) -> "RhoTable":
        """``rho_saa`` for every key, drawing each noise stream once."""
        keys = list(inst.offer_keys())
        hits = np.zeros(len(keys), dtype=np.int64)
        for accept in acceptance_chunks(inst, scenarios, keys):
            hits += np.count_nonzero(accept, axis=1)
        return cls({key: count / scenarios.count for key, count in zip(keys, hits.tolist())})

    @classmethod
    def constant(cls, inst: "Instance", value: float) -> "RhoTable":
        """Same probability everywhere; 1.0 gives the perfect-information case,
        0.5 the no-information (uniform) case."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {value}")
        return cls({key: value for key in inst.offer_keys()})

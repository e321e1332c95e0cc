"""The distribution-level acceptance LP and its dual side.

One solve answers: which fractions of the submitted bids and offers can the
feeder carry, at minimum stated cost, subject to the linearized flow
equations, voltage box, and polygonal apparent-power limits?  The duals of
the balance rows are nodal prices per phase; from them each DER gets a
qualification price, the cutoff at which it would just have been accepted.

Variable layout is [alpha (one per DER), P (3N line flows), Q (3N)].
Equality rows are the per-phase balances written as C'P - p_der = p_fixed
(then the same for reactive), optionally followed by one zero-net-volume
coupling row.  Inequality rows are stacked as voltage upper, voltage lower,
then E blocks of line-polygon rows, then E blocks of head-polygon rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._lp import solve_lp
from .ders import Der, DerPopulation, gamma_price
from .errors import DomainError, SchemaError, ShapeError, StateError, require_int, require_real
from .network import (
    Network,
    NetworkMatrices,
    build_matrices,
    head_injection,
    lindistflow_voltages,
    phase_rows,
    voltage_rows,
)


def polygon_coefficients(edges: int):
    """Half-plane coefficients of the inscribed regular polygon.

    Edge e (e = 1..edges) is beta_e p + delta_e q + gamma_e s <= 0 with
    beta_e = cos(2 pi e / E), delta_e = sin(2 pi e / E), gamma_e =
    -cos(pi / E).  The feasible set is the regular E-gon inscribed in the
    disc of radius s: apothem s cos(pi/E), vertices on the disc itself.
    """
    if edges < 3:
        raise DomainError(f"a polygon needs at least 3 edges, got {edges}")
    e = np.arange(1, edges + 1)
    beta = np.cos(2.0 * np.pi * e / edges)
    delta = np.sin(2.0 * np.pi * e / edges)
    gamma = np.full(edges, -np.cos(np.pi / edges))
    return beta, delta, gamma


@dataclass(frozen=True)
class TdopfParams:
    """Market-side constants of one acceptance solve.

    m_cents_per_kwh is the IDSO's network charge per kWh moved through the
    head; big_m_cents is the acceptance subsidy that makes grid-feasible
    offers preferred regardless of stated price.  polygon_coeffs can
    override the regular-polygon coefficients with custom (beta, delta,
    gamma) triples of equal length.
    """

    m_cents_per_kwh: float = 2.5
    delta_t_hours: float = 1.0
    big_m_cents: float = 1000.0
    polygon_edges: int = 12
    polygon_coeffs: tuple | None = None

    def __post_init__(self):
        require_real("market.m_cents_per_kwh", self.m_cents_per_kwh)
        require_real("market.delta_t_hours", self.delta_t_hours, positive=True)
        require_real("market.big_m_cents", self.big_m_cents)
        require_int("market.polygon_edges", self.polygon_edges, 3)

    def polygon(self):
        if self.polygon_coeffs is not None:
            beta, delta, gamma = (np.asarray(a, dtype=float) for a in self.polygon_coeffs)
            if not len(beta) == len(delta) == len(gamma):
                raise ShapeError("polygon coefficient arrays must have equal length")
            return beta, delta, gamma
        return polygon_coefficients(self.polygon_edges)


@dataclass
class TdopfProblem:
    """An assembled LP, kept with enough structure to read its duals back."""

    network: Network
    matrices: NetworkMatrices
    population: DerPopulation
    params: TdopfParams
    clamp: dict
    zero_net_volume: tuple
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: list
    beta: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    gp: np.ndarray
    gq: np.ndarray

    @property
    def n_der(self) -> int:
        return self.population.n

    @property
    def n3(self) -> int:
        return 3 * self.network.n

    @property
    def edges(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class TdopfSolution:
    """Primal and dual outcome of one acceptance solve.

    Multipliers carry the sign convention of the optimality identities:
    lambda_p / lambda_q are the balance-row prices (cents per unit power per
    interval), the mu families are nonnegative, alpha_lo / alpha_up are the
    acceptance-bound multipliers, and z_p / z_q are the bound duals of
    pinned absent-phase flow entries (zero elsewhere).
    """

    status: str
    alpha: dict | None = None
    p_flow: np.ndarray | None = None
    q_flow: np.ndarray | None = None
    v: np.ndarray | None = None
    p0: np.ndarray | None = None
    q0: np.ndarray | None = None
    lambda_p: np.ndarray | None = None
    lambda_q: np.ndarray | None = None
    lambda_net_volume: float = 0.0
    mu_v_upper: np.ndarray | None = None
    mu_v_lower: np.ndarray | None = None
    mu_line: np.ndarray | None = None
    mu_sub: np.ndarray | None = None
    alpha_lo: np.ndarray | None = None
    alpha_up: np.ndarray | None = None
    z_p: np.ndarray | None = None
    z_q: np.ndarray | None = None
    objective_cents: float | None = None
    infeasibility_hint: tuple = ()
    message: str = ""


def assemble(network: Network, population: DerPopulation, params: TdopfParams,
             clamp: dict | None = None, zero_net_volume: tuple = ()) -> TdopfProblem:
    """Build the acceptance LP for one interval.

    Parameters
    ----------
    clamp : dict, optional
        DER id -> fixed acceptance fraction; realized as a fixed bound.
    zero_net_volume : tuple of str, optional
        DER ids whose signed accepted volumes must sum to zero (one extra
        equality row in kW).
    """
    clamp = dict(clamp or {})
    matrices = build_matrices(network)
    n = population.n
    n3 = 3 * network.n
    columns = population.column_of
    for der_id, value in clamp.items():
        if der_id not in columns:
            raise SchemaError(f"clamp references unknown DER {der_id!r}")
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"clamp for {der_id!r} outside [0, 1]: {value}")
    for der_id in zero_net_volume:
        if der_id not in columns:
            raise SchemaError(f"volume coupling references unknown DER {der_id!r}")

    gp = population.scatter_p()
    gq = population.scatter_q()
    p_f, q_f = network.fixed_injections()
    beta, delta, gamma = params.polygon()
    edges = len(beta)

    n_var = n + 2 * n3
    sl_a = slice(0, n)
    sl_p = slice(n, n + n3)
    sl_q = slice(n + n3, n_var)

    n_eq = 2 * n3 + (1 if zero_net_volume else 0)
    a_eq = np.zeros((n_eq, n_var))
    b_eq = np.zeros(n_eq)
    a_eq[0:n3, sl_a] = -gp
    a_eq[0:n3, sl_p] = matrices.c.T
    b_eq[0:n3] = p_f
    a_eq[n3:2 * n3, sl_a] = -gq
    a_eq[n3:2 * n3, sl_q] = matrices.c.T
    b_eq[n3:2 * n3] = q_f
    if zero_net_volume:
        for der_id in zero_net_volume:
            j = columns[der_id]
            a_eq[-1, j] = population.ders[j].volume_kw

    mv_p = 2.0 * matrices.c_inv @ matrices.d_r
    mv_q = 2.0 * matrices.c_inv @ matrices.d_x
    s_line = np.concatenate([line.s_max for line in network.lines])

    n_ub = 2 * n3 + edges * n3 + edges * 3
    a_ub = np.zeros((n_ub, n_var))
    b_ub = np.zeros(n_ub)
    a_ub[0:n3, sl_p] = mv_p
    a_ub[0:n3, sl_q] = mv_q
    b_ub[0:n3] = network.v_max - network.v0
    a_ub[n3:2 * n3, sl_p] = -mv_p
    a_ub[n3:2 * n3, sl_q] = -mv_q
    b_ub[n3:2 * n3] = network.v0 - network.v_min
    eye = np.eye(n3)
    for e in range(edges):
        rows = slice(2 * n3 + e * n3, 2 * n3 + (e + 1) * n3)
        a_ub[rows, sl_p] = beta[e] * eye
        a_ub[rows, sl_q] = delta[e] * eye
        b_ub[rows] = -gamma[e] * s_line
    base = 2 * n3 + edges * n3
    for e in range(edges):
        rows = slice(base + 3 * e, base + 3 * (e + 1))
        a_ub[rows, sl_p] = beta[e] * matrices.c0.T
        a_ub[rows, sl_q] = delta[e] * matrices.c0.T
        b_ub[rows] = -gamma[e] * network.s0_max

    scale = network.s_base_kva * params.delta_t_hours
    c = np.zeros(n_var)
    for j, der in enumerate(population.ders):
        c[j] = gamma_price(der, params.big_m_cents) * der.volume_kw * params.delta_t_hours
    c[sl_p] = params.m_cents_per_kwh * scale * (matrices.c0 @ np.ones(3))

    bounds = []
    for der in population.ders:
        if der.id in clamp:
            v = float(clamp[der.id])
            bounds.append((v, v))
        else:
            bounds.append((0.0, 1.0))
    # flows on phases a line does not carry are pinned at zero
    flow_bounds = [(0.0, 0.0)] * n3
    for _, _, row in network.line_rows():
        flow_bounds[row] = (None, None)
    bounds += flow_bounds * 2

    return TdopfProblem(
        network=network, matrices=matrices, population=population, params=params,
        clamp=clamp, zero_net_volume=tuple(zero_net_volume),
        c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds,
        beta=beta, delta=delta, gamma=gamma, gp=gp, gq=gq,
    )


_ROW_FAMILIES = ("voltage_box", "line_polygon", "substation_polygon")


def _family_rows(problem: TdopfProblem, family: str) -> slice:
    n3, edges = problem.n3, problem.edges
    if family == "voltage_box":
        return slice(0, 2 * n3)
    if family == "line_polygon":
        return slice(2 * n3, 2 * n3 + edges * n3)
    return slice(2 * n3 + edges * n3, 2 * n3 + edges * n3 + 3 * edges)


def _diagnose_infeasibility(problem: TdopfProblem) -> tuple:
    """Smallest set of row families whose removal restores feasibility.

    Tries single families first, then pairs, then all three; if even the
    bare balance system cannot hold, says so.
    """
    keep_all = np.ones(problem.a_ub.shape[0], dtype=bool)
    for size in (1, 2, 3):
        for combo in combinations(_ROW_FAMILIES, size):
            keep = keep_all.copy()
            for family in combo:
                keep[_family_rows(problem, family)] = False
            res = solve_lp(problem.c, problem.a_ub[keep], problem.b_ub[keep],
                           problem.a_eq, problem.b_eq, problem.bounds)
            if res.status == "optimal":
                return combo
    return ("balance_rows",)


def solve(problem: TdopfProblem) -> TdopfSolution:
    """Solve the assembled LP and unpack primal values and signed duals."""
    res = solve_lp(problem.c, problem.a_ub, problem.b_ub,
                   problem.a_eq, problem.b_eq, problem.bounds)
    if res.status != "optimal":
        hint = _diagnose_infeasibility(problem) if res.status == "infeasible" else ()
        return TdopfSolution(status=res.status, infeasibility_hint=hint,
                             message=res.message)

    n, n3, edges = problem.n_der, problem.n3, problem.edges
    x = res.x
    alpha = {der.id: float(x[j]) for j, der in enumerate(problem.population.ders)}
    p_flow = x[n:n + n3]
    q_flow = x[n + n3:n + 2 * n3]
    v = lindistflow_voltages(problem.matrices, problem.network.v0, p_flow, q_flow)
    p0, q0 = head_injection(problem.matrices, p_flow, q_flow)

    lam = res.eq_marginals
    mu = -res.ub_marginals  # nonnegative in the identity convention
    mu_line = mu[2 * n3:2 * n3 + edges * n3].reshape(edges, n3)
    mu_sub = mu[2 * n3 + edges * n3:].reshape(edges, 3)
    lower = res.lower_marginals
    upper = res.upper_marginals

    return TdopfSolution(
        status="optimal",
        alpha=alpha,
        p_flow=p_flow, q_flow=q_flow, v=v, p0=p0, q0=q0,
        lambda_p=lam[0:n3], lambda_q=lam[n3:2 * n3],
        lambda_net_volume=float(lam[-1]) if problem.zero_net_volume else 0.0,
        mu_v_upper=mu[0:n3], mu_v_lower=mu[n3:2 * n3],
        mu_line=mu_line, mu_sub=mu_sub,
        alpha_lo=lower[0:n], alpha_up=-upper[0:n],
        z_p=lower[n:n + n3] + upper[n:n + n3],
        z_q=lower[n + n3:n + 2 * n3] + upper[n + n3:n + 2 * n3],
        objective_cents=res.fun,
        message=res.message,
    )


def kkt_residuals(problem: TdopfProblem, solution: TdopfSolution) -> dict:
    """Scaled residuals of the optimality conditions of a solved problem.

    Returns a dict of sup-norm residuals, each divided by the largest
    magnitude among the terms entering its identity (floored at 1):
    primal feasibility, the three stationarity identities (flow-real,
    flow-reactive, acceptance), complementary slackness, and dual signs.
    Raises StateError unless the solution is optimal.
    """
    if solution.status != "optimal":
        raise StateError("optimality conditions need an optimal solution")
    net, m = problem.network, problem.matrices
    params = problem.params
    n, n3, edges = problem.n_der, problem.n3, problem.edges
    x = np.concatenate([
        [solution.alpha[d.id] for d in problem.population.ders],
        solution.p_flow, solution.q_flow,
    ])

    out = {}
    r_eq = problem.a_eq @ x - problem.b_eq
    out["primal_eq"] = np.max(np.abs(r_eq)) / max(1.0, np.max(np.abs(problem.b_eq)))
    slack = problem.b_ub - problem.a_ub @ x
    out["primal_ineq"] = max(0.0, float(np.max(-slack))) / max(1.0, np.max(np.abs(problem.b_ub)))

    scale_kwh = net.s_base_kva * params.delta_t_hours
    grad_p = params.m_cents_per_kwh * scale_kwh * (m.c0 @ np.ones(3))
    dmu_v = solution.mu_v_upper - solution.mu_v_lower
    volt_p = 2.0 * m.d_r.T @ (m.c_inv.T @ dmu_v)
    volt_q = 2.0 * m.d_x.T @ (m.c_inv.T @ dmu_v)
    line_p = problem.beta @ solution.mu_line
    line_q = problem.delta @ solution.mu_line
    sub_p = m.c0 @ (problem.beta @ solution.mu_sub)
    sub_q = m.c0 @ (problem.delta @ solution.mu_sub)

    lhs_p = m.c @ solution.lambda_p
    rhs_p = grad_p + volt_p + line_p + sub_p - solution.z_p
    scale_p = max(1.0, *(np.max(np.abs(t)) for t in
                         (lhs_p, grad_p, volt_p, line_p, sub_p, solution.z_p)))
    out["stationarity_p"] = np.max(np.abs(lhs_p - rhs_p)) / scale_p

    lhs_q = m.c @ solution.lambda_q
    rhs_q = volt_q + line_q + sub_q - solution.z_q
    scale_q = max(1.0, *(np.max(np.abs(t)) for t in
                         (lhs_q, volt_q, line_q, sub_q, solution.z_q)))
    out["stationarity_q"] = np.max(np.abs(lhs_q - rhs_q)) / scale_q

    if n:
        c_alpha = problem.c[:n]
        vols = np.array([d.volume_kw for d in problem.population.ders])
        znv = np.zeros(n)
        if problem.zero_net_volume:
            for der_id in problem.zero_net_volume:
                j = problem.population.column_of[der_id]
                znv[j] = vols[j] * solution.lambda_net_volume
        r_alpha = (c_alpha + problem.gp.T @ solution.lambda_p
                   + problem.gq.T @ solution.lambda_q - znv
                   + solution.alpha_up - solution.alpha_lo)
        scale_a = max(1.0, np.max(np.abs(c_alpha)),
                      np.max(np.abs(solution.alpha_up)), np.max(np.abs(solution.alpha_lo)))
        out["stationarity_alpha"] = np.max(np.abs(r_alpha)) / scale_a
    else:
        out["stationarity_alpha"] = 0.0

    mu = np.concatenate([solution.mu_v_upper, solution.mu_v_lower,
                         solution.mu_line.ravel(), solution.mu_sub.ravel()])
    mu_scale = max(1.0, np.max(mu, initial=0.0))
    out["comp_slack_rows"] = np.max(np.abs(mu * slack), initial=0.0) / mu_scale
    if n:
        alphas = x[:n]
        free = np.array([d.id not in problem.clamp for d in problem.population.ders])
        prod_lo = np.abs(solution.alpha_lo[free] * alphas[free])
        prod_up = np.abs(solution.alpha_up[free] * (1.0 - alphas[free]))
        bscale = max(1.0, np.max(solution.alpha_lo, initial=0.0),
                     np.max(solution.alpha_up, initial=0.0))
        out["comp_slack_alpha"] = max(np.max(prod_lo, initial=0.0),
                                      np.max(prod_up, initial=0.0)) / bscale
    else:
        out["comp_slack_alpha"] = 0.0
    out["dual_sign"] = max(0.0, float(-np.min(mu, initial=0.0))) / mu_scale
    return {k: float(v) for k, v in out.items()}


def qualification_price(der: Der, lambda_p, lambda_q, big_m: float,
                        s_base_kva: float, delta_t_hours: float) -> float:
    """Cutoff price of one DER from the balance-row duals of a solve.

    The value answers: at what stated price would this DER have been on the
    margin?  Bids with stated price above their cutoff were accepted; for
    offers the acceptance subsidy big_m / volume is added back, and offers
    priced below the cutoff were accepted.
    """
    lambda_p = np.asarray(lambda_p, dtype=float)
    lambda_q = np.asarray(lambda_q, dtype=float)
    rows = [row for _, row in phase_rows(der.bus - 1, der.phases)]
    if lambda_p.ndim != 1 or lambda_p.shape != lambda_q.shape or max(rows) >= len(lambda_p):
        raise ShapeError("dual vectors do not cover the DER's bus rows")
    total = sum(-lambda_p[r] - der.eta * lambda_q[r] for r in rows)
    price = total / (len(der.phases) * s_base_kva * delta_t_hours)
    if der.side == "offer":
        price += big_m / der.volume_kw
    return float(price)


def solution_document(solution: TdopfSolution, network: Network,
                      population: DerPopulation) -> dict:
    """Serializable record of one solve: acceptances, network state, duals."""
    doc = {"schema": "gridclear-solution/1", "status": solution.status,
           "objective_cents": solution.objective_cents}
    if solution.status != "optimal":
        doc["infeasibility_hint"] = list(solution.infeasibility_hint)
        doc["alpha"] = None
        return doc
    doc["alpha"] = {d.id: solution.alpha[d.id] for d in population.ders}

    def bus_values(vec):
        return [{"bus": bus.label, "phase": ph, "value": float(vec[row])}
                for bus, ph, row in network.bus_rows()]

    doc["voltages"] = voltage_rows(network, solution.v)
    doc["flows"] = [{
        "from": network.label_of(line.from_bus),
        "to": network.label_of(line.to_bus),
        "phase": ph,
        "p_kw": float(solution.p_flow[row] * network.s_base_kva),
        "q_kvar": float(solution.q_flow[row] * network.s_base_kva),
    } for line, ph, row in network.line_rows()]
    doc["head"] = {
        "p_kw": [float(v * network.s_base_kva) for v in solution.p0],
        "q_kvar": [float(v * network.s_base_kva) for v in solution.q0],
    }
    doc["duals"] = {"lambda_p": bus_values(solution.lambda_p),
                    "lambda_q": bus_values(solution.lambda_q)}
    return doc

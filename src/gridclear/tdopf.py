"""The distribution-level acceptance LP and its dual side.

One solve answers: which fractions of the submitted bids and offers can the
feeder carry, at minimum stated cost, subject to the linearized flow
equations, voltage box, and polygonal apparent-power limits?  The duals of
the balance rows are nodal prices per phase; from them each DER gets a
qualification price, the cutoff at which it would just have been accepted.

The LP is built over carried phases only, the rows of the 3N layout that
`Network.carried_rows` lists: a flow on a phase no line carries, and a
balance or voltage on a phase no bus carries, has no column or row.  Such
a balance row would be empty, and such a voltage row a copy of an
ancestor's, since impedances are zero on absent phases.  On the bundled
123-bus feeder with 55 DERs this takes a joint LP from 5940 x 793 to
4132 x 567.  `solve` writes flows and duals back into the 3N layout, zero
on the rows left out, so `TdopfSolution` and everything read from it keep
their shape.

The LP's blocks are named where `assemble` stacks them, and nowhere else.
Columns are `alpha` (one per DER), `p` and `q` (one flow per carried line
phase each), kept as slices in `TdopfProblem.cols`.  Inequality rows are
the families `voltage_box` (upper, then lower, one row per carried bus
phase each), `line_polygon` (E blocks, one row per carried line phase) and
`substation_polygon` (E blocks of 3), kept as slices in
`TdopfProblem.ub_rows`.  Equality rows are the balances of the carried
bus phases written as C'P - p_der = p_fixed (then the same for reactive),
optionally followed by one zero-net-volume coupling row.  `solve` reads
both tables to unpack a solution, the infeasibility probes to drop a row
family, and `kkt_residuals` to gather a solution back onto the LP's
columns and rows.  The check then reads the LP itself (costs, matrices,
right-hand sides and bounds), so the feeder physics lives in `assemble`
alone and any LP built here, with whatever bounds, is checked as solved.

Both constraint matrices are assembled as canonical CSR (sorted indices,
no stored zeros), block by block from the feeder's cached matrices, and
go to the solver as they are.  A canonical CSR is exactly what
`scipy.sparse.csr_array` makes of the same matrix written out dense, so
the model the solver sees does not depend on how it was assembled.

An interval assembles its LP once.  The LPs of one interval differ only in
which DER columns are fixed, so the bins are bound changes: `clamped`
takes the joint LP and fixes DER bounds, and for the ex-post LP appends
the zero-net-volume row.  `assemble` with a clamp is the same two steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy import sparse

from ._lp import solve_lp
from .ders import Der, DerPopulation, gamma_price
from .errors import DomainError, SchemaError, ShapeError, StateError, require_int, require_real
from .network import (
    Network,
    head_injection,
    lindistflow_voltages,
    phase_rows,
    voltage_rows,
)

logger = logging.getLogger("gridclear")

MAX_POLYGON_EDGES = 360  # largest TdopfParams.polygon_edges


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
    offers preferred regardless of stated price.  Apparent-power limits are
    the regular polygon with polygon_edges sides inscribed in each disc,
    3 to MAX_POLYGON_EDGES of them: each edge is one LP row per carried line
    phase, and at the maximum the polygon's apothem is cos(pi / 360) of the
    disc's radius.
    """

    m_cents_per_kwh: float = 2.5
    delta_t_hours: float = 1.0
    big_m_cents: float = 1000.0
    polygon_edges: int = 12

    def __post_init__(self):
        require_real("market.m_cents_per_kwh", self.m_cents_per_kwh)
        require_real("market.delta_t_hours", self.delta_t_hours, positive=True)
        require_real("market.big_m_cents", self.big_m_cents)
        require_int("market.polygon_edges", self.polygon_edges, 3)
        if self.polygon_edges > MAX_POLYGON_EDGES:
            raise DomainError(f"market.polygon_edges must be at most {MAX_POLYGON_EDGES}, "
                              f"got {self.polygon_edges!r}")

    def polygon(self):
        """(beta, delta, gamma) of the regular polygon; see polygon_coefficients."""
        return polygon_coefficients(self.polygon_edges)


@dataclass
class TdopfProblem:
    """An assembled LP and the names of its blocks.

    The constraint matrices are stored as canonical CSR in `a_eq_csr` and
    `a_ub_csr`; the solver and the optimality check use only those.
    `a_eq` and `a_ub` write them out as read-only dense arrays, built anew
    on every access, for inspection and size reports.  `ub_rows` maps each
    inequality family to its row slice, and `cols` each column block to
    its column slice; clamped DERs are those whose bounds are equal.  The
    carried rows are `network.carried_rows`, and the DER columns follow
    `population.ders`.
    """

    network: Network
    population: DerPopulation
    zero_net_volume: tuple
    c: np.ndarray
    a_eq_csr: sparse.csr_array
    b_eq: np.ndarray
    a_ub_csr: sparse.csr_array
    b_ub: np.ndarray
    bounds: list
    ub_rows: dict

    @property
    def a_eq(self) -> np.ndarray:
        return _dense_view(self.a_eq_csr)

    @property
    def a_ub(self) -> np.ndarray:
        return _dense_view(self.a_ub_csr)

    @property
    def cols(self) -> dict:
        return _column_blocks(self.network, self.population)


def _stacked(heights: dict) -> dict:
    """Consecutive slices for an ordered table of block name -> height."""
    out, start = {}, 0
    for name, height in heights.items():
        out[name] = slice(start, start + height)
        start += height
    return out


def _column_blocks(network: Network, population: DerPopulation) -> dict:
    flows = len(network.carried_rows[1])
    return _stacked({"alpha": population.n, "p": flows, "q": flows})


def _dense_view(a: sparse.csr_array) -> np.ndarray:
    dense = a.toarray()
    dense.setflags(write=False)
    return dense


def _spread(values: np.ndarray, rows: np.ndarray, n3: int) -> np.ndarray:
    """`values`, indexed by the carried `rows` along the last axis, written
    into the 3N layout with zeros on the rows no phase carries."""
    out = np.zeros(values.shape[:-1] + (n3,))
    out[..., rows] = values
    return out


def _canonical(a) -> sparse.csr_array:
    a = sparse.csr_array(a)
    a.eliminate_zeros()
    a.sort_indices()
    return a


@dataclass(frozen=True)
class TdopfSolution:
    """Primal and dual outcome of one acceptance solve.

    Flows, voltages and the balance, voltage and line multipliers are in
    the 3N layout of `network`, zero on the rows the LP leaves out (phases
    no bus or line carries).  Multipliers carry the sign convention of the
    optimality identities: lambda_p / lambda_q are the balance-row prices
    (cents per unit power per interval), the mu families are nonnegative,
    and alpha_lo / alpha_up are the acceptance-bound multipliers.  Where
    the LP is dual-degenerate the multipliers are one optimal set of
    several, and so are the cutoffs read from them.
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
    objective_cents: float | None = None
    infeasibility_hint: tuple = ()
    message: str = ""
    iterations: int = 0  # solver iterations; not part of solution_document


def assemble(network: Network, population: DerPopulation, params: TdopfParams,
             clamp: dict | None = None, zero_net_volume: tuple = ()) -> TdopfProblem:
    """Build the acceptance LP for one interval.

    The unclamped LP is built, then `clamped` fixes the clamped DERs and
    appends the volume row.

    Parameters
    ----------
    clamp : dict, optional
        DER id -> fixed acceptance fraction; realized as a fixed bound.
    zero_net_volume : tuple of str, optional
        DER ids whose signed accepted volumes must sum to zero (one extra
        equality row in kW).
    """
    matrices = network.matrices
    n = population.n
    n3 = 3 * network.n
    bus, line = network.carried_rows
    cols = _column_blocks(network, population)

    p_f, q_f = network.fixed_injections()
    beta, delta, gamma = params.polygon()

    # C' is kron(T', I3): built from the bus-level tree, it skips a scan of dense 3N x 3N c
    c_t = sparse.kron(sparse.csr_array(matrices.c[::3, ::3].T), sparse.eye_array(3),
                      format="csr")[bus][:, line]
    a_eq = _canonical(sparse.block_array([
        [sparse.csr_array(-population.scatter_p()[bus]), c_t, None],
        [sparse.csr_array(-population.scatter_q()[bus]), None, c_t]]))
    b_eq = np.concatenate([p_f[bus], q_f[bus]])

    # inequality families over the flow columns, as (rows, right-hand side)
    s_line = np.concatenate([branch.s_max for branch in network.lines])[line]
    edge_pq = np.column_stack([beta, delta])  # row e: [beta_e, delta_e]
    voltage = network.voltage_block[np.concatenate([bus, n3 + bus])]
    families = {
        "voltage_box": (voltage[:, np.concatenate([line, n3 + line])],
                        np.concatenate([np.full(len(bus), network.v_max - network.v0),
                                        np.full(len(bus), network.v0 - network.v_min)])),
        "line_polygon": (sparse.kron(edge_pq, sparse.eye_array(len(line))),
                         np.outer(-gamma, s_line).ravel()),
        "substation_polygon": (sparse.kron(edge_pq, sparse.csr_array(matrices.c0.T[:, line])),
                               np.outer(-gamma, network.s0_max).ravel()),
    }
    flow_rows = sparse.vstack([rows for rows, _ in families.values()])
    a_ub = _canonical(sparse.hstack([sparse.csr_array((flow_rows.shape[0], n)), flow_rows]))
    b_ub = np.concatenate([rhs for _, rhs in families.values()])

    scale = network.s_base_kva * params.delta_t_hours
    c = np.zeros(n + 2 * len(line))
    c[cols["alpha"]] = [gamma_price(der, params.big_m_cents) * der.volume_kw
                        * params.delta_t_hours for der in population.ders]
    c[cols["p"]] = params.m_cents_per_kwh * scale * (matrices.c0 @ np.ones(3))[line]

    joint = TdopfProblem(
        network=network, population=population, zero_net_volume=(),
        c=c, a_eq_csr=a_eq, b_eq=b_eq, a_ub_csr=a_ub, b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n + [(None, None)] * (2 * len(line)),  # alpha, p, q
        ub_rows=_stacked({name: len(rhs) for name, (_, rhs) in families.items()}),
    )
    return clamped(joint, clamp or {}, zero_net_volume)


def clamped(problem: TdopfProblem, clamp: dict, zero_net_volume: tuple = ()) -> TdopfProblem:
    """The LP `problem` with DERs fixed by `clamp` and an optional volume row.

    `problem` must carry no volume row; its own clamps are replaced, not
    added to.  Only the DER bounds change, plus, when `zero_net_volume`
    names DERs, one equality row making their signed accepted volumes sum
    to zero.  Every other array is shared with `problem`, so the bins and
    the ex-post LP of an interval are bound changes on one assembly.
    """
    if problem.zero_net_volume:
        raise StateError("clamp an LP that carries no volume row")
    pop = problem.population
    columns = pop.column_of
    clamp = dict(clamp)
    for der_id, value in clamp.items():
        if der_id not in columns:
            raise SchemaError(f"clamp references unknown DER {der_id!r}")
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"clamp for {der_id!r} outside [0, 1]: {value}")
    for der_id in zero_net_volume:
        if der_id not in columns:
            raise SchemaError(f"volume coupling references unknown DER {der_id!r}")

    bounds = [(float(clamp[d.id]),) * 2 if d.id in clamp else (0.0, 1.0)
              for d in pop.ders]
    a_eq, b_eq = problem.a_eq_csr, problem.b_eq
    if zero_net_volume:
        volume_row = np.zeros((1, a_eq.shape[1]))
        for der_id in zero_net_volume:
            j = columns[der_id]
            volume_row[0, j] = pop.ders[j].volume_kw
        a_eq = _canonical(sparse.vstack([a_eq, sparse.csr_array(volume_row)]))
        b_eq = np.append(b_eq, 0.0)
    return replace(problem, zero_net_volume=tuple(zero_net_volume),
                   a_eq_csr=a_eq, b_eq=b_eq, bounds=bounds + problem.bounds[pop.n:])


def _diagnose_infeasibility(problem: TdopfProblem) -> tuple:
    """Smallest set of row families whose removal restores feasibility.

    Tries single families first, then pairs, and so on up to all of them;
    if even the bare balance system cannot hold, says so.
    """
    families = problem.ub_rows
    keep_all = np.ones(problem.a_ub_csr.shape[0], dtype=bool)
    for size in range(1, len(families) + 1):
        for combo in combinations(families, size):
            keep = keep_all.copy()
            for family in combo:
                keep[families[family]] = False
            res = solve_lp(problem.c, problem.a_ub_csr[keep], problem.b_ub[keep],
                           problem.a_eq_csr, problem.b_eq, problem.bounds)
            logger.debug("infeasibility probe without %s: %s",
                         ", ".join(combo), res.status)
            if res.status == "optimal":
                return combo
    return ("balance_rows",)


def solve(problem: TdopfProblem) -> TdopfSolution:
    """Solve the assembled LP and unpack primal values and signed duals."""
    res = solve_lp(problem.c, problem.a_ub_csr, problem.b_ub,
                   problem.a_eq_csr, problem.b_eq, problem.bounds)
    if res.status != "optimal":
        hint = _diagnose_infeasibility(problem) if res.status == "infeasible" else ()
        return TdopfSolution(status=res.status, infeasibility_hint=hint,
                             message=res.message, iterations=res.nit)

    cols, rows = problem.cols, problem.ub_rows
    net = problem.network
    bus, line = net.carried_rows
    n3 = 3 * net.n
    x = res.x
    alpha = {der.id: float(a) for der, a in zip(problem.population.ders, x[cols["alpha"]])}
    p_flow, q_flow = _spread(x[cols["p"]], line, n3), _spread(x[cols["q"]], line, n3)
    v = lindistflow_voltages(net.matrices, net.v0, p_flow, q_flow)
    p0, q0 = head_injection(net.matrices, p_flow, q_flow)

    lam = res.eq_marginals
    mu = -res.ub_marginals  # nonnegative in the identity convention
    mu_v_upper, mu_v_lower = _spread(mu[rows["voltage_box"]].reshape(2, -1), bus, n3)
    lower = res.lower_marginals
    upper = res.upper_marginals

    return TdopfSolution(
        status="optimal",
        alpha=alpha,
        p_flow=p_flow, q_flow=q_flow, v=v, p0=p0, q0=q0,
        lambda_p=_spread(lam[:len(bus)], bus, n3),
        lambda_q=_spread(lam[len(bus):2 * len(bus)], bus, n3),
        lambda_net_volume=float(lam[-1]) if problem.zero_net_volume else 0.0,
        mu_v_upper=mu_v_upper, mu_v_lower=mu_v_lower,
        mu_line=_spread(mu[rows["line_polygon"]].reshape(-1, len(line)), line, n3),
        mu_sub=mu[rows["substation_polygon"]].reshape(-1, 3),
        alpha_lo=lower[cols["alpha"]], alpha_up=-upper[cols["alpha"]],
        objective_cents=res.fun,
        message=res.message,
        iterations=res.nit,
    )


def kkt_residuals(problem: TdopfProblem, solution: TdopfSolution) -> dict:
    """Scaled residuals of the optimality conditions of a solved LP.

    Reads the LP as the solver got it (`c`, both constraint matrices and
    right-hand sides, `bounds`) and nothing else of the problem but its
    block tables.  From the solution's 3N fields at `Network.carried_rows`
    it gathers x, the row multipliers lambda (the balance rows, then the
    volume row if there is one) and mu >= 0 (stacked by `ub_rows`
    family), and the bound multipliers z_lo = alpha_lo and z_up = alpha_up
    (zero on the free flow columns).  Each value is a sup-norm divided by
    a scale floored at 1:

    - primal_eq: A_eq x - b_eq, over the largest |b_eq|;
    - primal_ineq: the violation of A_ub x <= b_ub and of the column
      bounds, over the largest |b_ub| or finite bound;
    - stationarity_alpha, _p, _q: r = c - A_eq' lambda + A_ub' mu - z_lo
      + z_up on each column block, over the largest |c_j|,
      |(A_eq' lambda)_j|, |(A_ub' mu)_j| or bound multiplier of that block;
    - comp_slack_rows: mu times the row slack, over the largest mu;
    - comp_slack_alpha: z_lo (x - lo) and z_up (hi - x) on every column
      against its own finite bounds, over the largest bound multiplier;
    - dual_sign: the most negative mu over the largest |mu|, and the most
      negative bound multiplier over the largest |z|.

    Raises StateError unless the solution is optimal.
    """
    if solution.status != "optimal":
        raise StateError("optimality conditions need an optimal solution")
    cols, rows = problem.cols, problem.ub_rows
    bus, line = problem.network.carried_rows
    x = np.empty(len(problem.c))
    x[cols["alpha"]] = [solution.alpha[d.id] for d in problem.population.ders]
    x[cols["p"]], x[cols["q"]] = solution.p_flow[line], solution.q_flow[line]
    lam = np.concatenate([solution.lambda_p[bus], solution.lambda_q[bus],
                          [solution.lambda_net_volume] if problem.zero_net_volume else []])
    mu = np.empty(len(problem.b_ub))
    mu[rows["voltage_box"]] = np.concatenate([solution.mu_v_upper[bus],
                                              solution.mu_v_lower[bus]])
    mu[rows["line_polygon"]] = solution.mu_line[:, line].ravel()
    mu[rows["substation_polygon"]] = solution.mu_sub.ravel()
    z_lo, z_up = np.zeros_like(x), np.zeros_like(x)
    z_lo[cols["alpha"]], z_up[cols["alpha"]] = solution.alpha_lo, solution.alpha_up
    lo = np.array([-np.inf if b is None else b for b, _ in problem.bounds])
    hi = np.array([np.inf if b is None else b for _, b in problem.bounds])

    def sup(v):
        return float(np.max(np.abs(v), initial=0.0))

    slack = problem.b_ub - problem.a_ub_csr @ x
    violation = np.concatenate([-slack, x - hi, lo - x])  # -inf on an absent bound
    limits = np.concatenate([problem.b_ub, lo, hi])
    out = {"primal_eq": sup(problem.a_eq_csr @ x - problem.b_eq) / max(1.0, sup(problem.b_eq)),
           "primal_ineq": max(0.0, np.max(violation))
           / max(1.0, sup(limits[np.isfinite(limits)]))}
    eq_t, ub_t = problem.a_eq_csr.T @ lam, problem.a_ub_csr.T @ mu
    r = problem.c - eq_t + ub_t - z_lo + z_up
    terms = np.max(np.abs([problem.c, eq_t, ub_t, z_lo, z_up]), axis=0)
    for name, block in cols.items():
        out[f"stationarity_{name}"] = sup(r[block]) / max(1.0, sup(terms[block]))
    mu_scale, z_scale = max(1.0, sup(mu)), max(1.0, sup(z_lo), sup(z_up))
    out["comp_slack_rows"] = sup(mu * slack) / mu_scale
    gaps = np.concatenate([z_lo * np.where(np.isfinite(lo), x - lo, 0.0),
                           z_up * np.where(np.isfinite(hi), hi - x, 0.0)])
    out["comp_slack_alpha"] = sup(gaps) / z_scale
    out["dual_sign"] = max(0.0, -np.min(mu, initial=0.0) / mu_scale,
                           -np.min([z_lo, z_up], initial=0.0) / z_scale)
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

    bus, line = network.carried_rows
    labels = network.row_labels
    s_base = network.s_base_kva

    def bus_values(vec):
        return [{"bus": label, "phase": ph, "value": value}
                for label, ph, value in zip(labels.bus, labels.bus_phase,
                                            vec[bus].tolist())]

    doc["voltages"] = voltage_rows(network, solution.v)
    doc["flows"] = [{"from": frm, "to": to, "phase": ph, "p_kw": p_kw, "q_kvar": q_kvar}
                    for frm, to, ph, p_kw, q_kvar in zip(
                        labels.line_from, labels.line_to, labels.line_phase,
                        (solution.p_flow[line] * s_base).tolist(),
                        (solution.q_flow[line] * s_base).tolist())]
    doc["head"] = {"p_kw": (solution.p0 * s_base).tolist(),
                   "q_kvar": (solution.q0 * s_base).tolist()}
    doc["duals"] = {"lambda_p": bus_values(solution.lambda_p),
                    "lambda_q": bus_values(solution.lambda_q)}
    return doc

"""The paper's experiments E1-E12 as registered scenario specs.

Each experiment is a plan-based :class:`~repro.scenarios.spec.ScenarioSpec`
whose plan yields the compiler's :class:`~repro.scenarios.compile.Point`
sequence. The plans preserve the original harness's per-point seeds,
seed-stream labels and trial semantics exactly, so every regenerated
table is row-identical to the pre-scenario implementation at a fixed
``(trials, seed)`` — pinned against golden tables in
``tests/test_scenarios_paper.py``, column order included.

Every run carries its metric :class:`~repro.scenarios.compile.Column`
tuple, and every reducer reads folded columns, never raw outcomes. So
a paper spec runs on the fixed path or streams under a precision
contract (``run-scenario E7 --precision mean_rounds=5``) like any
declarative spec. COUNT, CSEEK, CKSEEK, CGCAST and naive-baseline runs
come from :func:`~repro.scenarios.compile.protocol_trial`; only
experiment-specific outcomes keep their own trial code and columns:
E3's part-one split, E5's coloring, E7/E8's hitting games, E10's
per-class rates under starved budgets and E11's amortized broadcasts.
Most points map folded columns to table headers through
:func:`_protocol_point` (``success`` -> ``cseek_success``); only E6's
per-hop cells, E10's starved ``bias(high/low)`` and E11's three budget
rows need a reducer of their own.

The experiment *defaults* (trials per configuration) and the notes
interpreting each table against the paper's claim live here too; run
one with ``run_scenario(paper_spec("E2"), ...)`` (the CLI's ``run``).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import (
    cgcast_bound,
    ckseek_bound,
    complete_game_floor,
    cseek_bound,
    fit_power_law,
    hitting_game_floor,
    naive_broadcast_bound,
    naive_discovery_bound,
    zeng_discovery_bound,
)
from repro.baselines import (
    NaiveBroadcast,
    broadcast_floor,
    tree_broadcast_floor,
)
from repro.core import (
    CGCastBatch,
    CSeek,
    LineGraph,
    LubyEdgeColoring,
    is_valid_edge_coloring,
    redisseminate_batch,
)
from repro.graphs import (
    build_network,
    build_theorem14_tree,
    path_of_cliques,
    random_regular,
    star,
)
from repro.lowerbounds import (
    CSeekReductionPlayer,
    FreshRandomPlayer,
    HittingGame,
    UniformRandomPlayer,
    play,
)
from repro.model.errors import HarnessError
from repro.scenarios.compile import (
    Column,
    Point,
    Run,
    RunContext,
    protocol_trial,
)
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trials import cseek_trial
from repro.sim import MarkovTraffic

__all__ = ["PAPER_SPECS", "paper_spec"]

Row = Dict[str, object]


# ----------------------------------------------------------------------
# Runs and points: every reducer reads folded columns
# ----------------------------------------------------------------------
def _protocol_run(
    key: str,
    kind: str,
    label: str,
    seed: int,
    net=None,
    params: Optional[Row] = None,
    environment=None,
    trials: Optional[int] = None,
) -> Run:
    """A run of :func:`protocol_trial`'s ``kind`` trial and its columns."""
    trial, columns = protocol_trial(kind, params or {}, net, environment)
    return Run(key, trial, label, seed, columns, trials)


def _protocol_point(
    runs: Sequence[Run],
    head: Row,
    headers: Dict[str, Tuple[str, str]],
    tail: Optional[Row] = None,
) -> Point:
    """A one-row point over its runs' folded columns.

    The row is ``head``, then each table header's ``(run key, column)``
    cell, then ``tail``.
    """

    def reduce(ctx, metrics) -> List[Row]:
        picked = {h: metrics[key][col] for h, (key, col) in headers.items()}
        return [{**head, **picked, **(tail or {})}]

    return Point(list(runs), reduce)


def _ok(pick):
    """A column pick that skips failed (None) outcomes."""
    return lambda outcome: None if outcome is None else pick(outcome)


# ----------------------------------------------------------------------
# E1 — COUNT accuracy (Lemma 1)
# ----------------------------------------------------------------------
_E1_HEADERS = {
    "median_ratio": ("count", "median_ratio"),
    "band_rate(est in [m/4,4m])": ("count", "band_rate"),
    "slots": ("count", "slots"),
}


def _plan_e1(ctx: RunContext) -> Iterable[Point]:
    for rule, round_slots in (("argmax", 8.0), ("first_crossing", 192.0)):
        for m in (1, 2, 4, 8, 16, 32):
            params = {
                "m": m,
                "max_count": 32,
                "log_n": 5,
                "rule": rule,
                "round_slots": round_slots,
            }
            yield _protocol_point(
                [
                    _protocol_run(
                        "count", "count", f"e1-{rule}-{m}", ctx.seed,
                        params=params,
                    )
                ],
                {"rule": rule, "m": m},
                _E1_HEADERS,
            )


# ----------------------------------------------------------------------
# E2 — CSEEK scaling vs baselines (Theorem 4)
# ----------------------------------------------------------------------
_E2_HEADERS = {
    "cseek_success": ("cseek", "success"),
    "naive_success": ("naive", "success"),
    "cseek_completion": ("cseek", "mean_completion"),
    "naive_completion": ("naive", "mean_completion"),
    "cseek_schedule": ("cseek", "schedule_slots"),
    "naive_schedule": ("naive", "schedule_slots"),
}


def _discovery_point(
    sweep: str, x: int, net, trials: int, seed: int, label: str,
    polylog: bool = False,
) -> Point:
    """One E2 sweep point: paired CSEEK + naive runs, then the bounds.

    ``polylog`` gives the bounds their lg n factors (the Delta sweep).
    """
    kn = net.knowledge()
    n = kn.n if polylog else None
    return _protocol_point(
        [
            _protocol_run(
                "cseek", "cseek", f"{label}-cseek", seed, net, trials=trials
            ),
            _protocol_run(
                "naive", "naive_discovery", f"{label}-naive", seed, net,
                trials=trials,
            ),
        ],
        {"sweep": sweep, "x": x},
        _E2_HEADERS,
        {
            "cseek_bound": cseek_bound(
                kn.c, kn.k, kn.kmax, kn.max_degree, n=n
            ),
            "naive_bound": naive_discovery_bound(
                kn.c, kn.k, kn.max_degree, n=n
            ),
            "zeng_bound": zeng_discovery_bound(
                kn.c, kn.k, kn.max_degree, n=n
            ),
        },
    )


def _plan_e2(ctx: RunContext) -> Iterable[Point]:
    trials, seed = ctx.trials, ctx.seed
    # --- (a) sweep c with k, Delta fixed (need Delta * k <= c) ------
    for c in (8, 12, 16, 20):
        graph = random_regular(20, 4, seed=seed + c)
        net = build_network(graph, c=c, k=2, seed=seed + c)
        yield _discovery_point("c", c, net, trials, seed + c, f"e2c{c}")
    # --- (b) sweep Delta on crowded stars ---------------------------
    # Delta is the axis on which the bounds diverge (additive for CSEEK,
    # multiplicative for naive); the biggest point is capped at fewer
    # trials to keep the sweep laptop-sized.
    for delta in (8, 32, 128):
        net = build_network(
            star(delta + 1), c=8, k=2, seed=seed + delta, kind="global_core"
        )
        yield _discovery_point(
            "Delta",
            delta,
            net,
            trials if delta < 128 else min(trials, 2),
            seed + 100 + delta,
            f"e2d{delta}",
            polylog=True,
        )
    # --- (c) sweep k with c fixed -----------------------------------
    for k in (1, 2, 4):
        graph = random_regular(20, 4, seed=seed + 7)
        net = build_network(graph, c=16, k=k, seed=seed + k)
        yield _discovery_point("k", k, net, trials, seed + 200 + k, f"e2k{k}")


def _notes_e2(rows: List[Row], ctx: RunContext) -> str:
    slope_note = ""
    c_rows = [r for r in rows if r["sweep"] == "c" and r["cseek_completion"]]
    if len(c_rows) >= 2:
        fit = fit_power_law(
            [r["x"] for r in c_rows], [r["cseek_completion"] for r in c_rows]
        )
        slope_note += (
            f" Measured CSEEK completion-vs-c log-log slope: "
            f"{fit.slope:.2f} (bound predicts ~2 once the c^2/k term "
            "dominates)."
        )
    d_rows = [
        r
        for r in rows
        if r["sweep"] == "Delta"
        and r["cseek_completion"]
        and r["naive_completion"]
    ]
    if len(d_rows) >= 2:
        cs_fit = fit_power_law(
            [r["x"] for r in d_rows], [r["cseek_completion"] for r in d_rows]
        )
        nv_fit = fit_power_law(
            [r["x"] for r in d_rows], [r["naive_completion"] for r in d_rows]
        )
        ratios = [
            r["naive_completion"] / r["cseek_completion"] for r in d_rows
        ]
        slope_note += (
            f" Delta-sweep slopes: CSEEK {cs_fit.slope:.2f} (additive "
            f"Delta term, sub-linear at these sizes), naive "
            f"{nv_fit.slope:.2f} (multiplicative Delta). Naive/CSEEK "
            f"completion ratio along the sweep: "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + " — rising with Delta as the bounds predict. At laptop "
            "sizes the lg^2 n slots inside every COUNT step keep CSEEK's "
            "absolute numbers above naive's; the bound-side crossover "
            "(Delta >~ lg^2 n x constants) extrapolates to Delta in the "
            "several hundreds, beyond this sweep."
        )
    return (
        "Paper claim: CSEEK needs O~(c^2/k + (kmax/k) Delta) slots vs "
        "the naive strawman's O~((c^2/k) Delta); CSEEK's advantage "
        "grows with Delta (additive vs multiplicative) and both scale "
        "as c^2/k in c and 1/k in k." + slope_note
    )


# ----------------------------------------------------------------------
# E3 — part-one vs part-two discovery split (Lemmas 2 and 3)
# ----------------------------------------------------------------------
# Outcomes are ``(part-one fraction, final fraction)`` of true pairs.
_E3_COLUMNS = (
    Column("part1_fraction", "mean", itemgetter(0)),
    Column("final_fraction", "mean", itemgetter(1)),
)


def _e3_point(
    workload: str, listener: str, net, label: str, seed: int, **budget
) -> Point:
    """One E3 row: the share of true pairs found by part one and overall."""
    truth = net.true_neighbor_sets()
    total_pairs = sum(len(s) for s in truth)

    def fractions(result):
        part1 = sum(
            len(result.discovered_part_one[u] & set(nbrs))
            for u, nbrs in enumerate(truth)
        )
        both = sum(
            len(result.discovered[u] & set(nbrs))
            for u, nbrs in enumerate(truth)
        )
        return part1 / total_pairs, both / total_pairs

    trial = cseek_trial(lambda s: CSeek(net, seed=s, **budget), fractions)
    return _protocol_point(
        [Run("cseek", trial, label, seed, _E3_COLUMNS)],
        {
            "workload": workload,
            "part2_listener": listener,
            "pairs": total_pairs,
        },
        {col.name: ("cseek", col.name) for col in _E3_COLUMNS},
    )


def _plan_e3(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # (a) full budgets: Lemma 2 says part one alone already finds
    # everything when channels are un-crowded.
    for name, net in (
        (
            "full budget, sparse (exact k, regular)",
            build_network(
                random_regular(20, 4, seed=seed + 1), c=8, k=2, seed=seed + 1
            ),
        ),
        (
            "full budget, crowded (global core, star)",
            build_network(
                star(25), c=6, k=2, seed=seed + 2, kind="global_core"
            ),
        ),
    ):
        yield _e3_point(name, "weighted", net, f"e3-{name}", seed)
    # (b) starved part one on a heavily crowded star: part two must
    # rescue the remaining pairs, and its density-weighted listener is
    # what makes the rescue fast (Lemma 3's mechanism).
    net = build_network(
        star(65), c=6, k=2, seed=seed + 3, kind="global_core"
    )
    for policy in ("weighted", "uniform"):
        yield _e3_point(
            "starved part one, crowded star", policy, net, f"e3b-{policy}",
            seed + 5, part1_steps=40, part2_steps=150, part2_listener=policy,
        )


# ----------------------------------------------------------------------
# E4 — CKSEEK filter (Theorem 6)
# ----------------------------------------------------------------------
_E4_HEADERS = {
    "khat": ("ckseek", "khat"),
    "delta_khat": ("ckseek", "delta_khat"),
    "success": ("ckseek", "success"),
    "schedule_slots": ("ckseek", "schedule_slots"),
}


def _plan_e4(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    graph = random_regular(20, 4, seed=seed + 3)
    net = build_network(
        graph, c=16, k=2, seed=seed + 3, kind="heterogeneous", kmax=4
    )
    kn = net.knowledge()
    for khat in range(kn.k, kn.kmax + 1):
        delta_khat = net.max_good_degree(khat)
        run = _protocol_run(
            "ckseek", "ckseek", f"e4-{khat}", seed + khat, net,
            params={"khat": khat, "delta_khat": delta_khat},
        )
        bound = ckseek_bound(kn.c, khat, kn.kmax, delta_khat, kn.max_degree)
        yield _protocol_point([run], {}, _E4_HEADERS, {"bound": bound})


# ----------------------------------------------------------------------
# E5 — Luby line-graph coloring (Lemma 8)
# ----------------------------------------------------------------------
# Outcomes are ``(valid, phases_used)``.
_E5_COLUMNS = (
    Column("valid_rate", "rate", itemgetter(0)),
    Column("mean_phases", "mean", itemgetter(1)),
)


def _plan_e5(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for n in (8, 16, 32, 64, 128):
        graph = random_regular(n, 4, seed=seed + n)
        net = build_network(graph, c=8, k=2, seed=seed + n)
        lg = LineGraph.from_edges(net.edges())
        kn = net.knowledge()

        def trial(s: int, lg=lg, kn=kn):
            result = LubyEdgeColoring(lg, kn, seed=s).run()
            valid = result.complete and is_valid_edge_coloring(
                result.colors, lg.edges
            )
            return valid, result.phases_used

        yield _protocol_point(
            [Run("coloring", trial, f"e5-{n}", seed + n, _E5_COLUMNS)],
            {"n": n, "edges": lg.num_virtual},
            {col.name: ("coloring", col.name) for col in _E5_COLUMNS},
            {"lg_n": math.ceil(math.log2(n))},
        )


def _notes_e5(rows: List[Row], ctx: RunContext) -> str:
    phase_fit = fit_power_law(
        [r["lg_n"] for r in rows], [max(r["mean_phases"], 0.5) for r in rows]
    )
    return (
        "Paper claim: the phased coloring 2*Delta-colors the line "
        "graph (hence properly edge-colors G, Fact 7) within O(lg n) "
        "phases w.h.p. Expect valid_rate 1.0 and mean_phases growing "
        f"at most like lg n (measured phases-vs-lg n slope: "
        f"{phase_fit.slope:.2f}; sub-linear growth in lg n is "
        "consistent with the bound's generous constant)."
    )


# ----------------------------------------------------------------------
# E6 — CGCAST scaling vs naive broadcast (Theorem 9)
# ----------------------------------------------------------------------
def _broadcast_runs(net, label: str, seed: int) -> List[Run]:
    """E6/E9's paired runs: CGCAST and naive broadcast from node 0."""
    return [
        _protocol_run("cg", "cgcast", f"{label}cg", seed, net),
        _protocol_run("nv", "naive_broadcast", f"{label}nv", seed, net),
    ]


def _plan_e6(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for num_cliques in (2, 4, 8, 12):
        graph = path_of_cliques(num_cliques, 4)
        net = build_network(graph, c=8, k=1, seed=seed + num_cliques)
        kn = net.knowledge()

        def reduce(ctx, metrics, num_cliques=num_cliques, kn=kn):
            cg, nv = metrics["cg"], metrics["nv"]
            cg_mean = cg["mean_dissemination"]
            nv_mean = nv["mean_completion"]
            return [
                {
                    "cliques": num_cliques,
                    "D": kn.diameter,
                    "Delta": kn.max_degree,
                    "cgcast_success": cg["success"],
                    "cgcast_dissemination": cg_mean,
                    "cgcast_per_hop": (
                        cg_mean / kn.diameter if cg_mean else None
                    ),
                    "cgcast_total": cg["schedule_slots"],
                    "naive_success": nv["success"],
                    "naive_completion": nv_mean,
                    "naive_per_hop": (
                        nv_mean / kn.diameter if nv_mean else None
                    ),
                    "cgcast_bound": cgcast_bound(
                        kn.c, kn.k, kn.kmax, kn.max_degree, kn.diameter
                    ),
                    "naive_bound": naive_broadcast_bound(
                        kn.c, kn.k, kn.diameter
                    ),
                }
            ]

        yield Point(_broadcast_runs(net, "e6", seed + num_cliques), reduce)


def _notes_e6(rows: List[Row], ctx: RunContext) -> str:
    diss = [
        r for r in rows if r["cgcast_dissemination"] and r["naive_completion"]
    ]
    note = ""
    if len(diss) >= 2:
        cg_fit = fit_power_law(
            [r["D"] for r in diss], [r["cgcast_dissemination"] for r in diss]
        )
        nv_fit = fit_power_law(
            [r["D"] for r in diss], [r["naive_completion"] for r in diss]
        )
        note = (
            f" Dissemination-vs-D slopes: CGCAST {cg_fit.slope:.2f}, "
            f"naive {nv_fit.slope:.2f} (both ~linear in D, as the bounds "
            "predict); the naive curve carries the larger c^2/k per-hop "
            "constant, the CGCAST curve only Delta*polylog."
        )
    return (
        "Paper claim: CGCAST spends O~(c^2/k + (kmax/k) Delta) once "
        "on setup, then disseminates at O~(Delta) per hop; the naive "
        "strawman pays O~(c^2/k) per hop. On long thin networks "
        "(growing D) the per-hop comparison favors CGCAST whenever "
        "Delta << c^2/k (here Delta=4 vs c^2/k=64). The one-shot "
        "total still favors naive at these sizes because CGCAST's "
        "setup (discovery + coloring exchanges) is paid once — the "
        "paper's regime is a long-lived network where the schedule "
        "is reused across many broadcasts." + note
    )


# ----------------------------------------------------------------------
# E7 — hitting-game lower bounds (Lemmas 10 and 12)
# ----------------------------------------------------------------------
# Game outcomes are the rounds the player took to win.
_GAME_COLUMNS = (
    Column("mean_rounds", "mean", int),
    Column("median_rounds", "median", int),
)


def _game_run(
    label: str, seed: int, c: int, k: int, make_player, max_rounds=None,
    referee_offset: int = 0,
) -> Run:
    """A run of one ``(c, k)`` hitting game per trial seed ``s``.

    The referee draws from ``s + referee_offset`` and the player is
    ``make_player(s)``; a player that does not win within
    ``max_rounds`` (default: :func:`play`'s) fails the trial.
    """

    def trial(s: int) -> int:
        game = HittingGame(c=c, k=k, seed=s + referee_offset)
        transcript = play(game, make_player(s), max_rounds=max_rounds)
        if not transcript.won:
            raise HarnessError("player failed to win within the round cap")
        return transcript.rounds

    return Run("game", trial, label, seed, _GAME_COLUMNS)


_E7_HEADERS = {col.name: ("game", col.name) for col in _GAME_COLUMNS}


def _plan_e7(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for c in (8, 16, 32):
        for k in (1, 2, 4):
            for player_name, player in (
                ("fresh", FreshRandomPlayer),
                ("uniform", UniformRandomPlayer),
            ):
                run = _game_run(
                    f"e7-{player_name}",
                    seed + c * 10 + k,
                    c,
                    k,
                    lambda s, player=player: player(seed=s + 1),
                    max_rounds=50 * c * c,
                )
                yield _protocol_point(
                    [run],
                    {"c": c, "k": k, "player": player_name},
                    _E7_HEADERS,
                    {
                        "floor(c^2/8k)": (
                            hitting_game_floor(c, k) if k <= c / 2 else None
                        ),
                        "c^2/k": c * c / k,
                    },
                )
    # Complete game (k = c): Lemma 12.
    for c in (9, 27):
        run = _game_run(
            "e7-complete", seed + c, c, c,
            lambda s: FreshRandomPlayer(seed=s + 1),
        )
        yield _protocol_point(
            [run],
            {"c": c, "k": c, "player": "fresh(complete)"},
            _E7_HEADERS,
            {"floor(c^2/8k)": complete_game_floor(c), "c^2/k": float(c)},
        )


# ----------------------------------------------------------------------
# E8 — the reduction and Theorem 13
# ----------------------------------------------------------------------
def _plan_e8(ctx: RunContext) -> Iterable[Point]:
    trials, seed = ctx.trials, ctx.seed
    k = 2
    for c in (8, 16, 32):
        schedule = CSeekReductionPlayer(k=k).schedule_slots(c)
        run = _game_run(
            f"e8-{c}", seed + c, c, k,
            lambda s: CSeekReductionPlayer(k=k, seed=s),
            max_rounds=4 * schedule,
            referee_offset=17,
        )
        yield _protocol_point(
            [run],
            {"case": "reduction(CSEEK)", "x": c},
            {"mean_rounds_to_meet": ("game", "mean_rounds")},
            {
                "game_floor": hitting_game_floor(c, k),
                "cseek_schedule": schedule,
            },
        )
    # Omega(Delta): discovery completion on stars is at least Delta.
    for delta in (4, 8, 16):
        net = build_network(
            star(delta + 1), c=8, k=2, seed=seed + delta, kind="global_core"
        )
        run = _protocol_run(
            "star", "cseek", "e8-star", seed + delta, net,
            trials=max(3, trials // 3),
        )
        yield _protocol_point(
            [run],
            {"case": "star Omega(Delta)", "x": delta},
            {"mean_rounds_to_meet": ("star", "mean_completion")},
            {"game_floor": float(delta), "cseek_schedule": None},
        )


# ----------------------------------------------------------------------
# E9 — broadcast lower bound on trees (Theorem 14)
# ----------------------------------------------------------------------
_E9_HEADERS = {
    "cgcast_success": ("cg", "success"),
    "cgcast_dissemination": ("cg", "mean_dissemination"),
    "naive_success": ("nv", "success"),
    "naive_completion": ("nv", "mean_completion"),
}


def _plan_e9(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    c = 4
    for depth in (2, 3, 4):
        net = build_theorem14_tree(c=c, depth=depth, seed=seed + depth)
        kn = net.knowledge()
        yield _protocol_point(
            _broadcast_runs(net, "e9", seed + depth),
            {
                "depth": depth,
                "n": net.n,
                "analytic_floor": tree_broadcast_floor(
                    c=c, delta=kn.max_degree, depth=depth
                ),
                "greedy_oracle": broadcast_floor(net, source=0),
            },
            _E9_HEADERS,
        )


# ----------------------------------------------------------------------
# E10 — heterogeneity + part-two ablation (Section 7)
# ----------------------------------------------------------------------
# Starved-budget outcomes are ``(low-overlap, high-overlap)`` found
# fractions of each pair class's ordered pairs.
_E10_COLUMNS = (
    Column("low_overlap_found", "mean", itemgetter(0)),
    Column("high_overlap_found", "mean", itemgetter(1)),
)


def _plan_e10(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # (a) under starved budgets, discovery probability splits by pair
    # class: high-overlap (k_uv = kmax) pairs are found far more often
    # than low-overlap (k_uv = k) pairs, and the gap widens with kmax/k.
    for kmax in (2, 4, 8):
        graph = random_regular(16, 3, seed=seed + 3)
        net = build_network(
            graph, c=32, k=1, seed=seed + kmax, kind="heterogeneous",
            kmax=kmax,
        )
        lo_pairs = [
            e for e in net.edges() if net.edge_overlap(*e) == 1
        ]
        hi_pairs = [
            e for e in net.edges() if net.edge_overlap(*e) == kmax
        ]

        def pair_rates(result, lo_pairs=lo_pairs, hi_pairs=hi_pairs):
            lo = sum(
                (v in result.discovered[u]) + (u in result.discovered[v])
                for u, v in lo_pairs
            ) / (2 * len(lo_pairs))
            hi = sum(
                (v in result.discovered[u]) + (u in result.discovered[v])
                for u, v in hi_pairs
            ) / (2 * len(hi_pairs))
            return lo, hi

        trial = cseek_trial(
            lambda s, net=net: CSeek(
                net, seed=s, part1_steps=300, part2_steps=400
            ),
            pair_rates,
        )

        def reduce(ctx, metrics, kmax=kmax):
            lo_mean = metrics["cseek"]["low_overlap_found"]
            hi_mean = metrics["cseek"]["high_overlap_found"]
            return [
                {
                    "case": f"starved budget, kmax/k={kmax}",
                    "low_overlap_found": lo_mean,
                    "high_overlap_found": hi_mean,
                    "bias(high/low)": (
                        hi_mean / lo_mean if lo_mean else None
                    ),
                    "success": None,
                    "schedule": None,
                }
            ]

        yield Point(
            [Run("cseek", trial, f"e10h{kmax}", seed + kmax, _E10_COLUMNS)],
            reduce,
        )
    # (b) full budgets: the schedule formula stretches with kmax/k and
    # full discovery still succeeds (Theorem 4's budget absorbs the gap).
    for kmax in (1, 2, 4):
        graph = random_regular(16, 3, seed=seed + 3)
        kind = "exact_uniform" if kmax == 1 else "heterogeneous"
        net = build_network(
            graph, c=16, k=1, seed=seed + kmax, kind=kind, kmax=kmax
        )
        yield _protocol_point(
            [
                _protocol_run(
                    "cseek", "cseek", f"e10f{kmax}", seed + 40 + kmax, net
                )
            ],
            {
                "case": f"full budget, kmax/k={kmax}",
                "low_overlap_found": None,
                "high_overlap_found": None,
                "bias(high/low)": None,
            },
            {
                "success": ("cseek", "success"),
                "schedule": ("cseek", "schedule_slots"),
            },
        )


# ----------------------------------------------------------------------
# E11 — amortized repeated broadcast (extension; Theorem 9's regime)
# ----------------------------------------------------------------------
_E11_MESSAGES = 16
_E11_BUDGETS = (1, 4, _E11_MESSAGES)
# Outcomes are ``(setup_slots, per-message CGCAST slots, per-message
# naive slots)``, or None for a trial whose broadcasts failed; the mean
# columns skip those.
_E11_COLUMNS = (
    *(
        column
        for budget in _E11_BUDGETS
        for column in (
            Column(
                f"cgcast_total_{budget}",
                "mean",
                _ok(lambda o, b=budget: o[0] + sum(o[1][:b])),
            ),
            Column(
                f"naive_total_{budget}",
                "mean",
                _ok(lambda o, b=budget: sum(o[2][:b])),
            ),
        )
    ),
    Column("setup", "mean", _ok(itemgetter(0))),
    Column(
        "dissemination_per_message",
        "mean",
        _ok(lambda o: sum(o[1][1:]) / max(1, len(o[1]) - 1)),
    ),
    Column(
        "naive_per_message", "mean", _ok(lambda o: sum(o[2]) / len(o[2]))
    ),
)


def _plan_e11(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # c^2/k = 256 >> Delta = 4: the regime where the per-hop advantage
    # of the colored schedule is unambiguous.
    graph = path_of_cliques(8, 4)
    net = build_network(graph, c=16, k=1, seed=seed + 1)
    kn = net.knowledge()

    def run_batch(seeds):
        # The whole amortized regime in lockstep: one CGCastBatch run
        # builds every trial's reusable schedule, then each message's
        # re-dissemination sweeps the surviving trials through
        # redisseminate_batch. A trial drops out at its first failed
        # broadcast (its outcome stays None). Every generator draws
        # from per-trial seeds, so outcomes do not depend on which
        # trials share a batch.
        seeds = [int(s) for s in seeds]
        setups = CGCastBatch(net, source=0).run(seeds)
        state = {}
        for b, setup in enumerate(setups):
            if setup.success:
                diss0 = setup.ledger.get("dissemination")
                state[b] = (setup.total_slots - diss0, [diss0], [])
        for msg in range(1, _E11_MESSAGES):
            alive = sorted(state)
            if not alive:
                break
            source = (msg * 7) % net.n
            disses = redisseminate_batch(
                net,
                [setups[b] for b in alive],
                source,
                [seeds[b] + msg for b in alive],
            )
            for b, diss in zip(alive, disses):
                if not diss.success:
                    del state[b]
                    continue
                state[b][1].append(diss.ledger.total)
                nv = NaiveBroadcast(
                    net, source=source, seed=seeds[b] + 100 + msg
                ).run()
                if not nv.success:
                    del state[b]
                    continue
                state[b][2].append(nv.completion_slot)
        outcomes = [None] * len(seeds)
        for b, (setup_slots, per_message, naive_pm) in state.items():
            nv0 = NaiveBroadcast(net, source=0, seed=seeds[b] + 500).run()
            naive_pm.insert(0, nv0.completion_slot)
            outcomes[b] = (setup_slots, per_message, naive_pm)
        return outcomes

    def trial(s: int):
        return run_batch([s])[0]

    trial.run_batch = run_batch

    def reduce(ctx, metrics):
        amortized = metrics["amortized"]
        if amortized["setup"] is None:
            raise HarnessError("no successful E11 trial")
        rows: List[Row] = []
        for budget in _E11_BUDGETS:
            cg_mean = amortized[f"cgcast_total_{budget}"]
            nv_mean = amortized[f"naive_total_{budget}"]
            rows.append(
                {
                    "messages": budget,
                    "cgcast_total": cg_mean,
                    "cgcast_per_message": cg_mean / budget,
                    "naive_total": nv_mean,
                    "naive_per_message": nv_mean / budget,
                    "ratio(cgcast/naive)": cg_mean / nv_mean,
                }
            )
        # Amortization point estimate for the notes:
        # setup / (naive per msg - diss per msg).
        ctx.extras["e11"] = {
            "setup_mean": amortized["setup"],
            "diss_pm": amortized["dissemination_per_message"],
            "naive_pm": amortized["naive_per_message"],
            "diameter": kn.diameter,
            "max_degree": kn.max_degree,
            "c2k": kn.c * kn.c // kn.k,
        }
        return rows

    yield Point(
        [Run("amortized", trial, "trials", seed, _E11_COLUMNS)], reduce
    )


def _notes_e11(rows: List[Row], ctx: RunContext) -> str:
    stats = ctx.extras["e11"]
    setup_mean = stats["setup_mean"]
    diss_pm = stats["diss_pm"]
    naive_pm = stats["naive_pm"]
    if naive_pm > diss_pm:
        amortize = setup_mean / (naive_pm - diss_pm)
        amortize_note = (
            f" Per-message costs: re-dissemination {diss_pm:,.0f} vs "
            f"naive {naive_pm:,.0f} slots; the setup "
            f"({setup_mean:,.0f} slots) amortizes after "
            f"~{amortize:,.0f} messages."
        )
    else:
        amortize_note = (
            " At this size the re-dissemination cost does not undercut "
            "naive flooding, so the setup never amortizes — the "
            "asymptotic regime needs Delta*polylog << c^2/k."
        )
    return (
        "Extension experiment (not a numbered claim): the paper's "
        "CGCAST builds a reusable schedule — discovery, dedicated "
        "channels and the edge coloring survive across broadcasts. "
        "Re-dissemination costs only the O~(D Delta) stage, so the "
        "per-message cost collapses as messages accumulate while "
        "naive flooding pays O~((c^2/k) D) every time; the "
        "cgcast/naive ratio falls toward the pure dissemination "
        f"ratio (D={stats['diameter']}, Delta="
        f"{stats['max_degree']}, c^2/k={stats['c2k']})."
        + amortize_note
    )


# ----------------------------------------------------------------------
# E12 — primary-user interference robustness (extension)
# ----------------------------------------------------------------------
def _plan_e12(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    graph = random_regular(20, 4, seed=seed + 7)
    net = build_network(graph, c=8, k=2, seed=seed + 11)
    all_channels = sorted(net.assignment.universe())
    cases = [("none", 0.0, 0.0)]
    for activity in (0.3, 0.6, 0.8):
        cases.append(("short bursts (dwell 4)", activity, 4.0))
        cases.append(("long bursts (dwell 500)", activity, 500.0))
    for name, activity, dwell in cases:
        # Stream seeds are trial_seed + 1000: the golden E12 rows
        # were recorded with exactly that per-trial traffic seeding.
        environment = (
            MarkovTraffic(
                all_channels,
                activity=activity,
                mean_dwell=dwell,
                seed_offset=1000,
            )
            if activity > 0
            else None
        )
        yield _protocol_point(
            [
                _protocol_run(
                    "cseek", "cseek", f"e12-{name}",
                    seed + int(activity * 10), net,
                    environment=environment,
                )
            ],
            {"traffic": name, "activity": activity},
            {
                "success": ("cseek", "success"),
                "mean_completion": ("cseek", "mean_completion"),
            },
        )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
PAPER_SPECS: Dict[str, ScenarioSpec] = {}


def _paper(spec: ScenarioSpec) -> ScenarioSpec:
    register(spec)
    PAPER_SPECS[spec.name] = spec
    return spec


def paper_spec(experiment_id: str) -> ScenarioSpec:
    """The registered spec for one paper experiment id (E1..E12)."""
    key = experiment_id.upper()
    if key not in PAPER_SPECS:
        raise HarnessError(
            f"unknown experiment {experiment_id!r}; valid: "
            f"{', '.join(PAPER_SPECS)}"
        )
    return PAPER_SPECS[key]


_paper(
    ScenarioSpec(
        name="E1",
        title="COUNT accuracy (Lemma 1)",
        description=(
            "Lemma 1: COUNT estimates the broadcaster count within "
            "constants; both estimation rules over an m sweep."
        ),
        trials=30,
        tags=("paper",),
        plan=_plan_e1,
        notes=(
            "Paper claim: COUNT returns an estimate within a constant "
            "factor of the true broadcaster count m, in O(lg^2 n) slots. "
            "Both rules should hold median ratios within [1/4, 4] across "
            "the m sweep; the paper-exact first-crossing rule needs the "
            "long rounds its hidden constant implies."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E2",
        title="CSEEK vs naive discovery scaling (Theorem 4)",
        description=(
            "Theorem 4: CSEEK's c-, Delta- and k-scaling against the "
            "naive baseline and the analytic bound curves."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e2,
        notes=_notes_e2,
    )
)
_paper(
    ScenarioSpec(
        name="E3",
        title="Discovery split across CSEEK's parts (Lemmas 2-3)",
        description=(
            "Lemmas 2/3: part one suffices on un-crowded channels; on "
            "crowded channels part two's weighted listening rescues."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e3,
        notes=(
            "Paper claims: (Lemma 2) part one alone finds neighbors on "
            "un-crowded channels — full-budget rows show part1_fraction "
            "~1.0; (Lemma 3) on crowded channels the part-two listener, "
            "by revisiting channels proportionally to sampled density, "
            "recovers the rest — in the starved rows the weighted "
            "listener's final_fraction beats the uniform ablation at the "
            "same slot budget."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E4",
        title="CKSEEK k-hat filter (Theorem 6)",
        description=(
            "Theorem 6: k-hat discovery gets strictly cheaper as k-hat "
            "grows."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e4,
        notes=(
            "Paper claim: finding only neighbors sharing >= khat channels "
            "costs O~(c^2/khat + (kmax/khat) Delta_khat + Delta) — "
            "strictly less than full CSEEK once khat > k. Expect "
            "schedule_slots to fall monotonically with khat while success "
            "stays 1.0."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E5",
        title="Line-graph Luby coloring (Lemma 8, Fact 7)",
        description=(
            "Lemma 8: 2*Delta-coloring completes in O(lg n) phases, "
            "always proper."
        ),
        trials=8,
        tags=("paper",),
        plan=_plan_e5,
        notes=_notes_e5,
    )
)
_paper(
    ScenarioSpec(
        name="E6",
        title="CGCAST vs naive broadcast (Theorem 9)",
        description=(
            "Theorem 9: CGCAST's per-hop dissemination cost is "
            "O~(Delta) while naive broadcast pays O~(c^2/k) per hop."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e6,
        notes=_notes_e6,
    )
)
_paper(
    ScenarioSpec(
        name="E7",
        title="Bipartite hitting games (Lemmas 10 and 12)",
        description=(
            "Lemmas 10/12: measured hitting times sit above the game "
            "floors."
        ),
        trials=30,
        tags=("paper",),
        plan=_plan_e7,
        notes=(
            "Paper claim: no player beats c^2/(8k) rounds (k <= c/2) or "
            "c/3 rounds (complete game) with probability 1/2. Expect "
            "every measured mean >= the floor, with the near-optimal "
            "fresh player within the constant-8 gap of c^2/k."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E8",
        title="Reduction to the game + Omega(Delta) (Lemma 11, Theorem 13)",
        description=(
            "Lemma 11 + Theorem 13: discovery algorithms, played through "
            "the reduction, respect the game floor; stars enforce the "
            "Omega(Delta) term."
        ),
        trials=15,
        tags=("paper",),
        plan=_plan_e8,
        notes=(
            "Paper claim: any discovery algorithm's first meeting, viewed "
            "through the Lemma 11 reduction, needs >= c^2/(8k) game "
            "rounds, and a star hub cannot finish before Delta receptions. "
            "Expect mean_rounds_to_meet >= game_floor in every row."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E9",
        title="Broadcast floor on channel-disjoint trees (Theorem 14)",
        description=(
            "Theorem 14: channel-disjoint trees force min(c, Delta)-1 "
            "slots per hop on any broadcast, CGCAST included."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e9,
        notes=(
            "Paper claim: with siblings sharing no channels, every "
            "broadcast needs >= depth * (min(c, Delta) - 1) slots. Expect "
            "both protocols' measured times above the analytic floor and "
            "the greedy omniscient schedule to match it exactly "
            "(greedy_oracle >= analytic_floor, with equality up to the "
            "root's head start)."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E10",
        title="Heterogeneity bias in part two (Section 7)",
        description=(
            "Section 7: part two is biased toward strongly overlapping "
            "neighbors — the source of the upper/lower bound gap when "
            "kmax >> k."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e10,
        notes=(
            "Paper discussion (Section 7): part two gives priority to "
            "crowded channels, so under a fixed (starved) budget, "
            "neighbors sharing kmax channels are discovered far more "
            "often than those sharing only k — the bias(high/low) column "
            "grows with kmax/k, which is exactly why the paper's upper "
            "and lower bounds diverge in this regime. Full-budget rows "
            "confirm Theorem 4's schedule (which stretches with kmax/k) "
            "still delivers complete discovery."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E11",
        title="Amortized repeated broadcast (extension of Theorem 9)",
        description=(
            "Extension: CGCAST's setup is reusable, so over repeated "
            "broadcasts its per-message cost drops to the dissemination "
            "stage while naive flooding pays full price every time."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e11,
        notes=_notes_e11,
    )
)
_paper(
    ScenarioSpec(
        name="E12",
        title="Primary-user interference robustness (extension)",
        description=(
            "Extension: discovery under primary-user channel occupancy — "
            "short bursts absorbed, long bursts erase meetings."
        ),
        trials=4,
        tags=("paper",),
        plan=_plan_e12,
        notes=(
            "Extension experiment: COUNT's many-slots-per-step structure "
            "makes CSEEK nearly immune to short occupancy bursts (every "
            "meeting step offers many reception chances), while bursts "
            "longer than a step erase whole meetings — completion "
            "stretches with occupancy and discovery finally fails when "
            "most of the schedule is occupied. The paper's w.h.p. "
            "budget constants are what buy this slack."
        ),
    )
)

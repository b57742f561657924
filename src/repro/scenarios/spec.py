"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one workload as data: a topology, a
channel-assignment regime, an optional primary-user interference
process, a protocol, a sweep grid, and the metric columns to report.
The compiler (:mod:`repro.scenarios.compile`) lowers any spec into the
trial closures the executor layer understands, so one spec runs
serially, on a process pool, or vectorized over the trial axis without
further code.

Specs come in two flavors:

* **Declarative** — every field is plain data (JSON-serializable via
  :func:`spec_to_dict` / :func:`spec_from_dict`), parameterized over the
  sweep axes through ``"$name"`` references. These are the specs users
  can write as ``.json`` files and tweak from the CLI with
  ``--set key=value``.
* **Plan-based** — the spec carries a ``plan`` callable producing the
  compiler's intermediate representation directly. The paper
  experiments E1-E12 (:mod:`repro.scenarios.paper`) use this escape
  hatch: their tables have bespoke columns, per-point seeds and fitted
  notes that predate the declarative layer and must stay row-identical.

Reference resolution: any string value ``"$x"`` inside ``params`` (or
the scalar fields of the assignment/interference specs) is replaced by
the sweep point's value for axis ``x``. Three built-ins are always in
scope: ``$seed`` (the master seed), ``$point`` (the 0-based sweep point
index) and ``$pseed`` (``seed + point`` — the conventional per-point
seed for topology/assignment randomness). For derived values, a
``{"$expr": "..."}`` object evaluates a simple arithmetic expression
over the same scope — ``{"$expr": "num_channels * 2"}`` doubles the
``num_channels`` axis value; see :func:`resolve` for the permitted
grammar.
"""

from __future__ import annotations

import ast
import hashlib
import json
import operator
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.model.errors import HarnessError
from repro.sim.environment import ENVIRONMENT_MODELS

__all__ = [
    "AssignmentSpec",
    "InterferenceSpec",
    "PrecisionSpec",
    "ProtocolSpec",
    "ScenarioSpec",
    "SweepSpec",
    "TopologySpec",
    "apply_overrides",
    "resolve",
    "spec_digest",
    "spec_from_dict",
    "spec_to_dict",
]

TOPOLOGY_KINDS = (
    "star",
    "path",
    "cycle",
    "grid",
    "complete_tree",
    "path_of_cliques",
    "random_geometric",
    "erdos_renyi",
    "random_regular",
    "two_node",
)
ASSIGNMENT_KINDS = (
    "exact_uniform",
    "heterogeneous",
    "global_core",
    "random_subsets",
)
PROTOCOL_KINDS = (
    "count",
    "cseek",
    "ckseek",
    "cgcast",
    "naive_discovery",
    "naive_broadcast",
)


_EXPR_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_EXPR_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_EXPR_FUNCS = {"abs": abs, "int": int, "max": max, "min": min,
               "round": round}
# ** with an unbounded integer exponent can materialize astronomically
# large ints before any other guard fires; no legitimate scenario
# parameter needs exponents beyond this.
_EXPR_MAX_EXPONENT = 64


def _eval_expr(text: object, scope: Mapping[str, object]) -> object:
    """Evaluate a ``{"$expr": ...}`` arithmetic expression over a scope.

    The grammar is deliberately tiny: numeric literals, scope names,
    the binary operators ``+ - * / // % **``, unary ``+``/``-``,
    parentheses and calls to ``min``/``max``/``abs``/``int``/``round``.
    Anything else — attribute access, subscripts, comparisons, lambdas
    — is rejected, so a scenario file can compute derived parameters
    without becoming a code-execution vector.
    """
    if not isinstance(text, str):
        raise HarnessError(
            f"$expr expects an expression string, got {text!r}"
        )
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise HarnessError(
            f"invalid $expr {text!r}: {exc.msg}"
        ) from None

    def ev(node: ast.AST) -> object:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return node.value
            raise HarnessError(
                f"$expr {text!r}: only numeric literals are allowed, "
                f"got {node.value!r}"
            )
        if isinstance(node, ast.Name):
            if node.id not in scope:
                raise HarnessError(
                    f"$expr {text!r}: unknown name {node.id!r}; in "
                    f"scope: {', '.join(sorted(scope))}"
                )
            return scope[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Pow) and (
                not isinstance(right, (int, float))
                or abs(right) > _EXPR_MAX_EXPONENT
            ):
                raise HarnessError(
                    f"$expr {text!r}: ** exponents are limited to "
                    f"|e| <= {_EXPR_MAX_EXPONENT}, got {right!r}"
                )
            return _EXPR_BINOPS[type(node.op)](left, right)
        if (
            isinstance(node, ast.UnaryOp)
            and type(node.op) in _EXPR_UNARYOPS
        ):
            return _EXPR_UNARYOPS[type(node.op)](ev(node.operand))
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.func.id not in _EXPR_FUNCS
                or node.keywords
            ):
                raise HarnessError(
                    f"$expr {text!r}: only "
                    f"{', '.join(sorted(_EXPR_FUNCS))} calls are "
                    "allowed"
                )
            return _EXPR_FUNCS[node.func.id](
                *(ev(arg) for arg in node.args)
            )
        raise HarnessError(
            f"$expr {text!r}: unsupported syntax "
            f"({type(node).__name__}); allowed: numbers, scope names, "
            "+ - * / // % **, parentheses, "
            f"{', '.join(sorted(_EXPR_FUNCS))}"
        )

    try:
        return ev(tree)
    except HarnessError:
        raise
    except (
        ZeroDivisionError,
        OverflowError,
        ValueError,
        TypeError,
    ) as exc:
        # Runtime arithmetic failures (division by zero, float
        # overflow, int() over a non-numeric axis value, ...) are spec
        # errors, not tracebacks.
        raise HarnessError(
            f"$expr {text!r} failed at this sweep point: {exc}"
        ) from None


def resolve(value: object, scope: Mapping[str, object]) -> object:
    """Substitute ``"$name"`` references against a sweep-point scope.

    Containers resolve recursively; non-reference values pass through.
    A mapping of the single key ``"$expr"`` evaluates its value as a
    small arithmetic expression over the scope (see :func:`_eval_expr`)
    — the DSL's escape hatch for derived parameters such as
    ``{"$expr": "num_channels * 2"}``.

    Raises:
        HarnessError: for a reference naming no axis or built-in, or an
            invalid ``$expr``.
    """
    if isinstance(value, str) and value.startswith("$"):
        name = value[1:]
        if name not in scope:
            raise HarnessError(
                f"unknown scenario reference {value!r}; in scope: "
                f"{', '.join(sorted(scope))}"
            )
        return scope[name]
    if isinstance(value, Mapping):
        if "$expr" in value:
            if set(value) != {"$expr"}:
                raise HarnessError(
                    "a $expr object must contain only the '$expr' key, "
                    f"got extra keys: "
                    f"{', '.join(sorted(set(value) - {'$expr'}))}"
                )
            return _eval_expr(value["$expr"], scope)
        return {k: resolve(v, scope) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [resolve(v, scope) for v in value]
    return value


@dataclass(frozen=True)
class SweepSpec:
    """The workload's parameter grid.

    Attributes:
        axes: Axis name -> list of values. Axis names become row
            columns and are referenceable as ``"$name"`` everywhere
            else in the spec.
        mode: ``"product"`` (the cartesian product, outer axes slowest)
            or ``"zip"`` (axes advance together; all must have equal
            length).
    """

    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    mode: str = "product"

    def __post_init__(self) -> None:
        if self.mode not in ("product", "zip"):
            raise HarnessError(
                f"sweep mode must be 'product' or 'zip', got {self.mode!r}"
            )
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise HarnessError(
                    f"sweep axis {name!r} needs a non-empty list of "
                    f"values, got {values!r}"
                )
        if self.mode == "zip" and self.axes:
            lengths = {len(v) for v in self.axes.values()}
            if len(lengths) > 1:
                raise HarnessError(
                    f"zip sweep axes must share one length, got {lengths}"
                )

    def points(self) -> list[Dict[str, object]]:
        """Expand the grid into ordered per-point parameter dicts."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        if self.mode == "zip":
            return [
                dict(zip(names, combo))
                for combo in zip(*(self.axes[n] for n in names))
            ]
        return [
            dict(zip(names, combo))
            for combo in product(*(self.axes[n] for n in names))
        ]


@dataclass(frozen=True)
class TopologySpec:
    """Connectivity graph: a generator from the topology zoo + params.

    ``params`` are handed to the generator after reference resolution;
    generators that take a ``seed`` default to ``$pseed`` when none is
    given.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise HarnessError(
                f"unknown topology kind {self.kind!r}; valid: "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )


@dataclass(frozen=True)
class AssignmentSpec:
    """Channel-assignment regime layered over (or inducing) the topology.

    The first three kinds mirror :func:`repro.graphs.builders.build_network`:
    every node gets ``c`` channels; edges overlap in at least ``k`` of
    them, per the regime. ``seed`` defaults to ``$pseed``.

    ``kind="random_subsets"`` is the white-space workload
    (:func:`repro.graphs.builders.build_random_subset_network`): ``n``
    nodes each sample ``c`` channels from a spectrum pool of
    ``pool_size``, and connectivity is *emergent* — two nodes are
    neighbors iff they share at least ``k`` channels (re-sampled up to
    ``max_tries`` times until connected). Because the assignment
    induces the graph, a ``random_subsets`` scenario must not carry a
    topology spec. ``n``, ``pool_size`` and ``max_tries`` resolve like
    every other field, so the pool size (or ``n``) can be a sweep axis.
    """

    kind: str = "exact_uniform"
    c: object = 8
    k: object = 1
    kmax: object = None
    high_fraction: object = 0.5
    seed: object = "$pseed"
    n: object = None
    pool_size: object = None
    max_tries: object = 64

    def __post_init__(self) -> None:
        if self.kind not in ASSIGNMENT_KINDS:
            raise HarnessError(
                f"unknown assignment kind {self.kind!r}; valid: "
                f"{', '.join(ASSIGNMENT_KINDS)}"
            )
        if self.kind == "random_subsets":
            if self.n is None or self.pool_size is None:
                raise HarnessError(
                    "assignment kind 'random_subsets' needs 'n' (node "
                    "count) and 'pool_size' (spectrum pool) parameters"
                )
            if self.kmax is not None or self.high_fraction != 0.5:
                raise HarnessError(
                    "assignment kind 'random_subsets' takes no "
                    "'kmax'/'high_fraction' parameters (they belong to "
                    "'heterogeneous'); overlap is emergent from the "
                    "sampled channel sets"
                )
        elif (
            self.n is not None
            or self.pool_size is not None
            or self.max_tries != 64
        ):
            raise HarnessError(
                f"assignment kind {self.kind!r} takes no 'n'/'pool_size'"
                "/'max_tries' parameters (they belong to "
                "'random_subsets')"
            )


@dataclass(frozen=True)
class InterferenceSpec:
    """Primary-user traffic over the network's channel universe.

    ``model`` selects the spectrum environment
    (:mod:`repro.sim.environment`): ``"markov"`` — bursty ON/OFF
    chains, the historical default — ``"poisson"`` — memoryless
    per-slot occupancy (``mean_dwell`` is ignored) — or ``"static"`` —
    a fixed ``blocked`` list of global channel ids (``activity``,
    ``mean_dwell`` and ``seed_offset`` are ignored). The model may be a
    ``"$axis"`` reference, making the traffic process itself a sweep
    axis.

    ``activity`` is a scalar occupancy target, or a list giving one
    target per channel of the network's (sorted) channel universe —
    heterogeneous licensed bands. Activity 0 (or an all-zero vector)
    disables the stochastic models at that sweep point (so an activity
    axis can include an interference-free control), as does an empty
    ``blocked`` set for ``static``. Per-trial traffic processes are
    seeded ``trial_seed + seed_offset`` to stay decorrelated from
    protocol coins.
    """

    model: object = "markov"
    activity: object = 0.0
    mean_dwell: object = 8.0
    seed_offset: object = 1000
    blocked: object = None

    def __post_init__(self) -> None:
        # Plain model names validate eagerly; "$axis" references (and
        # {"$expr": ...}) wait for sweep-point resolution, where
        # make_environment re-checks the resolved name.
        if (
            isinstance(self.model, str)
            and not self.model.startswith("$")
            and self.model.lower() not in ENVIRONMENT_MODELS
        ):
            raise HarnessError(
                f"unknown interference model {self.model!r}; valid: "
                f"{', '.join(ENVIRONMENT_MODELS)}"
            )


@dataclass(frozen=True)
class PrecisionSpec:
    """CI-targeted stopping: run trials until metrics resolve.

    A scenario carrying a precision spec runs through the *streaming*
    path (:func:`repro.scenarios.streaming.stream_scenario_spec`): each
    sweep point executes memory-capped chunks of trials, folding
    outcomes into online accumulators, until every targeted metric's
    confidence interval is narrower than its target — or ``max_trials``
    is reached.

    Attributes:
        targets: Metric name -> CI half-width target (a point stops
            once every achieved half-width is <= its target). Rate
            metrics (e.g.
            ``success``, ``band_rate``) use Wilson intervals; mean
            metrics (e.g. ``discovered_fraction``, ``mean_completion``)
            use t-based intervals. Median/quantile metrics are not
            targetable.
        confidence: Interval confidence level, in ``(0, 1)``.
        min_trials: Floor before the stopping rule may fire — guards
            against lucky early chunks deciding convergence.
        max_trials: Hard ceiling per sweep point.
        chunk: Trials resident per chunk (``0`` = the streaming
            executor's default). This is the memory cap's knob: peak
            state is ``O(chunk)``, never ``O(max_trials)``.
    """

    targets: Mapping[str, float] = field(default_factory=dict)
    confidence: float = 0.95
    min_trials: int = 32
    max_trials: int = 100_000
    chunk: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.targets, Mapping) or not self.targets:
            raise HarnessError(
                "precision needs a non-empty 'targets' mapping of "
                "metric -> CI half-width"
            )
        targets: Dict[str, float] = {}
        for metric, value in self.targets.items():
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not value > 0
            ):
                raise HarnessError(
                    f"precision target for {metric!r} must be a "
                    f"positive number, got {value!r}"
                )
            targets[str(metric)] = float(value)
        object.__setattr__(self, "targets", targets)
        if (
            isinstance(self.confidence, bool)
            or not isinstance(self.confidence, (int, float))
            or not 0.0 < self.confidence < 1.0
        ):
            raise HarnessError(
                f"precision confidence must lie in (0, 1), got "
                f"{self.confidence!r}"
            )
        object.__setattr__(self, "confidence", float(self.confidence))
        object.__setattr__(
            self,
            "min_trials",
            _as_int(self.min_trials, "precision min_trials"),
        )
        object.__setattr__(
            self,
            "max_trials",
            _as_int(self.max_trials, "precision max_trials"),
        )
        object.__setattr__(
            self, "chunk", _as_int(self.chunk, "precision chunk")
        )
        if self.min_trials < 1:
            raise HarnessError(
                f"precision min_trials must be >= 1, got {self.min_trials}"
            )
        if self.max_trials < self.min_trials:
            raise HarnessError(
                f"precision max_trials ({self.max_trials}) must be >= "
                f"min_trials ({self.min_trials})"
            )
        if self.chunk < 0:
            raise HarnessError(
                f"precision chunk must be >= 0, got {self.chunk}"
            )


@dataclass(frozen=True)
class ProtocolSpec:
    """The protocol under test plus its knobs.

    ``params`` go to the protocol constructor (after resolution):
    ``cseek`` accepts ``part1_steps``/``part2_steps``/``part2_listener``;
    ``ckseek`` additionally requires ``khat`` (``delta_khat`` defaults to
    the realized good-degree bound); ``cgcast``/``naive_broadcast``
    accept ``source``; the naive baselines pass the rest (e.g.
    ``max_slots``) to their constructors, and ``naive_broadcast``,
    which has no traffic model, rejects points with active
    interference; ``count`` takes ``m`` (broadcaster count,
    required, >= 1), ``max_count``, ``log_n``, ``rule`` and
    ``round_slots``, and nothing else. A param its kind rejects fails
    when the sweep point lowers, before any trial runs.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise HarnessError(
                f"unknown protocol kind {self.kind!r}; valid: "
                f"{', '.join(PROTOCOL_KINDS)}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One composable workload definition.

    Attributes:
        name: Registry id (case-insensitive, unique).
        title: Table headline.
        description: One-line summary for ``scenarios`` listings.
        trials: Default Monte Carlo trials per sweep point.
        experiment_id: Table id; defaults to ``name``.
        tags: Free-form labels (``"paper"`` marks E1-E12).
        sweep, topology, assignment, interference, protocol: The
            declarative core; see the respective spec classes.
        metrics: Optional subset of the protocol's stock metric columns
            to report (sweep-axis columns always appear).
        precision: Optional CI-targeted stopping contract
            (:class:`PrecisionSpec`). A spec carrying one, declarative
            or plan-based, runs through the streaming path.
        notes: Table notes — a string, or a callable
            ``(rows, ctx) -> str`` for notes computed from results.
        columns: Optional explicit column order.
        plan: Escape hatch — ``plan(ctx) -> iterable of Points``
            (see :mod:`repro.scenarios.compile`). A spec with a plan
            ignores the declarative core and cannot be serialized.
    """

    name: str
    title: str
    description: str = ""
    trials: int = 5
    experiment_id: Optional[str] = None
    tags: Tuple[str, ...] = ()
    sweep: Optional[SweepSpec] = None
    topology: Optional[TopologySpec] = None
    assignment: Optional[AssignmentSpec] = None
    interference: Optional[InterferenceSpec] = None
    protocol: Optional[ProtocolSpec] = None
    metrics: Optional[Tuple[str, ...]] = None
    precision: Optional[PrecisionSpec] = None
    notes: "str | Callable[..., str]" = ""
    columns: Optional[Sequence[str]] = None
    plan: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise HarnessError("scenario name must be non-empty")
        if self.trials < 1:
            raise HarnessError(
                f"scenario trials must be >= 1, got {self.trials}"
            )
        if self.plan is None and self.protocol is None:
            raise HarnessError(
                f"scenario {self.name!r} needs a protocol spec or a plan"
            )
        induces_graph = (
            self.assignment is not None
            and self.assignment.kind == "random_subsets"
        )
        if induces_graph and self.topology is not None:
            raise HarnessError(
                f"scenario {self.name!r}: a 'random_subsets' assignment "
                "induces its own connectivity graph and cannot be "
                "combined with a topology spec"
            )
        if (
            self.plan is None
            and self.protocol is not None
            and self.protocol.kind != "count"
            and self.topology is None
            and not induces_graph
        ):
            raise HarnessError(
                f"scenario {self.name!r}: protocol {self.protocol.kind!r} "
                "needs a topology spec"
            )

    @property
    def table_id(self) -> str:
        return self.experiment_id or self.name

    @property
    def is_declarative(self) -> bool:
        return self.plan is None


# ----------------------------------------------------------------------
# Serialization (the declarative subset)
# ----------------------------------------------------------------------
def _sub_to_dict(obj) -> Dict[str, object]:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Mapping):
            value = dict(value)
        out[f.name] = value
    return out


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, object]:
    """A JSON-ready dict for a declarative spec.

    Raises:
        HarnessError: for plan-based specs or callable notes — code
            cannot round-trip through JSON.
    """
    if spec.plan is not None:
        raise HarnessError(
            f"scenario {spec.name!r} is code-defined (plan-based) and "
            "cannot be serialized"
        )
    if callable(spec.notes):
        raise HarnessError(
            f"scenario {spec.name!r} has computed notes and cannot be "
            "serialized"
        )
    out: Dict[str, object] = {
        "name": spec.name,
        "title": spec.title,
        "description": spec.description,
        "trials": spec.trials,
    }
    if spec.experiment_id:
        out["experiment_id"] = spec.experiment_id
    if spec.tags:
        out["tags"] = list(spec.tags)
    if spec.sweep is not None:
        out["sweep"] = {
            "axes": {k: list(v) for k, v in spec.sweep.axes.items()},
            "mode": spec.sweep.mode,
        }
    if spec.topology is not None:
        out["topology"] = _sub_to_dict(spec.topology)
    if spec.assignment is not None:
        out["assignment"] = _sub_to_dict(spec.assignment)
    if spec.interference is not None:
        out["interference"] = _sub_to_dict(spec.interference)
    out["protocol"] = _sub_to_dict(spec.protocol)
    if spec.metrics is not None:
        out["metrics"] = list(spec.metrics)
    if spec.precision is not None:
        out["precision"] = _sub_to_dict(spec.precision)
    if spec.notes:
        out["notes"] = spec.notes
    if spec.columns is not None:
        out["columns"] = list(spec.columns)
    return out


def _as_int(value: object, where: str) -> int:
    """Coerce a spec/override value to int, failing as a spec error."""
    try:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, str)
        ):
            raise ValueError(value)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except ValueError:
        raise HarnessError(
            f"{where} must be an integer, got {value!r}"
        ) from None


def _build_sub(cls, payload: object, where: str):
    if not isinstance(payload, Mapping):
        raise HarnessError(f"{where} must be an object, got {payload!r}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise HarnessError(
            f"unknown {where} keys: {', '.join(sorted(unknown))}; "
            f"valid: {', '.join(sorted(allowed))}"
        )
    return cls(**payload)


def spec_from_dict(payload: Mapping[str, object]) -> ScenarioSpec:
    """Build a declarative spec from a dict (e.g. a parsed JSON file).

    Unknown keys raise — a typo in a scenario file or a ``--set`` path
    must fail loudly, not silently produce the default workload.
    """
    if not isinstance(payload, Mapping):
        raise HarnessError(
            f"scenario payload must be an object, got {payload!r}"
        )
    known = {
        "name",
        "title",
        "description",
        "trials",
        "experiment_id",
        "tags",
        "sweep",
        "topology",
        "assignment",
        "interference",
        "protocol",
        "metrics",
        "precision",
        "notes",
        "columns",
    }
    unknown = set(payload) - known
    if unknown:
        raise HarnessError(
            f"unknown scenario keys: {', '.join(sorted(unknown))}; "
            f"valid: {', '.join(sorted(known))}"
        )
    if "name" not in payload or "protocol" not in payload:
        raise HarnessError("a scenario needs at least 'name' and 'protocol'")
    sweep = None
    if "sweep" in payload:
        raw = payload["sweep"]
        if not isinstance(raw, Mapping) or set(raw) - {"axes", "mode"}:
            raise HarnessError(
                "sweep must be an object with 'axes' (and optional 'mode')"
            )
        sweep = SweepSpec(
            axes=dict(raw.get("axes", {})), mode=raw.get("mode", "product")
        )
    kwargs = dict(
        name=payload["name"],
        title=payload.get("title", payload["name"]),
        description=payload.get("description", ""),
        trials=_as_int(payload.get("trials", 5), "trials"),
        experiment_id=payload.get("experiment_id"),
        tags=tuple(payload.get("tags", ())),
        sweep=sweep,
        protocol=_build_sub(ProtocolSpec, payload["protocol"], "protocol"),
        notes=payload.get("notes", ""),
    )
    if "topology" in payload:
        kwargs["topology"] = _build_sub(
            TopologySpec, payload["topology"], "topology"
        )
    if "assignment" in payload:
        kwargs["assignment"] = _build_sub(
            AssignmentSpec, payload["assignment"], "assignment"
        )
    if "interference" in payload:
        kwargs["interference"] = _build_sub(
            InterferenceSpec, payload["interference"], "interference"
        )
    if "metrics" in payload:
        kwargs["metrics"] = tuple(payload["metrics"])
    if payload.get("precision") is not None:
        kwargs["precision"] = _build_sub(
            PrecisionSpec, payload["precision"], "precision"
        )
    if "columns" in payload:
        kwargs["columns"] = list(payload["columns"])
    return ScenarioSpec(**kwargs)


def spec_digest(spec: ScenarioSpec) -> str:
    """A short stable digest of the spec's *content*.

    Declarative specs digest their canonical JSON form, so any
    parameter change (a ``--set`` override included) changes the digest
    — callable notes are digested by name only, never at the cost of
    dropping the parameters. Plan-based specs digest their identity
    and their overridable data fields, the precision block included:
    their behavior lives in code, which the result cache already folds
    in as the code version.
    """
    if spec.is_declarative:
        if callable(spec.notes):
            payload = spec_to_dict(replace(spec, notes=""))
            payload["notes_callable"] = getattr(
                spec.notes, "__qualname__", repr(spec.notes)
            )
        else:
            payload = spec_to_dict(spec)
    else:
        # Plan behavior lives in code (covered by the cache's code
        # version); the overridable data fields still belong in the
        # digest so --set variants never collide.
        payload = {
            "name": spec.name,
            "plan": getattr(spec.plan, "__qualname__", repr(spec.plan)),
            "trials": spec.trials,
            "title": spec.title,
            "description": spec.description,
            "experiment_id": spec.experiment_id,
            "tags": list(spec.tags),
            "notes": (
                getattr(spec.notes, "__qualname__", repr(spec.notes))
                if callable(spec.notes)
                else spec.notes
            ),
            "columns": (
                list(spec.columns) if spec.columns is not None else None
            ),
            "precision": (
                _sub_to_dict(spec.precision)
                if spec.precision is not None
                else None
            ),
        }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# CLI overrides (--set key=value)
# ----------------------------------------------------------------------
def _set_path(tree: Dict[str, object], path: str, value: object) -> None:
    parts = path.split(".")
    node = tree
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise HarnessError(
                f"--set path {path!r}: {part!r} is not an object"
            )
        node = child
    node[parts[-1]] = value


def _parse_override_value(raw: str) -> object:
    try:
        return json.loads(raw)
    except ValueError:
        return raw  # bare strings (e.g. part2_listener=uniform)


# The spec fields that remain plain data on a plan-based (paper)
# scenario: everything else about those specs lives in their plan code.
_PLAN_DATA_FIELDS = (
    "trials",
    "title",
    "description",
    "experiment_id",
    "tags",
    "notes",
    "columns",
    "precision",
)


def _apply_plan_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, str]
) -> ScenarioSpec:
    """``--set`` on a plan-based spec: full dotted paths over its data.

    Reuses the declarative override machinery (:func:`_set_path` over a
    dict form, JSON value parsing) restricted to the fields that are
    data even when the workload itself is code — so
    ``--set trials=8``, ``--set experiment_id=E12-jammed`` or
    ``--set notes="..."`` work on E1-E12, as do
    ``--set precision.targets.mean_rounds=5`` and the CLI's
    ``--precision`` flags, while sweep/topology/protocol paths are
    rejected with an explanation instead of silently ignored.
    """
    tree: Dict[str, object] = {}
    for path in overrides:
        root = path.split(".", 1)[0]
        if root not in _PLAN_DATA_FIELDS:
            raise HarnessError(
                f"scenario {spec.name!r} is code-defined (plan-based): "
                f"--set path {path!r} addresses its plan, which is not "
                "overridable data. Plan-based scenarios accept: "
                f"{', '.join(_PLAN_DATA_FIELDS)}"
            )
        if root not in tree:
            value = getattr(spec, root)
            if isinstance(value, PrecisionSpec):
                value = _sub_to_dict(value)
            tree[root] = list(value) if isinstance(value, tuple) else value
    for path, raw in overrides.items():
        _set_path(tree, path, _parse_override_value(raw))
    if "trials" in tree:
        tree["trials"] = _as_int(tree["trials"], "trials")
    if "tags" in tree:
        if not isinstance(tree["tags"], (list, tuple)):
            raise HarnessError(
                f"tags must be a list, got {tree['tags']!r}"
            )
        tree["tags"] = tuple(tree["tags"])
    if tree.get("precision") is not None:
        tree["precision"] = _build_sub(
            PrecisionSpec, tree["precision"], "precision"
        )
    return replace(spec, **tree)


def apply_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, str]
) -> ScenarioSpec:
    """Apply ``--set path=value`` overrides, returning a new spec.

    Values parse as JSON when possible (so ``--set
    sweep.axes.activity=[0.1,0.8]`` and ``--set assignment.c=16`` work)
    and fall back to bare strings. Paths address the spec's dict form
    (``protocol.params.part1_steps``, ``trials``, ...).

    Plan-based (paper) scenarios accept the same dotted-path syntax
    over their data fields only (``trials``, ``title``,
    ``description``, ``experiment_id``, ``tags``, ``notes``,
    ``columns``, ``precision``); paths into their plan-owned structure
    (sweep, topology, protocol, ...) are rejected with a clear error.
    """
    if not overrides:
        return spec
    if not spec.is_declarative:
        return _apply_plan_overrides(spec, overrides)
    tree = spec_to_dict(spec)
    for path, raw in overrides.items():
        _set_path(tree, path, _parse_override_value(raw))
    return spec_from_dict(tree)

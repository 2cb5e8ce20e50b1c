"""Timed web-service orchestrations as colored occurrence nets.

The package models an orchestration as an occurrence net (or a sound
workflow net, unfolded first) whose transitions carry latency and value
attributes per scenario, executes it under a race policy, and decides
whether end-to-end latency is monotonic: can raising a service's latency
ever make the whole orchestration finish earlier?

Entry points:

* :func:`orchnet.document.load` / :func:`orchnet.document.build` turn a
  ``.net`` file into runnable objects.
* :func:`orchnet.timed.resolutions` runs the race policy under a tie
  policy: ``"lex"`` gives the one deterministic run, ``"all"`` one
  outcome per distinct tie resolution.  Every decider and the CLI go
  through it; :func:`orchnet.timed.execute` /
  :func:`orchnet.timed.end_to_end` are the lex run alone.  The grid
  sweeps race members on ``PreOrchNet.kernel``, which feeds the same race
  loop the same exact dates with each member's grid values filled in, and
  replay only their witness pair through ``resolutions``.
* :func:`orchnet.timed.eval_dates` gives the dates and values of a
  causally closed, conflict-free prefix by the max-plus rule, without a
  race.
* :func:`orchnet.nets.iter_maximal_configurations` yields the maximal
  configurations of an occurrence net one at a time, in the order of
  their sorted node tuples, so a caller can stop at the first it needs.
* :mod:`orchnet.monotony` has the deciders: the structural cluster
  condition, the global optimality condition, the brute-force grid
  oracle, counterexample synthesis, and conditional monotony.
* ``python -m orchnet`` (or the ``orchnet`` script) wraps all of the
  above with deterministic JSON reports.
"""

from .attributes import (
    DATE_INF,
    DATE_ZERO,
    ExtendedDate,
    Value,
    atom,
    date_of,
    format_date,
    num,
    parse_date,
    tup,
)
from .errors import (
    CapExceededError,
    DocumentError,
    EvaluationError,
    NetStructureError,
    OrchnetError,
    SynthesisError,
)
from .nets import (
    Net,
    WorkflowNet,
    clusters,
    compute_relations,
    configuration_of,
    is_configuration,
    is_sound,
    iter_maximal_configurations,
    maximal_configurations,
    net_from_arcs,
    require_occurrence_net,
    validate_occurrence_net,
)
from .specs import (
    INFINITE_LATENCY,
    GuardOperand,
    GuardSpec,
    LatencyExpr,
    LatencySpec,
    ValueFnSpec,
    const_latency,
    const_value_fn,
    per_omega_latency,
)
from .timed import (
    EndToEnd,
    FamilyAssignment,
    OrchNet,
    PreOrchNet,
    TimedRun,
    compare_families,
    end_to_end,
    eval_dates,
    execute,
    execute_all,
    future,
    latency_of_prefix,
    replace_class_latency,
    resolutions,
    run_values,
    summarize_run,
)
from .unfolding import CarrierSpecs, UnfoldingResult, induced_preorchnet, unfold
from .monotony import (
    ConditionalReport,
    GlobalConditionReport,
    OracleReport,
    StructuralReport,
    SynthesisOutcome,
    Verification,
    brute_force_monotony,
    check_distinct_values,
    check_global_condition,
    conditional_monotony_check,
    structural_check,
    synthesize_counterexample,
    verify_counterexample,
)
from .document import (
    NetDocument,
    build,
    build_carrier,
    document_from_orchnet,
    document_to_json,
    dumps,
    load,
    load_corpus,
    loads,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CarrierSpecs",
    "ConditionalReport",
    "DATE_INF",
    "DATE_ZERO",
    "DocumentError",
    "EndToEnd",
    "EvaluationError",
    "ExtendedDate",
    "FamilyAssignment",
    "GlobalConditionReport",
    "GuardOperand",
    "GuardSpec",
    "INFINITE_LATENCY",
    "LatencyExpr",
    "LatencySpec",
    "Net",
    "NetDocument",
    "NetStructureError",
    "OracleReport",
    "OrchNet",
    "OrchnetError",
    "PreOrchNet",
    "StructuralReport",
    "SynthesisError",
    "SynthesisOutcome",
    "TimedRun",
    "UnfoldingResult",
    "Value",
    "ValueFnSpec",
    "Verification",
    "WorkflowNet",
    "atom",
    "brute_force_monotony",
    "build",
    "build_carrier",
    "check_distinct_values",
    "check_global_condition",
    "clusters",
    "compare_families",
    "compute_relations",
    "conditional_monotony_check",
    "configuration_of",
    "const_latency",
    "const_value_fn",
    "date_of",
    "document_from_orchnet",
    "document_to_json",
    "dumps",
    "end_to_end",
    "eval_dates",
    "execute",
    "execute_all",
    "format_date",
    "future",
    "induced_preorchnet",
    "is_configuration",
    "is_sound",
    "iter_maximal_configurations",
    "latency_of_prefix",
    "load",
    "load_corpus",
    "loads",
    "maximal_configurations",
    "net_from_arcs",
    "num",
    "parse_date",
    "per_omega_latency",
    "replace_class_latency",
    "resolutions",
    "require_occurrence_net",
    "run_values",
    "structural_check",
    "summarize_run",
    "synthesize_counterexample",
    "tup",
    "unfold",
    "validate_occurrence_net",
    "verify_counterexample",
]

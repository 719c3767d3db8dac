"""Experiment harness: paper scenarios, figure drivers, ratio study and ablations."""

from .._lazy import lazy_exports

__all__ = [
    "NetworkScenario",
    "CASE_1",
    "CASE_2",
    "SCENARIOS",
    "PaperParameters",
    "PAPER_PARAMETERS",
    "build_scenario_system",
    "Scenario",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "Collector",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "build_plan",
    "smoke_spec",
    "FigureSpec",
    "FigurePoint",
    "FigureResult",
    "FIGURE_SPECS",
    "run_figure",
    "ReproductionReport",
    "ShapeChecks",
    "generate_report",
    "RatioPoint",
    "BlockingRatioStudy",
    "run_blocking_ratio_study",
    "AblationRow",
    "AblationStudy",
    "sweep_switch_ports",
    "sweep_switch_latency",
    "sweep_generation_rate",
    "sweep_message_size",
    "fixed_point_vs_exact_mva",
    "service_distribution_ablation",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".ablations": (
        "AblationRow", "AblationStudy", "fixed_point_vs_exact_mva",
        "service_distribution_ablation", "sweep_generation_rate", "sweep_message_size",
        "sweep_switch_latency", "sweep_switch_ports",
    ),
    ".blocking_ratio": ("BlockingRatioStudy", "RatioPoint", "run_blocking_ratio_study"),
    ".figures": ("FIGURE_SPECS", "FigurePoint", "FigureResult", "FigureSpec", "run_figure"),
    ".pipeline": (
        "build_plan", "Collector", "ExperimentPlan", "ExperimentResult", "ExperimentRunner",
        "ExperimentSpec", "smoke_spec",
    ),
    ".report": ("generate_report", "ReproductionReport", "ShapeChecks"),
    ".scenarios": (
        "build_scenario_system", "CASE_1", "CASE_2", "get_scenario", "NetworkScenario",
        "PAPER_PARAMETERS", "PaperParameters", "register_scenario", "Scenario", "scenario_names",
        "SCENARIO_REGISTRY", "SCENARIOS",
    ),
})

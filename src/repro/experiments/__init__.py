"""Experimental harness: paper examples, random sweeps, Table 2."""

from .._lazy import lazy_exports

# The campaign spec needs only ``generator``; the harness is imported on
# first use (``repro._lazy``).
__getattr__, __dir__ = lazy_exports(globals(), {
    ".examples_paper": ("EXAMPLE_A_EXPECTED", "EXAMPLE_B_EXPECTED",
                        "EXAMPLE_C_STRUCTURE", "example_a", "example_b",
                        "example_c"),
    ".generator": ("TABLE2_CONFIGS", "ExperimentConfig", "instance_from_config",
                   "random_instance", "random_replication"),
    ".analysis": ("FamilySummary", "feature_report", "gap_histogram",
                  "summarize"),
    ".io": ("portfolio_to_json", "records_from_csv", "records_to_csv",
            "restarts_to_csv"),
    ".runner": ("ExperimentRecord", "family_seeds", "run_family", "run_single"),
    ".table2": ("Table2Row", "format_table2", "run_table2"),
})

__all__ = [
    "example_a",
    "example_b",
    "example_c",
    "EXAMPLE_A_EXPECTED",
    "EXAMPLE_B_EXPECTED",
    "EXAMPLE_C_STRUCTURE",
    "ExperimentConfig",
    "TABLE2_CONFIGS",
    "random_instance",
    "random_replication",
    "instance_from_config",
    "ExperimentRecord",
    "run_single",
    "run_family",
    "family_seeds",
    "Table2Row",
    "run_table2",
    "format_table2",
    "records_to_csv",
    "records_from_csv",
    "portfolio_to_json",
    "restarts_to_csv",
    "FamilySummary",
    "summarize",
    "gap_histogram",
    "feature_report",
]

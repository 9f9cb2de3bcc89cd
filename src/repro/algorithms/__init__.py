"""Period algorithms: Theorem 1 (polynomial), full-TPN, bounds."""

from .._lazy import lazy_exports

# Imported on first use (``repro._lazy``): the period oracle does not load
# the certificate checker and its spectral tools.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".bounds": ("CriticalResourceVerdict", "classify_critical_resource",
                "period_lower_bound"),
    ".general_tpn": ("TpnSolution", "describe_critical_cycle", "tpn_period"),
    ".overlap_poly": ("ColumnContribution", "OverlapBreakdown",
                      "overlap_period"),
    ".verify": ("PeriodCertificate", "certify_period", "check_certificate"),
})

__all__ = [
    "PeriodCertificate",
    "certify_period",
    "check_certificate",
    "overlap_period",
    "OverlapBreakdown",
    "ColumnContribution",
    "tpn_period",
    "TpnSolution",
    "describe_critical_cycle",
    "period_lower_bound",
    "classify_critical_resource",
    "CriticalResourceVerdict",
]

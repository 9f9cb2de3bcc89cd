"""Timed Petri net models of replicated workflow mappings."""

from .._lazy import lazy_exports

# Imported on first use (``repro._lazy``): building a net loads neither the
# token game, serialization nor validation.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".builder": ("DEFAULT_MAX_ROWS", "build_tpn"),
    ".marking": ("FiringEvent", "TokenGameTrace", "circuit_invariants",
                 "play_token_game", "verify_invariant_during_game"),
    ".net": ("Place", "PlaceKind", "TimedEventGraph", "Transition"),
    ".reduction": ("CommPattern", "CompColumn", "column_subgraph",
                   "comm_patterns", "computation_column"),
    ".serialization": ("tpn_from_dict", "tpn_from_json", "tpn_to_dict",
                       "tpn_to_json"),
    ".validate": ("TpnReport", "validate_tpn"),
})

__all__ = [
    "TimedEventGraph",
    "Transition",
    "Place",
    "PlaceKind",
    "build_tpn",
    "DEFAULT_MAX_ROWS",
    "validate_tpn",
    "TpnReport",
    "CommPattern",
    "CompColumn",
    "comm_patterns",
    "computation_column",
    "column_subgraph",
    "play_token_game",
    "TokenGameTrace",
    "FiringEvent",
    "circuit_invariants",
    "verify_invariant_during_game",
    "tpn_to_dict",
    "tpn_from_dict",
    "tpn_to_json",
    "tpn_from_json",
]

"""Communication-network models: technologies, switches, and service-time models."""

from .._lazy import lazy_exports

__all__ = [
    "NetworkTechnology",
    "GIGABIT_ETHERNET",
    "FAST_ETHERNET",
    "MYRINET",
    "INFINIBAND_4X",
    "TEN_GIGABIT_ETHERNET",
    "TECHNOLOGY_PRESETS",
    "get_technology",
    "SwitchFabric",
    "PAPER_SWITCH",
    "CommunicationNetworkModel",
    "NonBlockingNetworkModel",
    "BlockingNetworkModel",
    "build_network_model",
    "us_to_s",
    "s_to_us",
    "ms_to_s",
    "s_to_ms",
    "mbps_to_bytes_per_s",
    "bytes_per_s_to_mbps",
    "bandwidth_to_seconds_per_byte",
    "MICROSECONDS_PER_SECOND",
    "BYTES_PER_MEGABYTE",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".models": (
        "BlockingNetworkModel", "build_network_model", "CommunicationNetworkModel",
        "NonBlockingNetworkModel",
    ),
    ".switch": ("PAPER_SWITCH", "SwitchFabric"),
    ".technologies": (
        "FAST_ETHERNET", "get_technology", "GIGABIT_ETHERNET", "INFINIBAND_4X", "MYRINET",
        "NetworkTechnology", "TECHNOLOGY_PRESETS", "TEN_GIGABIT_ETHERNET",
    ),
    ".units": (
        "bandwidth_to_seconds_per_byte", "BYTES_PER_MEGABYTE", "bytes_per_s_to_mbps",
        "mbps_to_bytes_per_s", "MICROSECONDS_PER_SECOND", "ms_to_s", "s_to_ms", "s_to_us",
        "us_to_s",
    ),
})

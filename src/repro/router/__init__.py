"""The Section 6 case study: a 4-port packet router with a board-side
checksum application."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "app": ("ChecksumApp", "install_checksum_app"),
    "buffer": ("PacketBuffer",),
    "checksum": ("IncrementalChecksum", "checksum16", "verify16"),
    "consumer": ("Consumer",),
    "driver": ("RouterDriver",),
    "packet": ("CHECKSUM_SIZE", "HEADER_SIZE", "Packet", "PacketError"),
    "producer": ("Producer",),
    "router": (
        "NUM_PORTS", "REG_PACKET", "REG_STATS", "REG_STATUS", "REG_VERDICT",
        "Router", "VERDICT_BAD", "VERDICT_OK",
    ),
    "routing_table": ("RoutingError", "RoutingTable"),
    "stats": ("WorkloadStats",),
})

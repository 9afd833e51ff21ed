"""IP address, prefix and AS primitives shared by every substrate.

Public surface:

* :class:`IPAddress`, :class:`Prefix` — immutable value types.
* :func:`is_rfc1918` / :func:`is_private` / :func:`is_public` — the
  address classification the last-mile methodology depends on.
* :class:`RadixTrie` / :class:`DualStackTrie` — longest-prefix match.
* :class:`ASRegistry`, :class:`ASInfo`, :class:`ASRole`,
  :class:`AccessTechnology` — the AS catalogue.
* :class:`AddressPool`, :class:`SubnetPool` — deterministic allocators.
"""

from .addr import (
    IPAddress,
    format_address,
    format_ipv4,
    format_ipv6,
    parse_address,
    parse_ipv4,
    parse_ipv6,
)
from .asn import AccessTechnology, ASInfo, ASRegistry, ASRole
from .errors import (
    AddressParseError,
    CorruptLineError,
    DegenerateSignalError,
    EmptyPopulationError,
    MalformedRecordError,
    MeasurementDataError,
    NetbaseError,
    PoolExhaustedError,
    PrefixParseError,
    TransientFaultError,
    VersionMismatchError,
)
from .pools import AddressPool, SubnetPool
from .prefix import Prefix, common_supernet
from .special import is_cgn, is_private, is_public, is_rfc1918
from .trie import DualStackTrie, RadixTrie

__all__ = [
    "IPAddress",
    "Prefix",
    "common_supernet",
    "parse_ipv4",
    "format_ipv4",
    "parse_ipv6",
    "format_ipv6",
    "parse_address",
    "format_address",
    "is_rfc1918",
    "is_cgn",
    "is_private",
    "is_public",
    "RadixTrie",
    "DualStackTrie",
    "ASRegistry",
    "ASInfo",
    "ASRole",
    "AccessTechnology",
    "AddressPool",
    "SubnetPool",
    "NetbaseError",
    "MeasurementDataError",
    "CorruptLineError",
    "MalformedRecordError",
    "EmptyPopulationError",
    "DegenerateSignalError",
    "TransientFaultError",
    "AddressParseError",
    "PrefixParseError",
    "VersionMismatchError",
    "PoolExhaustedError",
]

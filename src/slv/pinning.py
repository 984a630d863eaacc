"""Client-side pinning of verified server locations.

A pin records the regions where a domain's servers have previously been
verified to be. Later verification results are judged against those
regions and classified as Critical, Suspicious or Unsuspicious; what a
client does with the classification is left to a policy hook.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Callable, Optional, Sequence

from .geo import Circle, Location, _checked_number, point_in_circle
from .verify import IPInfo, VerificationResult, _checked_text, format_timestamp, parse_timestamp

DEFAULT_RMAX = 3

PinStore = dict[str, "PinEntry"]

PolicyHook = Callable[[str, "Outcome", VerificationResult], None]


class Outcome(Enum):
    """Trust classification of a verification result for a domain."""

    CRITICAL = "Critical"
    SUSPICIOUS = "Suspicious"
    UNSUSPICIOUS = "Unsuspicious"


class CorruptStoreError(ValueError):
    """The on-disk pin store cannot be parsed."""


@dataclass
class PinEntry:
    """Pinned state for one domain.

    ips lists the addresses the domain has resolved to, unique by value
    and unbounded; ver_regs lists the verified regions, capped at rmax.
    """

    name: str
    ips: list[IPInfo] = field(default_factory=list)
    ver_regs: list[Circle] = field(default_factory=list)
    rmax: int = DEFAULT_RMAX
    when_veri: Optional[datetime] = None
    when_pin: Optional[datetime] = None

    def __post_init__(self) -> None:
        if not _checked_text("name", self.name) or self.name != self.name.lower():
            raise ValueError(f"domain name must be non-empty lowercase: {self.name!r}")
        _checked_number("rmax", self.rmax, 1, integer=True)
        if len(self.ver_regs) > self.rmax:
            raise ValueError(f"{len(self.ver_regs)} regions exceed rmax={self.rmax}")
        values = [ip.value for ip in self.ips]
        if len(set(values)) != len(values):
            raise ValueError("pinned IPs must be unique by value")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ips": [ip.to_dict() for ip in self.ips],
            "ver_regs": [reg.to_dict() for reg in self.ver_regs],
            "rmax": self.rmax,
            "when_veri": format_timestamp(self.when_veri) if self.when_veri else None,
            "when_pin": format_timestamp(self.when_pin) if self.when_pin else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PinEntry":
        return cls(
            name=data["name"],
            ips=[IPInfo.from_dict(ip) for ip in data.get("ips", [])],
            ver_regs=[Circle.from_dict(reg) for reg in data.get("ver_regs", [])],
            rmax=data.get("rmax", DEFAULT_RMAX),
            when_veri=parse_timestamp(data["when_veri"]) if data.get("when_veri") else None,
            when_pin=parse_timestamp(data["when_pin"]) if data.get("when_pin") else None,
        )


def containment_check(loc: Location, regs: Sequence[Circle]) -> Optional[int]:
    """Index of the first region containing loc in list order, else None."""
    for index, region in enumerate(regs):
        if point_in_circle(loc, region):
            return index
    return None


def _upsert_ip(ips: list[IPInfo], ip: IPInfo) -> None:
    for index, known in enumerate(ips):
        if known.value == ip.value:
            ips[index] = ip
            return
    ips.append(ip)


def evaluate_pin(
    store: PinStore,
    domain: str,
    result: VerificationResult,
    now: datetime,
    *,
    rmax: int = DEFAULT_RMAX,
    policy_hook: Optional[PolicyHook] = None,
) -> Outcome:
    """Judge a verification result against the pin store, updating it.

    For a pinned domain: a failed verification is Critical; a verified
    assertion inside one of the pinned regions refreshes the entry
    (Unsuspicious); a verified assertion outside every pinned region is
    added as a new region while the domain's region budget allows
    (Unsuspicious) and is Critical once the budget is exhausted, even
    though verification succeeded. An unpinned domain is pinned on its
    first verified result (Unsuspicious, with `rmax` as its budget) and is
    merely Suspicious when unverified.

    The store is mutated only on Unsuspicious outcomes. `policy_hook`, if
    given, receives (domain, outcome, result) after classification;
    enforcement is entirely the hook's business.
    """
    domain = domain.lower()
    if not domain:
        raise ValueError("domain must be non-empty")

    pin = store.get(domain)
    if pin is not None:
        if not result.veri_passed:
            outcome = Outcome.CRITICAL
        else:
            found = containment_check(result.ip.loc, pin.ver_regs)
            if found is not None:
                _upsert_ip(pin.ips, result.ip)
                pin.when_veri = result.when_veri
                outcome = Outcome.UNSUSPICIOUS
            elif len(pin.ver_regs) < pin.rmax:
                pin.ver_regs.append(result.region)
                outcome = Outcome.UNSUSPICIOUS
            else:
                outcome = Outcome.CRITICAL
    elif result.veri_passed:
        store[domain] = PinEntry(
            name=domain,
            ips=[result.ip],
            ver_regs=[result.region],
            rmax=rmax,
            when_veri=result.when_veri,
            when_pin=now,
        )
        outcome = Outcome.UNSUSPICIOUS
    else:
        outcome = Outcome.SUSPICIOUS

    if policy_hook is not None:
        policy_hook(domain, outcome, result)
    return outcome


def persist_store(store: PinStore, path) -> None:
    """Write the store as a JSON array of pin entries, atomically replacing
    any previous file."""
    entries = [store[name].to_dict() for name in sorted(store)]
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(entries, indent=2) + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_store(path) -> PinStore:
    """Read a store written by persist_store. A missing file is an empty
    store; an unreadable one raises CorruptStoreError and is left intact."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise ValueError("pin store must be a JSON array")
        store: PinStore = {}
        for data in entries:
            entry = PinEntry.from_dict(data)
            store[entry.name] = entry
        return store
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CorruptStoreError(f"cannot read pin store {path}: {exc}") from exc

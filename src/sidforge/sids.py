"""Semantic-ID containers and the tab-separated SID file format.

A SID is an ordered tuple of small integer codes: a hierarchical part
(one digit per residual level, 3 by default) followed by a product-code
part (one digit per subspace, 2 by default). SIDs are rendered
everywhere as comma-joined digits, e.g. ``17,3,250,12,98``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from ._records import read_records, write_records

# Entries one scheme's parse memo holds at most; texts past it are parsed
# every time, so memory stays bounded on catalogs of 10^6 distinct SIDs.
_PARSE_MEMO_CAP = 1 << 14


@dataclass(frozen=True)
class Sid:
    """One item's code tuple: hierarchical digits plus product digits."""

    rq: tuple[int, ...]
    opq: tuple[int, ...] = ()

    @property
    def digits(self) -> tuple[int, ...]:
        return self.rq + self.opq

    def render(self) -> str:
        return ",".join(str(d) for d in self.digits)

    def __len__(self) -> int:
        return len(self.rq) + len(self.opq)


@dataclass(frozen=True)
class SidScheme:
    """Per-position code ranges; position ``i`` admits codes in ``[0, sizes[i])``."""

    rq_sizes: tuple[int, ...]
    opq_sizes: tuple[int, ...] = ()
    # text -> Sid for texts that parsed and validated
    _parsed: dict[str, Sid] = field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    def __post_init__(self) -> None:
        if not self.rq_sizes:
            raise ValueError("scheme needs at least one hierarchical level")
        for w in self.rq_sizes + self.opq_sizes:
            if w < 1:
                raise ValueError(f"level sizes must be positive, got {w}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.rq_sizes + self.opq_sizes

    @property
    def length(self) -> int:
        return len(self.rq_sizes) + len(self.opq_sizes)

    def validate(self, sid: Sid) -> Sid:
        if len(sid.rq) != len(self.rq_sizes) or len(sid.opq) != len(self.opq_sizes):
            raise ValueError(
                f"SID shape {len(sid.rq)}+{len(sid.opq)} does not match scheme "
                f"{len(self.rq_sizes)}+{len(self.opq_sizes)}"
            )
        for pos, (code, size) in enumerate(zip(sid.digits, self.sizes)):
            # numpy integers are Integral; a bool is an int but no digit
            if type(code) is not int and (isinstance(code, bool)
                                          or not isinstance(code, numbers.Integral)):
                raise ValueError(f"code {code!r} at position {pos} is not an integer")
            if not 0 <= code < size:
                raise ValueError(f"code {code} at position {pos} outside [0, {size})")
        return sid

    def parse(self, text: str) -> Sid:
        """The SID ``text`` spells exactly as :meth:`Sid.render` writes it."""
        sid = self._parsed.get(text)
        if sid is not None:
            return sid
        parts = text.split(",")
        if len(parts) != self.length:
            raise ValueError(f"expected {self.length} digits, got {len(parts)!r} in {text!r}")
        digits = tuple(int(p) for p in parts)
        n_rq = len(self.rq_sizes)
        sid = self.validate(Sid(rq=digits[:n_rq], opq=digits[n_rq:]))
        if sid.render() != text:
            raise ValueError(f"SID {text!r} is not in canonical form {sid.render()!r}")
        if len(self._parsed) < _PARSE_MEMO_CAP:
            self._parsed[text] = sid
        return sid

    def check(self, texts: Sequence[str]) -> None:
        """:meth:`parse` each text in order, keeping nothing; when every text
        is in the memo, that is one lookup each."""
        if not self.known(texts):
            for text in texts:
                self.parse(text)

    def known(self, texts: Sequence[str]) -> bool:
        """Whether every text is in the parse memo, so :meth:`parse` would
        return it without raising; one lookup each, and it never raises."""
        return all(map(self._parsed.__contains__, texts))


class SidCatalog:
    """Read-only mapping of item id to SID, each checked once against the scheme."""

    def __init__(self, entries: Mapping[str, Sid], scheme: SidScheme):
        self.scheme = scheme
        self.entries: Mapping[str, Sid] = MappingProxyType(dict(entries))
        for sid in self.entries.values():
            scheme.validate(sid)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, Sid]]:
        return iter(self.entries.items())

    def sids(self) -> list[Sid]:
        return list(self.entries.values())


def write_sid_file(path: str | Path, entries: Iterable[tuple[str, Sid]]) -> None:
    """Write ``id<TAB>c1,c2,...`` lines; iteration order is preserved."""
    write_records(path, ((item_id, sid.render()) for item_id, sid in entries))


def read_sid_sequence(path: str | Path, scheme: SidScheme) -> list[tuple[str, Sid]]:
    """``(id, sid)`` rows of a SID file in line order, duplicates kept."""
    return read_records(path, lambda item_id, rendered: (item_id, scheme.parse(rendered)),
                        fields=2)


def read_sid_file(path: str | Path, scheme: SidScheme) -> SidCatalog:
    """The catalog of a SID file; the last line wins on a duplicate id."""
    return SidCatalog(dict(read_sid_sequence(path, scheme)), scheme)

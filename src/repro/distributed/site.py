"""A site holding one or more fragments.

The common case is one fragment per site ("We assume w.l.o.g. that each Fi
is stored at site Si", Section 2.1) — but the same section notes that
"multiple fragments may reside in a single site, and our algorithms can be
easily adapted to accommodate this."  :class:`Site` therefore holds a list
of fragments; the algorithms evaluate all of a site's fragments during its
single visit and ship one combined partial answer.

Sites stay thin otherwise: the algorithms are pure functions over
fragments, and the site adds identity only.

Executor note (DESIGN.md §5): site-local tasks receive *fragments*, not
sites, so the socket backend never has to ship a :class:`Site`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import DistributedError
from ..partition.fragment import Fragment


class Site:
    """One storage/compute site of the simulated cluster."""

    def __init__(self, site_id: int, fragments: Sequence[Fragment]) -> None:
        if not fragments:
            raise DistributedError(f"site {site_id} must hold at least one fragment")
        self.site_id = site_id
        self.fragments: List[Fragment] = list(fragments)

    @property
    def fragment(self) -> Fragment:
        """The site's fragment, when it holds exactly one (the common case)."""
        if len(self.fragments) != 1:
            raise DistributedError(
                f"site {self.site_id} holds {len(self.fragments)} fragments; "
                "iterate site.fragments instead"
            )
        return self.fragments[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site(id={self.site_id}, fragments={[f.fid for f in self.fragments]})"

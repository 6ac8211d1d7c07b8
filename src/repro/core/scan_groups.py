"""Scan-group abstractions.

A *scan group* is the collection of same-quality scans of every image in a
record (Section 3.1).  The :class:`ScanGroupPolicy` maps the codec's scan
indices (1-based, typically 10 per image) onto scan-group indices; the
default is the identity mapping, but scans may also be merged (e.g. groups
``[1], [2, 3, 4], [5..10]``) which the paper notes is useful because
adjacent scans often cluster in quality (Section 4.4, A.6.1).

:class:`ScanGroupDecision` is the record of *choosing* one.  The tuners of
:mod:`repro.tuning` and the policies of :mod:`repro.control` both return
it; it lives here, below both, so neither imports the other to share it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.errors import ScanGroupError

DEFAULT_N_SCANS = 10

#: Scan groups highlighted throughout the paper's evaluation.
PAPER_EVALUATED_GROUPS = (1, 2, 5, 10)

#: The three values of :attr:`ScanGroupDecision.direction`.
HOLD = "hold"
UP = "up"
DOWN = "down"


@dataclass
class ScanGroupDecision:
    """One autotuning outcome (§4.5): which scan group to read at, and why.

    The field names are the keys of :meth:`to_payload`, which is what the
    decision log's readers see.  An offline tuner writes its epoch into
    ``interval`` and its probe losses / gradient cosines per group into
    ``inputs``; an online policy writes the control interval and the
    window it decided on.
    """

    chosen_group: int
    #: The group in force when the decision was taken (``None``: none yet).
    previous_group: int | None
    inputs: dict
    interval: int
    reason: str = ""

    @property
    def direction(self) -> str:
        """``up`` / ``down`` against ``previous_group``, else ``hold``."""
        if self.previous_group is None or self.chosen_group == self.previous_group:
            return HOLD
        return UP if self.chosen_group > self.previous_group else DOWN

    @property
    def changed(self) -> bool:
        return self.direction != HOLD

    def to_payload(self) -> dict:
        return {**asdict(self), "direction": self.direction}


@dataclass(frozen=True)
class ScanGroupPolicy:
    """Maps per-image scan indices to scan-group indices.

    Attributes
    ----------
    groups:
        A tuple of tuples; ``groups[g]`` lists the (1-based) scan indices
        that belong to scan group ``g + 1``.  Groups must partition
        ``1..n_scans`` into contiguous, increasing runs so that reading
        groups ``1..k`` always corresponds to reading a prefix of scans.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        expected = 1
        for group in self.groups:
            if not group:
                raise ScanGroupError("scan groups must be non-empty")
            for scan in group:
                if scan != expected:
                    raise ScanGroupError(
                        "scan groups must partition scans into contiguous increasing runs; "
                        f"expected scan {expected}, got {scan}"
                    )
                expected += 1

    @classmethod
    def identity(cls, n_scans: int = DEFAULT_N_SCANS) -> "ScanGroupPolicy":
        """One scan group per scan (the paper's default: 10 groups)."""
        return cls(groups=tuple((i,) for i in range(1, n_scans + 1)))

    @classmethod
    def clustered(cls, boundaries: list[int], n_scans: int = DEFAULT_N_SCANS) -> "ScanGroupPolicy":
        """Merge scans into groups ending at each boundary.

        ``boundaries=[1, 4, 10]`` produces groups ``(1,), (2, 3, 4), (5..10)``.
        """
        if not boundaries or boundaries[-1] != n_scans:
            raise ScanGroupError(f"boundaries must end at n_scans={n_scans}")
        groups: list[tuple[int, ...]] = []
        start = 1
        for boundary in boundaries:
            if boundary < start:
                raise ScanGroupError("boundaries must be strictly increasing")
            groups.append(tuple(range(start, boundary + 1)))
            start = boundary + 1
        return cls(groups=tuple(groups))

    @property
    def n_groups(self) -> int:
        """Number of scan groups."""
        return len(self.groups)

    @property
    def n_scans(self) -> int:
        """Total number of per-image scans covered."""
        return sum(len(group) for group in self.groups)

    def scans_in_group(self, group_index: int) -> tuple[int, ...]:
        """Return the scan indices of 1-based ``group_index``."""
        self.validate_group(group_index)
        return self.groups[group_index - 1]

    def validate_group(self, group_index: int) -> None:
        """Raise :class:`ScanGroupError` unless ``1 <= group_index <= n_groups``."""
        if not 1 <= group_index <= self.n_groups:
            raise ScanGroupError(
                f"scan group {group_index} out of range [1, {self.n_groups}]"
            )

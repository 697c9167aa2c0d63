"""OEIS b-file client with bundled fixtures.

The b-file wire format is plain text: one ``index value`` pair per line,
``#`` comment lines and blank lines ignored, indices strictly increasing.
Fixtures for the three shipped sequences are bundled so the test suite and
the default CLI path never touch the network; online fetching is opt-in,
writes nothing to disk and falls back to the fixture on failure.

Index alignment: for all three shipped sequences the b-file index ``n``
carries the count of objects of size ``n`` in this package's indexing, so
computed ``values[n]`` is compared with the b-file entry at ``n``.
"""

from __future__ import annotations

import importlib.resources
import warnings

from .counts import CountSequence
from .records import Record

#: OEIS ids of the shipped varieties.
SEQUENCE_IDS = {
    "polya": "A000081",
    "identity": "A004111",
    "hierarchy": "A000669",
}

OEIS_URL_TEMPLATE = "https://oeis.org/{sid}/b{digits}.txt"

#: seconds that ``--fetch`` waits for oeis.org
FETCH_TIMEOUT = 30.0


class BFileFormatError(ValueError):
    """Malformed b-file content."""


class OeisFixture(Record):
    """Parsed b-file: ``(index, value)`` pairs with strictly increasing index."""

    sequence_id: str
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = None
        for n, _ in self.pairs:
            if last is not None and n <= last:
                raise BFileFormatError(
                    f"{self.sequence_id}: indices not strictly increasing at {n}"
                )
            last = n

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def parse_b_file(sequence_id: str, text: str) -> OeisFixture:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileFormatError(f"{sequence_id} line {lineno}: expected 'index value'")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise BFileFormatError(f"{sequence_id} line {lineno}: non-integer field")
    return OeisFixture(sequence_id, tuple(pairs))


def load_fixture(sequence_id: str) -> OeisFixture:
    resource = importlib.resources.files(__package__) / "fixtures" / f"b{sequence_id[1:]}.txt"
    return parse_b_file(sequence_id, resource.read_text())


def fetch_b_file_text(sequence_id: str) -> str:
    # imported here: only --fetch needs urllib.request (and http.client, ssl, email)
    import urllib.request

    url = OEIS_URL_TEMPLATE.format(sid=sequence_id, digits=sequence_id[1:])
    with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT) as response:
        return response.read().decode("utf-8")


def get_sequence(sequence_id: str, *, fetch: bool = False) -> tuple[OeisFixture, str]:
    """Return ``(fixture, source)`` with source ``online`` or ``fixture``.

    With ``fetch`` the b-file is downloaded and parsed, and nothing is
    written to disk; on any failure it warns and uses the bundled fixture.
    Without ``fetch`` only the bundled fixture is read.
    """
    if fetch:
        try:
            return parse_b_file(sequence_id, fetch_b_file_text(sequence_id)), "online"
        except Exception as exc:  # network or parse failure: fall back
            warnings.warn(
                f"fetching {sequence_id} failed ({exc}); falling back to the bundled fixture",
                stacklevel=2,
            )
    return load_fixture(sequence_id), "fixture"


class VerifyReport(Record):
    """Outcome of comparing a computed sequence against a b-file."""

    variety: str
    sequence_id: str
    source: str
    compared: int
    mismatches: tuple[tuple[int, int, int], ...]  # (index, computed, reference)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def empty(self) -> bool:
        return self.compared == 0

    def summary(self, note: str = "") -> str:
        """One line; ``note`` goes before the closing ``(source)``."""
        if self.empty:
            return f"{self.variety} vs {self.sequence_id}: nothing to verify{note} ({self.source})"
        if self.ok:
            return (
                f"{self.variety} vs {self.sequence_id}: OK, "
                f"{self.compared} terms match exactly{note} ({self.source})"
            )
        n, ours, ref = self.mismatches[0]
        return (
            f"{self.variety} vs {self.sequence_id}: {len(self.mismatches)} mismatches "
            f"out of {self.compared}; first at n={n}: computed {ours}, reference {ref}"
            f"{note} ({self.source})"
        )


def verify_counts(
    counts: CountSequence,
    fixture: OeisFixture,
    *,
    source: str = "fixture",
) -> VerifyReport:
    """Exact comparison of ``counts.values[n]`` with b-file entry ``n``."""
    reference = fixture.as_dict()
    compared = 0
    mismatches = []
    for n in range(counts.n_max + 1):
        if n not in reference:
            continue
        compared += 1
        if counts[n] != reference[n]:
            mismatches.append((n, counts[n], reference[n]))
    return VerifyReport(
        variety=counts.variety,
        sequence_id=fixture.sequence_id,
        source=source,
        compared=compared,
        mismatches=tuple(mismatches),
    )

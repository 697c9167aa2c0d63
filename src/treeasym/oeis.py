"""OEIS b-file client with bundled fixtures and an on-disk cache.

The b-file wire format is plain text: one ``index value`` pair per line,
``#`` comment lines and blank lines ignored, indices strictly increasing.
Fixtures for the three shipped sequences are bundled so the test suite and
the default CLI path never touch the network; online fetching is opt-in and
falls back to the cache and then to the fixture on failure.

Index alignment: for all three shipped sequences the b-file index ``n``
carries the count of objects of size ``n`` in this package's indexing, so
computed ``values[n]`` is compared with the b-file entry at ``n``.
"""

from __future__ import annotations

import importlib.resources
import os
import tempfile
import warnings
from pathlib import Path

from .counts import CountSequence
from .records import Record

#: OEIS ids of the shipped varieties.
SEQUENCE_IDS = {
    "polya": "A000081",
    "identity": "A004111",
    "hierarchy": "A000669",
}

OEIS_URL_TEMPLATE = "https://oeis.org/{sid}/b{digits}.txt"

ENV_CACHE_DIR = "TREEASYM_CACHE_DIR"


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


def fixture_text(sequence_id: str) -> str:
    resource = importlib.resources.files(__package__) / "fixtures" / _b_name(sequence_id)
    return resource.read_text()


def load_fixture(sequence_id: str) -> OeisFixture:
    return parse_b_file(sequence_id, fixture_text(sequence_id))


def _b_name(sequence_id: str) -> str:
    return f"b{sequence_id[1:]}.txt"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "treeasym"


def _cache_path(cache_dir: Path, sequence_id: str) -> Path:
    return Path(cache_dir) / _b_name(sequence_id)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fetch_b_file_text(sequence_id: str, *, timeout: float = 30.0) -> str:
    # imported here: only --fetch needs urllib.request (and http.client, ssl, email)
    import urllib.request

    url = OEIS_URL_TEMPLATE.format(sid=sequence_id, digits=sequence_id[1:])
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def get_sequence(
    sequence_id: str,
    *,
    cache_dir: Path | None = None,
    fetch: bool = False,
) -> tuple[OeisFixture, str]:
    """Return ``(fixture, source)`` with source one of online/cache/fixture.

    Resolution order: with ``fetch`` try the network and cache the result;
    otherwise, or on failure, use a cached copy; the bundled fixture is the
    final fallback.  Without ``fetch`` the network is never touched.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cached = _cache_path(cache_dir, sequence_id)
    if fetch:
        try:
            text = fetch_b_file_text(sequence_id)
            fixture = parse_b_file(sequence_id, text)  # validate before caching
            _write_atomic(cached, text)
            return fixture, "online"
        except Exception as exc:  # network or parse failure: fall back
            warnings.warn(
                f"fetching {sequence_id} failed ({exc}); falling back to cache/fixture",
                stacklevel=2,
            )
    if cached.exists():
        return parse_b_file(sequence_id, cached.read_text()), "cache"
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

    def summary(self) -> str:
        if self.empty:
            return f"{self.variety} vs {self.sequence_id}: nothing to verify ({self.source})"
        if self.ok:
            return (
                f"{self.variety} vs {self.sequence_id}: OK, "
                f"{self.compared} terms match exactly ({self.source})"
            )
        n, ours, ref = self.mismatches[0]
        return (
            f"{self.variety} vs {self.sequence_id}: {len(self.mismatches)} mismatches "
            f"out of {self.compared}; first at n={n}: computed {ours}, reference {ref} "
            f"({self.source})"
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

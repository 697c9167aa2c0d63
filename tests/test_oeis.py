import urllib.request

import pytest

from treeasym.counts import CountSequence, counts_for
from treeasym.oeis import (
    BFileFormatError,
    OeisFixture,
    SEQUENCE_IDS,
    get_sequence,
    load_fixture,
    parse_b_file,
    verify_counts,
)


class TestParsing:
    def test_basic(self):
        fixture = parse_b_file("A000081", "# comment\n\n0 0\n1 1\n2 1\n")
        assert fixture.pairs == ((0, 0), (1, 1), (2, 1))

    def test_whitespace_tolerant(self):
        fixture = parse_b_file("X", "  3   14 \n4\t15\n")
        assert fixture.pairs == ((3, 14), (4, 15))

    def test_rejects_bad_lines(self):
        with pytest.raises(BFileFormatError):
            parse_b_file("X", "1 2 3\n")
        with pytest.raises(BFileFormatError):
            parse_b_file("X", "a b\n")

    def test_rejects_nonincreasing_indices(self):
        with pytest.raises(BFileFormatError):
            parse_b_file("X", "2 1\n2 2\n")
        with pytest.raises(BFileFormatError):
            OeisFixture("X", ((3, 1), (1, 2)))


class TestFixtures:
    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_exact_match_to_500(self, variety, counts500):
        fixture = load_fixture(SEQUENCE_IDS[variety])
        report = verify_counts(counts500[variety], fixture)
        assert report.ok
        assert report.compared >= 500
        assert "OK" in report.summary()

    def test_fixture_lengths(self):
        for sid in SEQUENCE_IDS.values():
            assert len(load_fixture(sid)) >= 500


class TestVerify:
    def test_mismatch_detected(self):
        fixture = OeisFixture("A000081", ((0, 0), (1, 1), (2, 5)))
        seq = counts_for("polya", 2)
        report = verify_counts(seq, fixture)
        assert not report.ok
        assert report.mismatches == ((2, 1, 5),)
        assert "mismatch" in report.summary()

    def test_empty_fixture_nothing_to_verify(self):
        report = verify_counts(counts_for("polya", 5), OeisFixture("A000081", ()))
        assert report.empty and report.ok
        assert "nothing to verify" in report.summary()

    def test_partial_overlap(self):
        fixture = OeisFixture("A000081", ((4, 4), (5, 9)))
        report = verify_counts(counts_for("polya", 4), fixture)
        assert report.ok and report.compared == 1


class TestGetSequence:
    def test_fixture_fallback_by_default(self):
        fixture, source = get_sequence("A000081")
        assert source == "fixture"
        assert fixture.pairs[1] == (1, 1)
        assert fixture == load_fixture("A000081")

    def test_fetch_failure_falls_back(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("network unreachable")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        with pytest.warns(UserWarning, match="falling back to the bundled fixture"):
            fixture, source = get_sequence("A004111", fetch=True)
        assert source == "fixture"
        assert fixture.pairs[0] == (1, 1)

    def test_fetch_success_writes_nothing(self, tmp_path, monkeypatch):
        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return b"0 0\n1 1\n2 1\n"

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: FakeResponse())
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        fixture, source = get_sequence("A000081", fetch=True)
        assert source == "online"
        assert fixture.pairs == ((0, 0), (1, 1), (2, 1))
        assert list(tmp_path.iterdir()) == []
        # a later call without fetch reads the bundled fixture again
        assert get_sequence("A000081") == (load_fixture("A000081"), "fixture")

    def test_offline_never_fetches(self, monkeypatch):
        # offline is the default: only fetch=True touches the network
        def boom(*args, **kwargs):
            raise AssertionError("network touched without fetch")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        _, source = get_sequence("A000669")
        assert source == "fixture"


def test_count_sequence_roundtrip():
    seq = CountSequence("polya", [0, 1, 1, 2])
    assert seq.n_max == 3 and seq[3] == 2 and len(seq) == 4

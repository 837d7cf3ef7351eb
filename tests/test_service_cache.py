"""Tests for the pair-level result cache and canonical fingerprints."""

import json

import pytest

from repro.data.schema import EntityPair, MatchLabel, Record
from repro.service import CachedResult, ResultCache, pair_fingerprint


def _pair(pair_id: str, left: dict, right: dict) -> EntityPair:
    return EntityPair(
        pair_id=pair_id,
        left=Record(record_id=f"{pair_id}-L", values=left),
        right=Record(record_id=f"{pair_id}-R", values=right),
    )


class TestPairFingerprint:
    def test_ignores_pair_and_record_ids(self):
        a = _pair("p1", {"name": "ipa"}, {"name": "IPA"})
        b = _pair("totally-different-id", {"name": "ipa"}, {"name": "IPA"})
        assert pair_fingerprint(a) == pair_fingerprint(b)

    def test_content_sensitive(self):
        a = _pair("p", {"name": "ipa"}, {"name": "IPA"})
        b = _pair("p", {"name": "ipa"}, {"name": "stout"})
        assert pair_fingerprint(a) != pair_fingerprint(b)

    def test_attribute_order_normalised(self):
        a = _pair("p", {"name": "x", "abv": "5"}, {"name": "y"})
        b = _pair("p", {"abv": "5", "name": "x"}, {"name": "y"})
        assert pair_fingerprint(a) == pair_fingerprint(b)

    def test_directed_sides(self):
        # ER pairs are table A vs. table B: swapping sides is a different pair.
        a = _pair("p", {"name": "x"}, {"name": "y"})
        b = _pair("p", {"name": "y"}, {"name": "x"})
        assert pair_fingerprint(a) != pair_fingerprint(b)

    def test_missing_values_ignored(self):
        a = _pair("p", {"name": "x", "abv": None}, {"name": "y"})
        b = _pair("p", {"name": "x"}, {"name": "y"})
        assert pair_fingerprint(a) == pair_fingerprint(b)

    def test_value_boundaries_unambiguous(self):
        # "ab"+"c" on one attribute must not collide with "a"+"bc".
        a = _pair("p", {"x": "ab", "y": "c"}, {"x": "q"})
        b = _pair("p", {"x": "a", "y": "bc"}, {"x": "q"})
        assert pair_fingerprint(a) != pair_fingerprint(b)

    def test_hostile_separator_bytes_cannot_collide(self):
        # Length-prefixed encoding: client-controlled strings containing
        # would-be separator bytes must not alias a different record shape.
        a = _pair("p", {"a": "b\x1ec\x1fd"}, {"x": "q"})
        b = _pair("p", {"a": "b", "c": "d"}, {"x": "q"})
        assert pair_fingerprint(a) != pair_fingerprint(b)
        c = _pair("p", {"a": "1:x"}, {"x": "q"})
        d = _pair("p", {"a": "1", ":": "x"}, {"x": "q"})
        assert pair_fingerprint(c) != pair_fingerprint(d)

    def test_stable_across_processes(self):
        # blake2b of the canonical encoding — not Python hash(); pin one value
        # so spill files stay valid across runs and machines.
        fingerprint = pair_fingerprint(_pair("p", {"name": "x"}, {"name": "y"}))
        assert fingerprint == pair_fingerprint(_pair("p2", {"name": "x"}, {"name": "y"}))
        assert len(fingerprint) == 32
        assert all(c in "0123456789abcdef" for c in fingerprint)

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            (
                {"name": "Hop Stoopid", "abv": "8.00%", "style": "American IPA"},
                {"name": "Hop Stoopid Ale", "abv": "8%"},
                "7f275566a008c2a7e97cb17feb8ca8d2",
            ),
            (
                {"name": "Ærøskøbing Ølbryggeri", "style": "Brüt IPA ☕"},
                {"name": "青島ビール", "style": "Lager 🍺"},
                "eb29a2833fc95d890b74a13f3c01b62e",
            ),
            (
                {"name": "x", "abv": None, "style": None},
                {"name": None, "abv": "5"},
                "b030d7197e95e2d2d21739c62ba29ac1",
            ),
            ({}, {"name": "only right"}, "4f2f7e6b6b2086208687650fc0618f02"),
            ({}, {}, "340b220392444ede26dfbfaab4fd2162"),
            (
                {"a:b": "c;d", ";": ":", "1:": ";2"},
                {"name;": "v:1;", ":": ""},
                "74abe0d48c40da87de2033ea20d835a3",
            ),
        ],
        ids=["ascii", "unicode", "none-values", "empty-record", "both-empty", "separators"],
    )
    def test_golden_digests(self, left, right, expected):
        # Spill files and the result cache key on these digests, so any
        # change to the encoding or the hashing must leave them unchanged.
        assert pair_fingerprint(_pair("p", left, right)) == expected


class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=4)
        cache.put("fp1", CachedResult(label=MatchLabel.MATCH, answered=True))
        entry = cache.get("fp1")
        assert entry is not None
        assert entry.label is MatchLabel.MATCH
        assert entry.answered
        assert cache.get("missing") is None

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", CachedResult(MatchLabel.MATCH, True))
        cache.put("b", CachedResult(MatchLabel.NON_MATCH, True))
        cache.get("a")  # refresh a's recency; b is now LRU
        cache.put("c", CachedResult(MatchLabel.MATCH, False))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_hit_rate_accounting(self):
        cache = ResultCache(capacity=4)
        assert cache.hit_rate == 0.0
        cache.put("a", CachedResult(MatchLabel.MATCH, True))
        cache.get("a")
        cache.get("a")
        cache.get("miss")
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    @pytest.mark.parametrize("source", ["spill", "vector-carrying-file"])
    def test_spill_and_warm_start_roundtrip(self, tmp_path, source):
        path = tmp_path / "nested" / "cache.jsonl"
        if source == "spill":
            cache = ResultCache(capacity=8)
            cache.put("fp1", CachedResult(MatchLabel.MATCH, True))
            cache.put("fp2", CachedResult(MatchLabel.NON_MATCH, False))
            assert cache.spill(path) == 2
        else:
            # Earlier releases spilled each entry's feature vector and its
            # extractor tag too; those fields are ignored on load.
            path.parent.mkdir()
            path.write_text(
                '{"fingerprint": "fp1", "label": 1, "answered": true, '
                '"vector": [0.25, 0.5], '
                '"extractor": "structure-lr/(\'name\', \'abv\')"}\n'
                '{"fingerprint": "fp2", "label": 0, "answered": false, '
                '"vector": [0.1], "extractor": "structure-jaccard/()"}\n',
                encoding="utf-8",
            )

        warmed = ResultCache(capacity=8)
        assert warmed.warm_start(path) == 2
        assert warmed.get("fp1") == CachedResult(MatchLabel.MATCH, True)
        assert warmed.get("fp2") == CachedResult(MatchLabel.NON_MATCH, False)
        # A spill writes the judgement and nothing else.
        assert warmed.spill(path) == 2
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert [sorted(entry) for entry in entries] == [
            ["answered", "fingerprint", "label"]
        ] * 2

    @pytest.mark.parametrize("earlier_spill", [True, False], ids=["over-a-spill", "first"])
    def test_failed_spill_leaves_previous_file_intact(self, tmp_path, earlier_spill):
        path = tmp_path / "cache.jsonl"
        if earlier_spill:
            cache = ResultCache(capacity=8)
            for index in range(3):
                cache.put(f"fp{index}", CachedResult(MatchLabel.MATCH, True))
            cache.spill(path)
            previous = path.read_text(encoding="utf-8")

        class DiskFull:
            def __int__(self):
                raise OSError("No space left on device")

        # The second entry's write raises, after the first was written.
        failing = ResultCache(capacity=8)
        failing.put("new0", CachedResult(MatchLabel.NON_MATCH, True))
        failing.put("new1", CachedResult(DiskFull(), True))
        failing.put("new2", CachedResult(MatchLabel.NON_MATCH, True))
        with pytest.raises(OSError, match="No space"):
            failing.spill(path)

        # No temp file is left behind, and an earlier spill is untouched.
        assert list(tmp_path.iterdir()) == ([path] if earlier_spill else [])
        if earlier_spill:
            assert path.read_text(encoding="utf-8") == previous
            assert ResultCache(capacity=8).warm_start(path) == 3

    def test_warm_start_missing_file_is_noop(self, tmp_path):
        cache = ResultCache(capacity=4)
        assert cache.warm_start(tmp_path / "absent.jsonl") == 0
        assert len(cache) == 0

    def test_warm_start_rejects_interior_corruption(self, tmp_path):
        # Corruption followed by more entries cannot be a torn append — the
        # file is damaged and warm-start must refuse it, naming the line.
        path = tmp_path / "bad.jsonl"
        good = ResultCache(capacity=4)
        good.put("fp1", CachedResult(MatchLabel.MATCH, True))
        good.spill(path)
        content = path.read_text(encoding="utf-8")
        path.write_text(
            '{"fingerprint": "x"}\n' + content, encoding="utf-8"
        )
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            ResultCache(capacity=4).warm_start(path)

    def test_warm_start_tolerates_torn_final_line(self, tmp_path):
        # A crash mid-spill leaves a truncated final line; the entries before
        # it must still warm-start.
        path = tmp_path / "torn.jsonl"
        cache = ResultCache(capacity=8)
        cache.put("fp1", CachedResult(MatchLabel.MATCH, True))
        cache.put("fp2", CachedResult(MatchLabel.NON_MATCH, False))
        cache.spill(path)
        content = path.read_text(encoding="utf-8")
        torn = content + '{"fingerprint": "fp3", "lab'  # no newline: torn write
        path.write_text(torn, encoding="utf-8")

        warmed = ResultCache(capacity=8)
        assert warmed.warm_start(path) == 2
        assert warmed.get("fp1") == CachedResult(MatchLabel.MATCH, True)
        assert warmed.get("fp2") == CachedResult(MatchLabel.NON_MATCH, False)
        assert len(warmed) == 2

    def test_warm_start_tolerates_single_torn_line(self, tmp_path):
        # Degenerate torn tail: the crash struck the very first entry.
        path = tmp_path / "torn1.jsonl"
        path.write_text('{"fingerpr', encoding="utf-8")
        cache = ResultCache(capacity=4)
        assert cache.warm_start(path) == 0
        assert len(cache) == 0

    def test_warm_start_respects_capacity(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        big = ResultCache(capacity=8)
        for index in range(8):
            big.put(f"fp{index}", CachedResult(MatchLabel.MATCH, True))
        big.spill(path)

        small = ResultCache(capacity=3)
        small.warm_start(path)
        # Spill is oldest-first, so the newest three entries survive.
        assert len(small) == 3
        assert "fp7" in small and "fp5" in small
        assert "fp0" not in small

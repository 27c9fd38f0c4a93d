"""Unit tests for the CSR token-set store (key ids are input positions)."""

from repro.sketch.inverted import InvertedIndex


class TestInvertedIndex:
    def test_insert_and_postings(self):
        idx = InvertedIndex([["a", "b"], ["b", "c"]])
        assert idx.postings("b").tolist() == [0, 1]
        assert idx.postings("a").tolist() == [0]
        assert idx.postings("zzz").tolist() == []

    def test_duplicate_tokens_deduped(self):
        idx = InvertedIndex([["a", "a", "a"]])
        assert idx.size_of(0) == 1
        assert idx.postings("a").tolist() == [0]

    def test_document_frequency(self):
        idx = InvertedIndex([["a"], ["a"]])
        assert idx.document_frequency("a") == 2
        assert idx.document_frequency("b") == 0

    def test_len_and_num_tokens(self):
        idx = InvertedIndex([["a", "b"], ["b"]])
        assert len(idx) == 2
        assert idx.num_tokens == 2

    def test_keys(self):
        idx = InvertedIndex([["a"], [], ["b", "a"]])
        assert len(idx) == 3
        assert idx.token_sets() == [{"a"}, set(), {"a", "b"}]

    def test_overlaps_exact(self):
        idx = InvertedIndex([["a", "b", "c"], ["c", "d"], ["e"]])
        counts = idx.overlaps(["a", "c", "d"])
        assert counts.tolist() == [2, 2, 0]

    def test_overlaps_query_duplicates_ignored(self):
        idx = InvertedIndex([["a"]])
        assert idx.overlaps(["a", "a", "a"]).tolist() == [1]

    def test_postings_sorted_deterministically(self):
        idx = InvertedIndex([["tok"], ["tok"], ["tok"]])
        assert idx.postings("tok").tolist() == [0, 1, 2]

    def test_forward_rows_sorted_and_sized(self):
        idx = InvertedIndex([["c", "a", "b"], ["b"]])
        rows = [
            idx.set_tokens[a:b].tolist()
            for a, b in zip(idx.set_offsets, idx.set_offsets[1:])
        ]
        assert all(row == sorted(row) for row in rows)
        assert [len(r) for r in rows] == [idx.size_of(0), idx.size_of(1)] == [3, 1]

    def test_overlap_matches_overlaps(self):
        idx = InvertedIndex([["a", "b", "c"], ["c", "d"], ["e"]])
        query = ["a", "c", "d", "zzz"]
        mask = idx.token_mask(idx.token_ids(query))
        assert [idx.overlap(i, mask) for i in range(3)] == idx.overlaps(query).tolist()

    def test_empty_store(self):
        idx = InvertedIndex()
        assert len(idx) == 0 and idx.num_tokens == 0
        assert idx.overlaps(["a"]).tolist() == []
        assert idx.token_sets() == []

    def test_dict_sets_give_first_seen_ids(self):
        """Ids of tokens passed as dict keys follow their order, not hashing."""
        idx = InvertedIndex([dict.fromkeys(["zeta", "alpha"]), dict.fromkeys(["mu", "alpha"])])
        assert idx.vocab == {"zeta": 0, "alpha": 1, "mu": 2}
        assert idx.postings("alpha").tolist() == [0, 1]

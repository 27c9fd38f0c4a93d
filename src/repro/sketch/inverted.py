"""Token-set store: a CSR inverted index over integer key ids.

The substrate for exact overlap search (JOSIE, §2.4), LSH Ensemble's exact
containment verification and MATE's cell postings.  Built once from a list
of token sets, whose positions are the key ids:

* ``vocab`` maps a token to its id (ids in first-seen order, or in sorted
  token order with ``sort_tokens``; a set's order follows string
  hashing, a ``dict``'s keys keep theirs);
* ``posting_ids[offsets[t]:offsets[t + 1]]`` lists, ascending, the key ids whose
  set holds token ``t`` (its length is the token's document frequency);
* ``set_tokens[set_offsets[i]:set_offsets[i + 1]]`` is key ``i``'s set as
  sorted token ids (the forward rows; their lengths are the set sizes).
"""

from __future__ import annotations

from itertools import chain, count
from typing import Iterable

import numpy as np

from repro.obs import METRICS


class InvertedIndex:
    """Maps tokens to the ids of the keys whose token set contains them."""

    def __init__(self, sets: Iterable[Iterable[str]] = (), sort_tokens: bool = False):
        # A dict's keys are unique and ordered, so they are kept as given.
        sets = [s if isinstance(s, (frozenset, dict)) else frozenset(s) for s in sets]
        tokens = dict.fromkeys(chain.from_iterable(sets))
        if sort_tokens:
            tokens = sorted(tokens)
        self.vocab = vocab = dict(zip(tokens, count()))
        sizes = list(map(len, sets))
        self.set_offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        keys = np.repeat(np.arange(len(sets), dtype=np.int32), sizes)
        ids = np.fromiter(
            map(vocab.__getitem__, chain.from_iterable(sets)), np.int64, keys.size
        )
        # Sort each key's token ids; keys are already grouped ascending.
        width = np.int64(max(len(vocab), 1))
        self.set_tokens = (np.sort(keys * width + ids) % width).astype(np.int32)
        order = np.argsort(self.set_tokens, kind="stable")  # keys stay ascending
        self.posting_ids = keys[order]
        self.offsets = np.searchsorted(self.set_tokens[order], np.arange(len(vocab) + 1))
        METRICS.inc("index.inverted.keys_indexed", len(sets))
        METRICS.inc("index.inverted.postings_written", keys.size)

    def __len__(self) -> int:
        return self.set_offsets.size - 1

    @property
    def num_tokens(self) -> int:
        return len(self.vocab)

    def token_ids(self, tokens: Iterable[str]) -> np.ndarray:
        """Ids of the indexed tokens among ``tokens``, in the given order."""
        vocab = self.vocab
        return np.array([vocab[t] for t in tokens if t in vocab], dtype=np.int64)

    def gather(self, token_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The posting lists of ``token_ids`` concatenated in that order, and
        their bounds: list ``j`` is ``flat[bounds[j]:bounds[j + 1]]``."""
        starts = self.offsets[token_ids]
        lens = self.offsets[token_ids + 1] - starts
        bounds = np.concatenate(([0], np.cumsum(lens)))
        index = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lens)
        return self.posting_ids[index], bounds

    def postings(self, token: str) -> np.ndarray:
        """Ascending ids of the keys containing the token (empty if unseen)."""
        METRICS.inc("index.inverted.postings_reads")
        return self.gather(self.token_ids([token]))[0]

    def document_frequency(self, token: str) -> int:
        return int(self.gather(self.token_ids([token]))[1][-1])

    def size_of(self, key_id: int) -> int:
        """Distinct-token count of an indexed key."""
        return int(self.set_offsets[key_id + 1] - self.set_offsets[key_id])

    def row(self, key_id: int) -> np.ndarray:
        """Key ``key_id``'s set as its sorted token ids (its forward row)."""
        return self.set_tokens[self.set_offsets[key_id] : self.set_offsets[key_id + 1]]

    def token_sets(self) -> list[frozenset[str]]:
        """Every key's token set, by key id (one pass over the vocabulary)."""
        tokens = list(self.vocab)  # vocab ids are insertion positions
        ids, bounds = self.set_tokens.tolist(), self.set_offsets.tolist()
        return [frozenset(tokens[t] for t in ids[a:b]) for a, b in zip(bounds, bounds[1:])]

    def token_mask(self, token_ids: np.ndarray) -> np.ndarray:
        """Boolean vocabulary mask of ``token_ids``, for :meth:`overlap`."""
        mask = np.zeros(len(self.vocab), dtype=bool)
        mask[token_ids] = True
        return mask

    def overlap(self, key_id: int, mask: np.ndarray) -> int:
        """Exact |Q ∩ X| of key ``key_id`` and the query whose mask is given."""
        return int(np.count_nonzero(mask[self.row(key_id)]))

    def overlaps(self, tokens: Iterable[str]) -> np.ndarray:
        """Exact overlap |Q ∩ X| of every key, by key id (full merge)."""
        flat, _ = self.gather(self.token_ids(set(tokens)))
        return np.bincount(flat, minlength=len(self))

    def stats(self) -> dict:
        """Introspection: vocabulary, posting-list and set-size skew, bytes."""
        from repro.obs.introspect import summarize_distribution

        arrays = (self.offsets, self.posting_ids, self.set_offsets, self.set_tokens)
        return {
            "keys": len(self),
            "vocabulary": len(self.vocab),
            "posting_list_len": summarize_distribution(np.diff(self.offsets).tolist()),
            "set_size": summarize_distribution(np.diff(self.set_offsets).tolist()),
            "store_bytes": sum(int(a.nbytes) for a in arrays),
        }

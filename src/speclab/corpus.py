"""Deterministic synthetic byte-level corpora.

Generates English-like filler text from a seeded Philox stream: Zipf-weighted
common words for local statistics, plus named entities that repeat within a
paragraph and occasional verbatim sentence echoes. The repetition gives the
attention pathway something only it can do well (long-range copying), while
the word-level statistics keep a recurrent pathway competitive at short
range. Identical (n_bytes, seed) always produces identical bytes.

A corpus file loads as int64 byte ids (:func:`load_corpus`), and prompts
and training batches are windows drawn from it by one function,
:func:`sample_windows`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .numerics import RngState

_WORDS = (
    "the of and to a in that it was for on are as with his they at be this "
    "have from or had by hot word but what some we can out other were all "
    "there when up use your how said an each she which do their time if will "
    "way about many then them write would like so these her long make thing "
    "see him two has look more day could go come did number sound no most "
    "people my over know water than call first who may down side been now "
    "find any new work part take get place made live where after back little "
    "only round man year came show every good me give our under name very "
    "through just form sentence great think say help low line differ turn "
    "cause much mean before move right boy old too same tell does set three "
    "want air well also play small end put home read hand port large spell "
    "add even land here must big high such follow act why ask men change "
    "went light kind off need house picture try us again animal point mother "
    "world near build self earth father head stand own page should country "
    "found answer school grow study still learn plant cover food sun four "
    "between state keep eye never last let thought city tree cross farm hard "
    "start might story saw far sea draw left late run while press close "
    "night real life few north open seem together next white children begin "
    "got walk example ease paper group always music those both mark often "
    "letter until mile river car feet care second book carry took science "
    "eat room friend began idea fish mountain stop once base hear horse cut "
    "sure watch color face wood main enough plain girl usual young ready "
    "above ever red list though feel talk bird soon body dog family direct "
    "pose leave song measure door product black short numeral class wind "
    "question happen complete ship area half rock order fire south problem "
    "piece told knew pass since top whole king space heard best hour better "
    "true during hundred five remember step early hold west ground interest "
    "reach fast verb sing listen six table travel less morning ten simple "
    "several vowel toward war lay against pattern slow center love person "
    "money serve appear road map rain rule govern pull cold notice voice "
    "unit power town fine certain fly fall lead cry dark machine note wait "
    "plan figure star box noun field rest correct able pound done beauty "
    "drive stood contain front teach week final gave green oh quick develop "
    "ocean warm free minute strong special mind behind clear tail produce "
    "fact street inch multiply nothing course stay wheel full force blue "
    "object decide surface deep moon island foot system busy test record "
    "boat common gold possible plane stead dry wonder laugh thousand ago ran "
    "check game shape equate hot miss brought heat snow tire bring yes "
    "distant fill east paint language among"
).split()

def _zipf_cumweights(n: int) -> np.ndarray:
    w = 1.0 / (np.arange(n) + 2.0)
    return np.cumsum(w / w.sum())


_WORD_CUM = _zipf_cumweights(len(_WORDS))


def _pick(rng: RngState, cum: np.ndarray) -> int:
    return int(np.searchsorted(cum, rng.uniform(), side="right"))


def _make_name(rng: RngState) -> str:
    # uniform random letters, fresh for every paragraph: a name's later
    # occurrences are unpredictable except by copying its earlier ones
    n = 6 + int(rng.uniform() * 4)
    name = "".join(chr(97 + int(rng.uniform() * 26)) for _ in range(n))
    return name.capitalize()


def _sentence(rng: RngState, entities: list[str]) -> str:
    length = 3 + int(rng.uniform() * 4)
    words = []
    for _ in range(length):
        if entities and rng.uniform() < 0.4:
            words.append(entities[int(rng.uniform() * len(entities))])
        else:
            words.append(_WORDS[_pick(rng, _WORD_CUM)])
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def make_corpus(n_bytes: int, seed: int) -> bytes:
    """Synthetic corpus of exactly ``n_bytes`` bytes, reproducible from seed.

    Short Zipf-weighted filler sentences carry the local statistics; the
    long-range mass comes from dense entity mentions (names are random
    strings, so every mention after the first is a copy task) and from
    verbatim sentence echoes.
    """
    if n_bytes <= 0:
        raise ValueError("n_bytes must be positive")
    rng = RngState(seed)
    chunks: list[str] = []
    total = 0
    while total < n_bytes:
        entities = [_make_name(rng) for _ in range(1 + int(rng.uniform() * 2))]
        n_sent = 5 + int(rng.uniform() * 6)
        sentences: list[str] = []
        for _ in range(n_sent):
            if sentences and rng.uniform() < 0.5:
                sentences.append(sentences[-1])  # verbatim echo
            else:
                sentences.append(_sentence(rng, entities))
        para = " ".join(sentences) + "\n\n"
        chunks.append(para)
        total += len(para)
    return "".join(chunks).encode("ascii")[:n_bytes]


def write_corpus(path, n_bytes: int, seed: int) -> None:
    write_atomic(path, make_corpus(n_bytes, seed))


def load_corpus(path) -> np.ndarray:
    """Raw bytes of a corpus file as int64 token ids in [0, 256)."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"corpus not found: {p}")
    data = np.frombuffer(p.read_bytes(), dtype=np.uint8).astype(np.int64)
    if data.size == 0:
        raise ValueError(f"corpus is empty: {p}")
    return data


def sample_windows(tokens: np.ndarray, n: int, length: int,
                   rng: RngState) -> np.ndarray:
    """(n, length) windows of ``tokens`` at starts drawn uniformly by
    ``rng``; a window never ends on the last token."""
    if tokens.size < length + 1:
        raise ValueError(f"corpus shorter than {length + 1} tokens")
    starts = rng.integers(0, tokens.size - length, size=n)
    return tokens[starts[:, None] + np.arange(length)]


def sample_prompts(corpus_tokens: np.ndarray, n_prompts: int, prompt_len: int,
                   seed: int) -> list[list[int]]:
    """Prompt windows drawn at deterministic positions from a token array."""
    if n_prompts < 1:
        raise ValueError("n_prompts must be positive")
    return sample_windows(corpus_tokens, n_prompts, prompt_len,
                          RngState(seed)).tolist()

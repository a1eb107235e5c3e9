import numpy as np
import pytest

from speclab.corpus import (load_corpus, make_corpus, sample_prompts,
                            sample_windows, write_corpus)
from speclab.numerics import RngState


class TestMakeCorpus:
    def test_exact_size_and_determinism(self):
        a = make_corpus(5_000, seed=4)
        b = make_corpus(5_000, seed=4)
        assert a == b
        assert len(a) == 5_000

    def test_different_seeds_differ(self):
        assert make_corpus(2_000, seed=1) != make_corpus(2_000, seed=2)

    def test_ascii_byte_range(self):
        data = make_corpus(10_000, seed=9)
        arr = np.frombuffer(data, dtype=np.uint8)
        assert arr.max() < 128

    def test_contains_long_range_repetition(self):
        text = make_corpus(20_000, seed=0).decode()
        sentences = [s for s in text.replace("\n", " ").split(". ") if s]
        assert any(a == b for a, b in zip(sentences, sentences[1:]))

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            make_corpus(0, seed=1)

    def test_write_corpus(self, tmp_path):
        path = tmp_path / "c.bin"
        write_corpus(path, 1_000, seed=3)
        assert path.read_bytes() == make_corpus(1_000, seed=3)


class TestSamplePrompts:
    def test_deterministic_windows(self):
        toks = np.arange(500) % 256
        a = sample_prompts(toks, 5, 8, seed=2)
        b = sample_prompts(toks, 5, 8, seed=2)
        assert a == b
        assert all(len(p) == 8 for p in a)

    def test_too_short_corpus_rejected(self):
        with pytest.raises(ValueError):
            sample_prompts(np.arange(4), 1, 8, seed=0)
        with pytest.raises(ValueError, match="shorter than 9 tokens"):
            sample_prompts(np.arange(8), 1, 8, seed=0)
        # the shortest corpus that holds a prompt and the token after it
        sample_prompts(np.arange(9), 1, 8, seed=0)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_prompts(np.arange(100), 0, 8, seed=0)

    def test_prompts_are_the_seeded_windows(self):
        toks = np.arange(500) % 256
        prompts = sample_prompts(toks, 6, 9, seed=5)
        starts = RngState(5).integers(0, toks.size - 9, size=6)
        assert prompts == [toks[s:s + 9].tolist() for s in starts]
        assert prompts == sample_windows(toks, 6, 9, RngState(5)).tolist()
        assert all(type(t) is int for p in prompts for t in p)


class TestLoadCorpus:
    @pytest.mark.parametrize("name", ["absent.bin", "."])
    def test_a_path_that_is_not_a_file_is_not_found(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(FileNotFoundError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"corpus not found: {path}"

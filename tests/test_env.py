"""Tests for the patchy-corpus environment: file format, generator, episodes, scent."""

from math import ceil

import numpy as np
import pytest
from scent_reference import reference_scent

from qforage.env import (
    Candidate,
    Corpus,
    CorpusSpec,
    Document,
    Environment,
    NEGATION_TOKEN,
    Observation,
    Transition,
    corpus_lines,
    gen_corpus,
    load_corpus,
    parse_corpus_lines,
    reward_scent,
    save_corpus,
    step,
    top_keywords,
)
from qforage.errors import (
    BadLabel,
    EmptyCorpus,
    IndexOutOfRange,
    InvalidLabel,
    MissingPositiveCandidate,
    ParseError,
    SpecInvalid,
)

WELL_FORMED = [
    "# comment line",
    "",
    "d1\tp0\talpha beta gamma\talpha beta\t1",
    "d1\tp0\talpha beta gamma\tdelta epsilon\t-1",
    "d2\tp1\tzeta eta theta\tzeta eta\t1",
    "d2\tp1\tzeta eta theta\tzeta iota\t0",
]


class TestParseCorpus:
    def test_well_formed_two_documents(self):
        corpus = parse_corpus_lines(WELL_FORMED)
        assert len(corpus.documents) == 2
        assert corpus.documents[0].doc_id == "d1"
        assert corpus.documents[0].candidates[0] == Candidate(("alpha", "beta"), 1)
        assert "theta" in corpus.vocabulary

    def test_vocabulary_covers_docs_and_candidates(self):
        corpus = parse_corpus_lines(WELL_FORMED)
        assert "delta" in corpus.vocabulary
        assert corpus.vocabulary == tuple(sorted(corpus.vocabulary))

    def test_out_of_range_label_reports_line(self):
        lines = list(WELL_FORMED)
        lines[3] = "d1\tp0\talpha beta gamma\tdelta epsilon\t2"
        with pytest.raises(BadLabel) as excinfo:
            parse_corpus_lines(lines)
        assert excinfo.value.line == 4

    def test_non_integer_label_reports_line(self):
        lines = list(WELL_FORMED)
        lines[5] = "d2\tp1\tzeta eta theta\tzeta iota\tmaybe"
        with pytest.raises(BadLabel) as excinfo:
            parse_corpus_lines(lines)
        assert excinfo.value.line == 6

    def test_document_without_positive_candidate(self):
        lines = [
            "d1\tp0\talpha beta\talpha\t0",
            "d1\tp0\talpha beta\tbeta\t-1",
        ]
        with pytest.raises(MissingPositiveCandidate):
            parse_corpus_lines(lines)

    def test_single_candidate_document_rejected(self):
        with pytest.raises(ParseError):
            parse_corpus_lines(["d1\tp0\talpha beta\talpha\t1"])

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as excinfo:
            parse_corpus_lines(["d1\tp0\talpha"])
        assert excinfo.value.line == 1

    def test_document_cannot_change_patch(self):
        lines = [
            "d1\tp0\talpha beta\talpha beta\t1",
            "d1\tp1\talpha beta\tbeta\t0",
        ]
        with pytest.raises(ParseError):
            parse_corpus_lines(lines)

    def test_document_text_must_repeat_verbatim(self):
        lines = [
            "d1\tp0\talpha beta\talpha beta\t1",
            "d1\tp0\talpha gamma\tbeta\t0",
        ]
        with pytest.raises(ParseError):
            parse_corpus_lines(lines)

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xe2\x82", b"\xed\xa0\x80"], ids=["ff", "cut-short", "surrogate"]
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, bad):
        lines = [line.encode() for line in ["# café", *WELL_FORMED]]
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert len(load_corpus(str(path)).documents) == 2
        lines[4] = lines[4].replace(b"epsilon", b"eps" + bad + b"ilon")
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as excinfo:
            load_corpus(str(path))
        assert excinfo.value.line == 5

    @pytest.mark.parametrize("count", [-1, 0])
    def test_keyword_count_below_one_rejected(self, tmp_path, count):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(WELL_FORMED) + "\n")
        with pytest.raises(ValueError, match="keyword_count"):
            load_corpus(str(path), keyword_count=count)
        lines = iter(WELL_FORMED)
        with pytest.raises(ValueError, match="keyword_count"):
            parse_corpus_lines(lines, keyword_count=count)
        assert next(lines) == WELL_FORMED[0]

    def test_round_trip_through_file(self, tmp_path):
        corpus = parse_corpus_lines(WELL_FORMED)
        path = tmp_path / "corpus.tsv"
        save_corpus(corpus, str(path), echo=["docs=2"])
        reloaded = load_corpus(str(path))
        assert corpus_lines(reloaded) == corpus_lines(corpus)
        assert path.read_text().startswith("# docs=2\n")


class TestTopKeywords:
    def test_frequency_then_first_appearance(self):
        tokens = ["b", "a", "b", "c", "a", "b"]
        assert top_keywords(tokens, 2) == ("b", "a")

    def test_tie_broken_by_first_appearance(self):
        assert top_keywords(["y", "x", "z"], 2) == ("y", "x")


class TestGenCorpus:
    def test_three_candidates_cycle_labels(self):
        spec = CorpusSpec(docs=1, patches=1, vocab_size=30, candidates_per_doc=3)
        corpus = gen_corpus(spec, np.random.default_rng(5))
        labels = sorted(c.label for c in corpus.documents[0].candidates)
        assert labels == [-1, 0, 1]

    def test_same_seed_identical_lines(self):
        spec = CorpusSpec(docs=8, patches=2, vocab_size=40)
        a = gen_corpus(spec, np.random.default_rng(7))
        b = gen_corpus(spec, np.random.default_rng(7))
        assert corpus_lines(a) == corpus_lines(b)

    def test_noise_free_overlap_thresholds(self):
        spec = CorpusSpec(docs=20, patches=2, vocab_size=60, candidates_per_doc=3)
        corpus = gen_corpus(spec, np.random.default_rng(11))
        length = spec.query_len
        for doc in corpus.documents:
            doc_set = set(doc.tokens)
            for cand in doc.candidates:
                overlap = sum(t in doc_set for t in cand.tokens)
                if cand.label == 1:
                    assert overlap >= ceil(0.6 * length)
                elif cand.label == 0:
                    assert ceil(0.2 * length) <= overlap <= ceil(0.6 * length) - 1
                else:
                    assert overlap < ceil(0.2 * length) or NEGATION_TOKEN in cand.tokens

    def test_patch_pools_are_disjoint(self):
        spec = CorpusSpec(docs=10, patches=2, vocab_size=60)
        corpus = gen_corpus(spec, np.random.default_rng(13))
        by_patch = {}
        for doc in corpus.documents:
            by_patch.setdefault(doc.patch_id, set()).update(doc.tokens)
        pools = list(by_patch.values())
        assert len(pools) == 2
        assert not pools[0] & pools[1]

    def test_generated_corpus_reloads_cleanly(self, tmp_path):
        spec = CorpusSpec(docs=6, patches=2, vocab_size=40)
        corpus = gen_corpus(spec, np.random.default_rng(17))
        path = tmp_path / "gen.tsv"
        save_corpus(corpus, str(path))
        reloaded = load_corpus(str(path), keyword_count=spec.keyword_count)
        assert corpus_lines(reloaded) == corpus_lines(corpus)

    def test_keywords_come_from_document(self):
        spec = CorpusSpec(docs=4, patches=1, vocab_size=40)
        corpus = gen_corpus(spec, np.random.default_rng(19))
        for doc in corpus.documents:
            assert set(doc.keywords) <= set(doc.tokens)
            assert len(doc.keywords) == spec.keyword_count

    def test_label_noise_keeps_positive_candidate(self):
        spec = CorpusSpec(docs=30, patches=2, vocab_size=60, noise=0.8)
        corpus = gen_corpus(spec, np.random.default_rng(23))
        for doc in corpus.documents:
            assert any(c.label == 1 for c in doc.candidates)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"docs": 0},
            {"docs": 1, "patches": 2},
            {"candidates_per_doc": 1},
            {"noise": 1.5},
            {"query_len": 1},
            {"doc_len": 3, "query_len": 4},
            {"vocab_size": 10, "doc_len": 12},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SpecInvalid):
            gen_corpus(CorpusSpec(**kwargs), np.random.default_rng(0))


def small_corpus():
    return parse_corpus_lines(WELL_FORMED)


class TestEnvironment:
    def test_single_document_corpus(self):
        corpus = parse_corpus_lines(WELL_FORMED[2:4])
        environment = Environment(corpus, np.random.default_rng(3))
        obs = environment.reset()
        assert obs.doc_id == "d1"
        assert environment.last_of_patch

    def test_fixed_seed_reproduces_observations(self):
        corpus = small_corpus()
        env_a = Environment(corpus, np.random.default_rng(29))
        env_b = Environment(corpus, np.random.default_rng(29))
        for _ in range(20):
            obs_a, obs_b = env_a.reset(), env_b.reset()
            assert obs_a.doc_id == obs_b.doc_id
            assert obs_a.candidates == obs_b.candidates

    def test_candidates_shuffled_not_altered(self):
        corpus = small_corpus()
        environment = Environment(corpus, np.random.default_rng(31))
        obs = environment.reset()
        original = corpus.document(obs.doc_id).candidates
        assert sorted(obs.candidates, key=repr) == sorted(original, key=repr)

    def test_session_mode_walks_patches_contiguously(self):
        spec = CorpusSpec(docs=6, patches=2, vocab_size=40)
        corpus = gen_corpus(spec, np.random.default_rng(37))
        environment = Environment(corpus, np.random.default_rng(41), mode="session")
        seen = []
        for _ in range(len(corpus.documents)):
            obs = environment.reset()
            seen.append((obs.patch_id, environment.last_of_patch))
        patches = [p for p, _ in seen]
        assert patches[:3] == [patches[0]] * 3
        assert patches[3:] == [patches[3]] * 3
        assert patches[0] != patches[3]
        assert [flag for _, flag in seen] == [False, False, True, False, False, True]

    def test_empty_corpus_rejected(self):
        empty = Corpus(documents=(), vocabulary=(), keyword_count=5)
        with pytest.raises(EmptyCorpus):
            Environment(empty, np.random.default_rng(0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Environment(small_corpus(), np.random.default_rng(0), mode="batch")


def interleaved_corpus():
    """Three patches whose documents interleave, so a patch is not a run of rows."""
    corpus = gen_corpus(CorpusSpec(docs=9, patches=3, vocab_size=60), np.random.default_rng(47))
    order = [0, 3, 6, 1, 4, 7, 2, 5, 8]
    return Corpus(
        documents=tuple(corpus.documents[i] for i in order),
        vocabulary=corpus.vocabulary,
        keyword_count=corpus.keyword_count,
    )


def documented_draws(corpus, seed, mode, count):
    """(document, candidate permutation, last_of_patch) per draw, from the stream as documented.

    Bandit: one uniform document index, then a candidate permutation. Session:
    on an empty queue, a permutation of the patches (first-appearance order)
    and one of each patch's documents (corpus order); then a candidate
    permutation per draw.
    """
    rng = np.random.default_rng(seed)
    draws, queue = [], []
    patch_ids = list(dict.fromkeys(doc.patch_id for doc in corpus.documents))
    for _ in range(count):
        if mode == "bandit":
            j, last = int(rng.integers(len(corpus.documents))), True
        else:
            if not queue:
                for p in rng.permutation(len(patch_ids)):
                    docs = [
                        i for i, d in enumerate(corpus.documents) if d.patch_id == patch_ids[p]
                    ]
                    order = rng.permutation(len(docs))
                    queue.extend((docs[i], n == len(order) - 1) for n, i in enumerate(order))
            j, last = queue.pop(0)
        draws.append((j, rng.permutation(len(corpus.documents[j].candidates)).tolist(), last))
    return draws


class TestDraw:
    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_draws_follow_the_documented_stream(self, mode):
        corpus = interleaved_corpus()
        environment = Environment(corpus, np.random.default_rng(53), mode=mode)
        offsets = corpus.compiled.offsets
        for j, permutation, last in documented_draws(corpus, 53, mode, 30):
            drawn, rows = environment.draw()
            assert drawn == j
            assert (rows - offsets[j]).tolist() == permutation
            assert environment.last_of_patch == last

    @pytest.mark.parametrize("mode", ["bandit", "session"])
    def test_reset_wraps_the_same_draw(self, mode):
        corpus = interleaved_corpus()
        drawing = Environment(corpus, np.random.default_rng(59), mode=mode)
        resetting = Environment(corpus, np.random.default_rng(59), mode=mode)
        compiled = corpus.compiled
        for _ in range(30):
            j, rows = drawing.draw()
            obs = resetting.reset()
            doc = corpus.documents[j]
            assert (obs.doc_id, obs.patch_id, obs.keywords) == (
                doc.doc_id,
                doc.patch_id,
                doc.keywords,
            )
            assert [c.label for c in obs.candidates] == compiled.labels[rows].tolist()
            assert obs.candidates == tuple(doc.candidates[i - compiled.offsets[j]] for i in rows)
            assert resetting.last_of_patch == drawing.last_of_patch


class TestStep:
    def test_reward_follows_candidate_label_exhaustively(self):
        spec = CorpusSpec(docs=12, patches=2, vocab_size=40)
        corpus = gen_corpus(spec, np.random.default_rng(43))
        for doc in corpus.documents:
            obs = Observation(
                doc_id=doc.doc_id,
                patch_id=doc.patch_id,
                keywords=doc.keywords,
                candidates=doc.candidates,
            )
            for index, cand in enumerate(doc.candidates):
                reward, transition = step(obs, index)
                assert reward == cand.label
                assert transition.chosen_index == index
                assert transition.reward in (-1, 0, 1)

    def test_step_is_pure(self):
        corpus = small_corpus()
        doc = corpus.documents[0]
        obs = Observation(
            doc_id=doc.doc_id,
            patch_id=doc.patch_id,
            keywords=doc.keywords,
            candidates=doc.candidates,
        )
        assert step(obs, 0)[0] == step(obs, 0)[0]

    def test_invalid_index_rejected(self):
        corpus = small_corpus()
        doc = corpus.documents[0]
        obs = Observation(
            doc_id=doc.doc_id,
            patch_id=doc.patch_id,
            keywords=doc.keywords,
            candidates=doc.candidates,
        )
        with pytest.raises(IndexOutOfRange):
            step(obs, 5)

    def test_transition_validates_reward(self):
        with pytest.raises(InvalidLabel):
            Transition(
                doc_id="d",
                patch_id="p",
                candidates=(),
                chosen_index=0,
                reward=2,
            )

    def test_transition_rejects_positive_log_probability(self):
        with pytest.raises(ValueError):
            Transition(
                doc_id="d",
                patch_id="p",
                candidates=(),
                chosen_index=0,
                reward=1,
                log_probability=0.1,
            )


def one_patch_scent(rewards, smoothing):
    """reward_scent of rewards that all come from one patch."""
    patches = np.zeros(len(rewards), dtype=np.int64)
    return reward_scent(np.array(rewards), patches, ("p0",), smoothing)


class TestScentStats:
    def test_counting_distribution(self):
        stats = one_patch_scent([1, 1, 0], smoothing=0.1)
        np.testing.assert_array_equal(stats.frequencies, [0.0, 1.0 / 3.0, 2.0 / 3.0])

    def test_full_smoothing_tracks_last_reward(self):
        stats = one_patch_scent([-1, -1, -1], smoothing=1.0)
        assert stats.scalar == -1.0

    def test_two_step_smoothing_arithmetic(self):
        stats = one_patch_scent([1, -1], smoothing=0.5)
        assert stats.scalar == -0.25

    def test_per_patch_breakdown(self):
        stats = reward_scent(np.array([1, 1, -1]), np.array([0, 0, 1]), ("a", "b"), 1.0)
        assert set(stats.per_patch) == {"a", "b"}
        assert stats.per_patch["a"].count == 2
        assert stats.per_patch["a"].scalar == 1.0
        assert stats.per_patch["b"].scalar == -1.0
        np.testing.assert_array_equal(stats.per_patch["b"].frequencies, [1.0, 0.0, 0.0])

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(47)
        rewards = [int(rng.choice([-1, 0, 1])) for _ in range(50)]
        stats = one_patch_scent(rewards, smoothing=0.3)
        assert abs(stats.frequencies.sum() - 1.0) <= 1e-12

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            one_patch_scent([], smoothing=0.0)
        with pytest.raises(ValueError):
            one_patch_scent([], smoothing=1.5)


class TestRewardScent:
    def test_empty_input_gives_zeros(self):
        stats = reward_scent(np.array([], dtype=np.int64), np.array([], dtype=np.int64), (), 0.5)
        assert stats.scalar == 0.0
        assert stats.frequencies.tobytes() == np.zeros(3).tobytes()
        assert stats.per_patch == {}

    def test_one_reward(self):
        stats = reward_scent(np.array([-1]), np.array([0]), ("p",), 0.25)
        assert stats.scalar == -0.25
        np.testing.assert_array_equal(stats.frequencies, [1.0, 0.0, 0.0])
        patch = stats.per_patch["p"]
        assert (patch.scalar, patch.count) == (-0.25, 1)
        np.testing.assert_array_equal(patch.frequencies, [1.0, 0.0, 0.0])

    def test_patch_without_rewards_gives_zeros(self):
        stats = reward_scent(np.array([1]), np.array([0]), ("a", "b"), 0.5)
        empty = stats.per_patch["b"]
        assert (empty.scalar, empty.count) == (0.0, 0)
        assert empty.frequencies.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("bad", [2, -2, 0.5])
    def test_out_of_range_reward_rejected(self, bad):
        with pytest.raises(InvalidLabel, match="rewards"):
            reward_scent(np.array([1, bad]), np.array([0, 0]), ("p",), 0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_patches_match_a_per_reward_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        names = ("q", "c", "x", "a")
        rewards = rng.choice([-1, 0, 1], size=97)
        patches = rng.integers(len(names), size=97)
        patches[:4] = [0, 1, 2, 3]  # names lists the patches in first-appearance order
        stats = reward_scent(rewards, patches, names, 0.3)
        overall, per_patch = reference_scent(
            rewards.tolist(), [names[p] for p in patches], 0.3
        )
        assert (stats.scalar, stats.frequencies.tobytes()) == (overall[0], overall[1].tobytes())
        assert list(stats.per_patch) == list(per_patch) == list(names)
        for pid, (scalar, freq, count) in per_patch.items():
            got = stats.per_patch[pid]
            assert (got.scalar, got.frequencies.tobytes(), got.count) == (
                scalar,
                freq.tobytes(),
                count,
            )

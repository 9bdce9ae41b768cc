import hashlib
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrangerank.cli import main
from arrangerank.data import (GRAM_CHUNK, Instance, LogItem, ParseError, UserLog, _unit_rows,
                              generate_synthetic, oracle_seed, read_dataset, read_instances,
                              read_key_values, slate_grades, temporal_split, write_dataset,
                              write_instances)
from arrangerank.permutation import Permutation
from arrangerank.reader import CandidateSet, UserContext


def _log(user_id: int, t: int) -> UserLog:
    rng = np.random.default_rng(user_id)
    return UserLog(user_id, rng.normal(size=3),
                   [LogItem(100 * user_id + k, rng.normal(size=3), int(k % 5))
                    for k in range(1, t + 1)])


def test_split_drops_short_logs():
    split = temporal_split([_log(1, 29)])
    assert split.kept_users == 0 and split.dropped_users == 1
    assert not split.train and not split.validation and not split.test


def test_split_boundary_t30_empty_train_history():
    split = temporal_split([_log(1, 30)])
    assert split.kept_users == 1
    inst = split.train[0]
    assert len(inst.ctx.history) == 0
    assert inst.cands.ids == tuple(100 + k for k in range(1, 11))  # items 1..10
    assert split.validation[0].cands.ids == tuple(100 + k for k in range(11, 21))
    assert split.test[0].cands.ids == tuple(100 + k for k in range(21, 31))


def test_split_t40_index_arithmetic():
    split = temporal_split([_log(2, 40)])
    train, val, test = split.train[0], split.validation[0], split.test[0]
    assert len(train.ctx.history) == 10                      # items 1..10
    assert train.cands.ids == tuple(200 + k for k in range(11, 21))
    assert len(val.ctx.history) == 20
    assert val.cands.ids == tuple(200 + k for k in range(21, 31))
    assert len(test.ctx.history) == 30
    assert test.cands.ids == tuple(200 + k for k in range(31, 41))


def test_split_no_leakage_and_determinism():
    logs = [_log(u, 30 + u) for u in range(1, 6)]
    s1, s2 = temporal_split(logs), temporal_split(logs)
    for inst1, inst2 in zip(s1.train + s1.validation + s1.test,
                            s2.train + s2.validation + s2.test):
        assert inst1.cands.ids == inst2.cands.ids
        assert np.array_equal(inst1.ctx.history, inst2.ctx.history)
    for log, tr, va, te in zip(logs, s1.train, s1.validation, s1.test):
        positions = {it.item_id: k for k, it in enumerate(log.items)}
        for inst in (tr, va, te):
            hist_max = len(inst.ctx.history) - 1
            assert all(positions[c] > hist_max for c in inst.cands.ids)


def test_slate_grades_context_free_is_slate_independent():
    rng = np.random.default_rng(0)
    taste = rng.normal(size=6)
    taste /= np.linalg.norm(taste)
    feats = rng.normal(size=(8, 6))
    base = slate_grades(taste, feats, 0.0)
    swapped = feats.copy()
    swapped[3] = rng.normal(size=6)  # replace one distractor
    after = slate_grades(taste, swapped, 0.0)
    keep = [i for i in range(8) if i != 3]
    assert np.array_equal(base[keep], after[keep])


def test_slate_grades_context_changes_some_grade():
    rng = np.random.default_rng(1)
    taste = rng.normal(size=6)
    taste /= np.linalg.norm(taste)
    hit = False
    for _ in range(50):
        feats = rng.normal(size=(8, 6))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        feats[4] = feats[2] + 0.01 * rng.normal(size=6)  # near-duplicate pair
        feats[4] /= np.linalg.norm(feats[4])
        if not np.array_equal(slate_grades(taste, feats, 0.0),
                              slate_grades(taste, feats, 2.0)):
            hit = True
            break
    assert hit


def _slate_grades_reference(taste, features, context_strength, r_max=4):
    """The per-item saturation loop that slate_grades replaced with one masked max."""
    affinity = features @ taste
    n = features.shape[0]
    penalty = np.zeros(n)
    if context_strength > 0.0 and n > 1:
        sims = features @ features.T
        for d in range(n):
            better = affinity > affinity[d]
            if better.any():
                penalty[d] = max(0.0, float(sims[d, better].max()) - 0.85) / 0.15
    score = affinity - 0.45 * context_strength * penalty
    return np.clip(np.floor(score / 0.75 * (r_max + 1)), 0, r_max).astype(int)


def test_slate_grades_equal_the_per_item_loop():
    rng = np.random.default_rng(12)
    for trial in range(600):
        n, dim = int(rng.integers(1, 13)), int(rng.integers(2, 9))
        taste = rng.normal(size=dim)
        taste /= np.linalg.norm(taste)
        protos = rng.normal(size=(max(1, n // 3), dim))  # clustered rows, so mates nearly repeat
        feats = protos[rng.integers(len(protos), size=n)] + 0.05 * rng.normal(size=(n, dim))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        if trial % 5 == 0 and n > 1:
            feats[-1] = feats[0]  # an exact tie in affinity
        for strength in (0.0, 0.5, 1.0, 2.5):
            for r_max in (1, 4):
                assert np.array_equal(slate_grades(taste, feats, strength, r_max),
                                      _slate_grades_reference(taste, feats, strength, r_max))


def test_stacked_slate_grades_hold_one_gram_array_at_their_peak():
    """The gram matrices of stacked slates are built GRAM_CHUNK slates at a time and masked in
    place, so a call's transient peak holds one (chunk, n, n) float array and its 1-byte mask
    beside two (users, 3, n) float arrays, whatever the user count; not a masked copy beside
    it, nor every user's gram at once."""
    rng = np.random.default_rng(25)
    users, n, dim = 2000, 40, 8
    taste = _unit_rows(rng.normal(size=(users, 1, dim)))
    protos = rng.normal(size=(users, 3, 4, dim))  # clustered rows, so mates nearly repeat
    slates = _unit_rows(protos[:, :, rng.integers(4, size=n)] + 0.1 * rng.normal(
        size=(users, 3, n, dim)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grades = slate_grades(taste, slates, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    gram, scores = GRAM_CHUNK * n * n * 8, users * 3 * n * 8
    assert peak < 1.25 * gram + 2 * scores, f"peak {peak} B against one {gram} B chunk gram"
    for u in [*range(0, users, 200), 255, 256, users - 1]:  # 256 starts the second chunk
        for s in range(3):
            assert np.array_equal(grades[u, s],
                                  _slate_grades_reference(taste[u, 0], slates[u, s], 1.0))


def test_generator_peak_stays_near_the_logs_it_returns():
    """The draw and work arrays are dropped before the per-item log lists are built, so the
    call's peak stays near what it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logs = generate_synthetic(1000, history_len=8, n_candidates=10, seed=27)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(logs) == 1000
    assert peak <= 1.25 * held, f"peak {peak} B against {held} B held after the call"


def test_key_values_keep_utf8_comments_and_name_a_byte_that_is_not_utf8(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# r\u00e9glages\nepochs = 2  # \u00e9poques\nepochs = 3\n", encoding="utf-8")
    assert read_key_values(cfg) == {"epochs": ("3", 3)}
    cfg.write_bytes(b"epochs = 2\n# \xe9poques\n")  # Latin-1, not UTF-8
    with pytest.raises(ParseError, match=rf"^{re.escape(str(cfg))}:2: byte 0xe9 is not UTF-8$"):
        read_key_values(cfg)


@settings(max_examples=100)
@given(st.integers(1, 600), st.integers(2, 12), st.data())
def test_slate_grades_of_a_chunk_of_users_equal_their_rows_of_one_stacked_call(users, n, data):
    """Up to 600 users, so one stacked call crosses GRAM_CHUNK slates' boundaries."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    taste = _unit_rows(rng.normal(size=(users, 1, 8)))
    protos = rng.normal(size=(users, 3, 3, 8))  # clustered rows, so mates nearly repeat
    slates = _unit_rows(protos[:, :, rng.integers(3, size=n)] + 0.1 * rng.normal(
        size=(users, 3, n, 8)))
    start = data.draw(st.integers(0, users - 1))
    stop = data.draw(st.integers(start + 1, users))
    strength = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    assert np.array_equal(slate_grades(taste[start:stop], slates[start:stop], strength),
                          slate_grades(taste, slates, strength)[start:stop])


def _per_user_reference(n_users, history_len=10, n_candidates=10, feature_dim=8,
                        context_strength=1.0, seed=0, r_max=4):
    """The per-user generator that generate_synthetic's two array phases replaced: each user
    draws and then computes its vectors and grades, one slate at a time, before the next user
    draws."""
    def unit_rows(m):
        return m / np.maximum(np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0]), 1e-12)[:, None]

    def taste_mix(taste, low, high, n):
        alpha, g = np.empty((n, 1)), np.empty((n, taste.shape[0]))
        for k in range(n):
            alpha[k], g[k] = rng.uniform(low, high), rng.normal(size=taste.shape[0])
        g -= (g[:, None, :] @ taste[:, None])[:, 0] * taste
        return unit_rows(alpha * taste + np.sqrt(np.maximum(1e-12, 1.0 - alpha * alpha))
                         * unit_rows(g))

    rng = np.random.default_rng(seed)
    n_proto = max(2, n_candidates // 2)
    logs = []
    for u in range(n_users):
        taste = unit_rows(rng.normal(size=(1, feature_dim)))[0]
        profile = taste + 0.1 * rng.normal(size=feature_dim)
        feats = [taste_mix(taste, 0.3, 0.9, history_len)]
        affinity = (feats[0][:, None, :] @ taste[:, None])[:, 0, 0]  # each row's 1-D dot
        grades = np.clip(np.floor(affinity / 0.75 * (r_max + 1)), 0, r_max).astype(int).tolist()
        picks, noise = np.empty(n_candidates, dtype=int), np.empty((n_candidates, feature_dim))
        for _slate in range(3):
            protos = taste_mix(taste, 0.0, 0.8, n_proto)
            for k in range(n_candidates):
                picks[k], noise[k] = rng.integers(n_proto), rng.normal(size=feature_dim)
            feats.append(unit_rows(protos[picks] + 0.1 * noise))
            grades += _slate_grades_reference(taste, feats[-1], context_strength, r_max).tolist()
        items = [LogItem(u * 1_000_000 + k, x, g)
                 for k, (x, g) in enumerate(zip(np.concatenate(feats), grades))]
        logs.append(UserLog(user_id=u, profile=profile, items=items))
    return logs


# (history, candidates, dim): every history 0/1/8/32, candidate count 1/2/7/10/40 and
# width 2/3/8/16/32 appears, with the study shape (8, 10, 8)
_REFERENCE_SHAPES = [(0, 1, 2), (1, 2, 3), (8, 7, 8), (32, 10, 16), (8, 40, 32), (1, 40, 2),
                     (32, 1, 32), (0, 10, 8), (8, 10, 8), (32, 40, 3), (1, 7, 16)]


@pytest.mark.parametrize("context", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("shape", _REFERENCE_SHAPES, ids=lambda s: "h%d-c%d-d%d" % s)
def test_generator_equals_the_per_user_reference_bit_for_bit(shape, context):
    history, candidates, dim = shape
    for n_users, seed in ((1, 0), (1, 31337), (37, 2024), (37, 77)):
        kwargs = dict(history_len=history, n_candidates=candidates, feature_dim=dim,
                      context_strength=context, seed=seed + history + candidates + dim)
        _assert_same_logs(generate_synthetic(n_users, **kwargs),
                          _per_user_reference(n_users, **kwargs))


@pytest.mark.parametrize("seed", [5, 24])
@pytest.mark.parametrize("context", [0.0, 1.0, 2.0])
def test_generator_equals_the_per_user_reference_on_200_users(seed, context):
    kwargs = dict(history_len=8, n_candidates=10, feature_dim=8, context_strength=context,
                  seed=seed, r_max=seed % 4 + 1)
    _assert_same_logs(generate_synthetic(200, **kwargs), _per_user_reference(200, **kwargs))


def _assert_same_logs(got, want):
    """Every user id, profile byte, item id, grade and feature byte."""
    assert [log.user_id for log in got] == [log.user_id for log in want]
    for a, b in zip(got, want):
        assert a.profile.shape == b.profile.shape and _bits(a.profile) == _bits(b.profile)
        assert ([(it.item_id, it.grade, it.features.shape) for it in a.items]
                == [(it.item_id, it.grade, it.features.shape) for it in b.items])
        assert all(type(it.grade) is int for it in a.items)
        assert _bits([it.features for it in a.items]) == _bits([it.features for it in b.items])


def test_generator_determinism_bytes(tmp_path):
    logs1 = generate_synthetic(8, history_len=5, seed=3)
    logs2 = generate_synthetic(8, history_len=5, seed=3)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_dataset(logs1, p1)
    write_dataset(logs2, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=200)
@given(st.integers(2, 32), st.integers(0, 40), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.integers(1, 60), st.integers(1, 3))
def test_stacked_row_products_equal_the_per_row_dots_bit_for_bit(width, n, seed, unit, users,
                                                                  slates):
    """The generator takes its norms and affinities as stacked (1, d) @ (d, 1) products, which
    must give each row's 1-D ``x.dot`` bits; ``m @ t``, einsum and (m * m).sum(1) do not on
    every BLAS build. It stacks them over users, slates and rows, each user's taste broadcast
    over its rows, and takes each slate's scores and gram as stacked (n, d) @ (d, 1) and
    (n, d) @ (d, n) products, which must give the 2-D products' bits. If this fails, the
    golden data digests move too."""
    rng = np.random.default_rng(seed)
    m, t = rng.normal(size=(users, slates, n, width)), rng.normal(size=(users, width))
    if unit:
        m = m / np.array([math.sqrt(x.dot(x)) for x in m.reshape(-1, width)]).reshape(
            users, slates, n, 1)
        t = t / np.array([math.sqrt(x.dot(x)) for x in t]).reshape(-1, 1)
    rows, owner = m.reshape(-1, width), np.repeat(np.arange(users), slates * n)
    dots = [x.dot(x) for x in rows]
    assert _bits((rows[:, None, :] @ rows[:, :, None])[:, 0, 0]) == _bits(dots)
    assert _bits((m[..., None, :] @ m[..., :, None])[..., 0, 0]) == _bits(dots)
    assert _bits((rows[:, None, :] @ t[0][:, None])[:, 0, 0]) == _bits([x.dot(t[0]) for x in rows])
    per_user = m.reshape(users, slates * n, 1, width)  # (U, k, 1, d) @ (U, 1, d, 1)
    assert (_bits((per_user @ t[:, None, :, None])[..., 0, 0])
            == _bits([x.dot(t[u]) for x, u in zip(rows, owner)]))
    norms = np.maximum(np.sqrt(dots), 1e-12).reshape(-1, 1)
    assert _bits(_unit_rows(rows)) == _bits(rows / norms) == _bits(_unit_rows(m))
    slate_rows = m.reshape(users * slates, n, width)  # the 2-D products, one slate at a time
    assert (_bits((m @ t[:, None, :, None])[..., 0])
            == _bits([s @ t[k // slates] for k, s in enumerate(slate_rows)]))
    assert _bits(m @ m.swapaxes(-1, -2)) == _bits([s @ s.T for s in slate_rows])


# sha256 of the files a seeded generation writes, taken before the generator and the
# file formatting were vectorised: the data path must keep every byte.
_GOLDEN = {
    "context-off": (dict(context_strength=0.0, seed=21), {
        "dataset": "27bbde94212cc9be03115d0892658e8e0697ab4ba51d7e6da571462784b1e4ae",
        "train": "c0b5451b13c72f3efc55e4de1ca14d0f461f9c205bbb80dd9639fedcc94ab9c8",
        "validation": "a3b82a97eef3c806d3713e83c6882daf67819fa6c8fa732dfd2824abeb4ab531",
        "test": "b598ed4906d4fc7780db194e6e413aca9fe78338391cade17ae526f9eec5fb4a"}),
    "context-1.5": (dict(context_strength=1.5, seed=22), {
        "dataset": "7ee337bf4da8919bfa2e2a15044102cc651cec67041e44563998392ecfc91f7e",
        "train": "7535219ae6ce605daf85e3b342ece78d4ca6c1781a8582597215781d7ad0b1d8",
        "validation": "cc06fc7e5144deeeb8d014b0ee7dc4349c0edec114875061633ee7e1bd3d1a9d",
        "test": "4ce39e0e2f062cb21e8e50e25e498402a63d855af16d3ae32eefd5cc19df3d77"}),
    "no-history": (dict(history_len=0, seed=23), {
        "dataset": "f47a9259c044233bb05d5b0e730dc57b6e4c1c33314cefdd1f9b226fa7eb8c04",
        "train": "bdf76a5711fd70b46283086c0bfd6864e276d4707dea86fd3b4a719a412da9e6",
        "validation": "ca64f4407605068bc51da7af5ec8f46115ce721378242265ebb9537985361933",
        "test": "231db06a6043396a1acf314562981ecc3cf5cd5c4afd13b9032a69ef23b42ed3"}),
    "7-candidates": (dict(n_candidates=7, history_len=12, seed=24), {
        "dataset": "c874f87cb00bee33c1b43666deaf804ffd3dc02855d31588f4a9f520eeefb7c6",
        "train": "bfcf8774153fc9851d90a2dd3246ae9243049e8cb5b6ed616792d0e96e047403",
        "validation": "02db2873ac7825393f26c745788720f7e5dcdc3487c1dbb40bf49c43f2d8fd6f",
        "test": "045923248dec958bfb3232100953b55376cce02a703db13df189fa72831bdb67"}),
    "20-candidates": (dict(n_candidates=20, seed=25), {
        "dataset": "6750f0a60b326f9b416aa29c40d528e4a23cd316959e7f0ac04e1a6cdc18a524",
        "train": "da94f3abc23ccbb1044c00a194faa394b48c2c49fbd844b44bf915880deba815",
        "validation": "d2293812acdcb6a6414e4e63ef69abb552a15e230eabc2885440e2880c74d15e",
        "test": "e37bed54a8056dc0bb0bfc913afbd6c159c6d8d795c8b296425dba394f963c79"}),
    "feature-dim-3": (dict(feature_dim=3, seed=26), {
        "dataset": "4dc3b55bbaa6ecb07e737005aafe07c18db197f7967ddd2bf049a9e7a4806eec",
        "train": "c0becb999585ce50e9a439c9ef4c087694becad63c53a4a39fea07a11d2508a0",
        "validation": "9d6da5f7bbc0fb5f514a205c45f2aa392cb8cba8b580b1d8591a542d04a0d2fc",
        "test": "c8046f4490312cc1ea4d892bd6f3f7767add1ebe63e56d2d629125e1e0d00976"}),
}


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_generated_files_match_their_golden_digests(tmp_path, case):
    kwargs, want = _GOLDEN[case]
    logs = generate_synthetic(5, **kwargs)
    write_dataset(logs, tmp_path / "dataset.txt")
    split = temporal_split(logs)
    inst = split.train[0]  # one oracle, so the fifth field is written too
    inst.oracle = Permutation(sorted(inst.labels, key=lambda i: (-inst.labels[i], i)))
    for part in ("train", "validation", "test"):
        write_instances(getattr(split, part), tmp_path / f"{part}.txt")
    got = {name: hashlib.sha256((tmp_path / f"{name}.txt").read_bytes()).hexdigest()
           for name in want}
    assert got == want


@pytest.mark.golden
@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_cli_split_files_match_their_golden_digests(tmp_path, case):
    kwargs, want = _GOLDEN[case]
    write_dataset(generate_synthetic(5, **kwargs), tmp_path / "dataset.txt")
    assert main(["split", "--data", str(tmp_path / "dataset.txt"),
                 "--out", str(tmp_path / "split")]) == 0
    for part in ("validation", "test"):  # train lacks the oracle the golden split adds
        got = hashlib.sha256((tmp_path / "split" / f"{part}.txt").read_bytes()).hexdigest()
        assert got == want[part], part


def _row_texts(line: str) -> list[str]:
    """The profile, history and candidate feature texts of an instance line, in order."""
    _, profile, hist, cands, _ = line.split("|")
    return [profile] + [tok.split(":")[2] for tok in f"{hist};{cands}".split(";") if tok]


def _repr_rows(inst: Instance) -> list[str]:
    rows = [inst.ctx.profile, *inst.ctx.history, *inst.cands.features]
    return [",".join(repr(float(x)) for x in row) for row in rows]


def test_split_memo_writes_signed_zeros_as_repr_does(tmp_path):
    rows = [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]]  # equal values, other bytes
    log = UserLog(7, np.array([-0.0, 0.0]),
                  [LogItem(k, np.array(rows[k % 4]), k % 5) for k in range(30)])
    split = temporal_split([log])
    assert split.train[0].row_text is split.test[0].row_text
    for part in ("train", "validation", "test"):
        write_instances(getattr(split, part), tmp_path / f"{part}.txt")
        [line] = (tmp_path / f"{part}.txt").read_text().splitlines()
        assert _row_texts(line) == _repr_rows(getattr(split, part)[0])
    assert {"0.0,1.0", "-0.0,1.0", "0.0,-0.0", "-0.0,-0.0"} <= set(_row_texts(line))


def test_split_memo_formats_a_row_edited_between_writes_anew(tmp_path):
    split = temporal_split([_log(3, 40)])
    write_instances(split.train, tmp_path / "train.txt")
    test = split.test[0]
    assert np.array_equal(test.ctx.history[10], split.train[0].cands.features[0])
    test.ctx.history[10, 1] = 12.5  # the first train candidate, now test history
    write_instances(split.test, tmp_path / "test.txt")
    [line] = (tmp_path / "test.txt").read_text().splitlines()
    assert _row_texts(line) == _repr_rows(test)
    assert _row_texts(line)[11].split(",")[1] == "12.5"


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_read_back_instances_write_the_bytes_of_the_split_memo(tmp_path, case):
    split = temporal_split(generate_synthetic(5, **_GOLDEN[case][0]))
    for part in ("train", "validation", "test"):
        write_instances(getattr(split, part), tmp_path / f"{part}.txt")
        back = read_instances(tmp_path / f"{part}.txt")
        assert all(inst.row_text is None for inst in back)
        write_instances(back, tmp_path / f"{part}.again.txt")
        assert ((tmp_path / f"{part}.again.txt").read_bytes()
                == (tmp_path / f"{part}.txt").read_bytes())


# rows spelled as repr would not spell them (1.50, 1_0, ' 2.5') or at its edges (-0.0, a
# subnormal); the last spells the first row's bytes again, so the first spelling wins
_SPELLED = ["1.50,1_0", " 2.5,-0.0", "1e-320,0.25", "1.5,10.0"]


def _spelled_dataset(tmp_path):
    """A one-user dataset file of 32 items whose rows cycle through ``_SPELLED``."""
    items = ";".join(f"{k}:{k % 5}:{_SPELLED[k % 4]}" for k in range(32))
    path = tmp_path / "dataset.txt"
    path.write_text(f"4| 2.5,1.50|{items}\n")
    return path


def test_split_of_a_read_dataset_copies_each_row_as_the_file_spelled_it(tmp_path):
    split = temporal_split(read_dataset(_spelled_dataset(tmp_path)))
    for part in ("train", "validation", "test"):
        write_instances(getattr(split, part), tmp_path / f"{part}.txt")
        [line] = (tmp_path / f"{part}.txt").read_text().splitlines()
        [inst] = getattr(split, part)
        n_rows = len(inst.ctx.history) + len(inst.cands.ids)
        assert _row_texts(line) == [" 2.5,1.50"] + [_SPELLED[k % 4 % 3] for k in range(n_rows)]
        [back] = read_instances(tmp_path / f"{part}.txt")
        assert (_bits(back.ctx.profile), _bits(back.ctx.history), _bits(back.cands.features)) \
            == (_bits(inst.ctx.profile), _bits(inst.ctx.history), _bits(inst.cands.features))


def test_a_row_edited_after_reading_is_written_as_repr_spells_it(tmp_path):
    [log] = read_dataset(_spelled_dataset(tmp_path))
    log.items[31].features[1] = 12.5  # was 1.5,10.0, which the file spelled 1.50,1_0
    [test] = temporal_split([log]).test
    write_instances([test], tmp_path / "test.txt")
    [line] = (tmp_path / "test.txt").read_text().splitlines()
    assert _row_texts(line)[-4:] == ["1.50,1_0", " 2.5,-0.0", "1e-320,0.25", "1.5,12.5"]


def test_row_text_takes_no_part_in_user_log_equality_or_repr(tmp_path):
    [log] = read_dataset(_spelled_dataset(tmp_path))
    assert log.row_text
    assert UserLog(log.user_id, log.profile, log.items) == log
    assert "row_text" not in repr(log)


def test_generator_composes_with_split():
    logs = generate_synthetic(6, history_len=4, seed=5)
    assert all(len(log.items) == 34 for log in logs)
    split = temporal_split(logs)
    assert split.kept_users == 6
    assert all(len(inst.cands.ids) == 10 for inst in split.train)
    assert all(len(inst.ctx.history) == 4 for inst in split.train)


def test_generator_context_effect_exists_in_generated_set():
    # regenerate with context off under the same seed; some grade must differ
    logs = generate_synthetic(30, history_len=4, context_strength=1.0, seed=6)
    logs0 = generate_synthetic(30, history_len=4, context_strength=0.0, seed=6)
    differs = False
    for a, b in zip(logs, logs0):
        for ia, ib in zip(a.items, b.items):
            assert ia.item_id == ib.item_id
            if ia.grade != ib.grade:
                differs = True
    assert differs


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(0)
    with pytest.raises(ValueError):
        generate_synthetic(3, n_candidates=-1)


@pytest.mark.parametrize("strength", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
def test_generator_rejects_a_context_strength_that_is_not_finite_and_non_negative(strength):
    with pytest.raises(ValueError, match="^context_strength must be finite and >= 0, got "):
        generate_synthetic(3, context_strength=strength)


def test_dataset_round_trip(tmp_path):
    logs = generate_synthetic(5, history_len=3, seed=7)
    path = tmp_path / "data.txt"
    write_dataset(logs, path)
    back = read_dataset(path)
    assert len(back) == len(logs)
    for a, b in zip(logs, back):
        assert a.user_id == b.user_id
        assert np.array_equal(a.profile, b.profile)
        assert len(a.items) == len(b.items)
        for ia, ib in zip(a.items, b.items):
            assert ia.item_id == ib.item_id and ia.grade == ib.grade
            assert np.array_equal(ia.features, ib.features)


def test_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert read_dataset(path) == []


def test_dataset_truncated_record_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1|0.5,0.5|10:2:0.1,0.2\n2|0.5|10:2\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2"):
        read_dataset(path)


def test_instances_round_trip_with_oracle(tmp_path):
    logs = generate_synthetic(4, history_len=4, seed=8)
    split = temporal_split(logs)
    split.train[0].oracle = Permutation(sorted(split.train[0].labels,
                                               key=lambda i: -split.train[0].labels[i]))
    path = tmp_path / "train.txt"
    write_instances(split.train, path)
    back = read_instances(path)
    assert len(back) == len(split.train)
    assert back[0].oracle.order == split.train[0].oracle.order
    assert back[1].oracle is None
    for a, b in zip(split.train, back):
        assert a.query_id == b.query_id
        assert a.cands.ids == b.cands.ids
        assert a.labels == b.labels
        assert np.array_equal(a.ctx.history, b.ctx.history)
        assert np.array_equal(a.cands.features, b.cands.features)


_GOOD_INSTANCE = "q0|0.5,0.5|0:0:0.1,0.2|10:2:0.1,0.2;11:1:0.3,0.4|11,10"


@pytest.mark.parametrize("bad", [
    pytest.param("q1|nan,0.5|0:0:0.1,0.2|10:2:0.1,0.2;11:1:0.3,0.4|", id="nan-profile-value"),
    pytest.param("q1|0.5,0.5|0:0:0.1,inf|10:2:0.1,0.2;11:1:0.3,0.4|", id="inf-history-feature"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:-inf,0.4|", id="inf-candidate-feature"),
    pytest.param("q1|0.5,0.5||10:-1:0.1,0.2;11:1:0.3,0.4|", id="negative-grade"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3|", id="ragged-candidates"),
    pytest.param("q1|0.5,0.5|0:0:0.1,0.2,0.3|10:2:0.1,0.2;11:1:0.3,0.4|", id="history-vs-candidates"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;10:1:0.3,0.4|", id="duplicate-candidate-id"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10", id="oracle-misses-an-id"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10,12", id="oracle-names-a-stranger"),
    pytest.param("q1|0.5,0.5||10:2:0.1,0.2;11:1:0.3,0.4|10,10", id="oracle-repeats-an-id"),
])
def test_instances_reject_bad_line_naming_it(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text(f"{_GOOD_INSTANCE}\n{bad}\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: "):
        read_instances(path)
    path.write_text(f"{_GOOD_INSTANCE}\n")
    assert len(read_instances(path)) == 1


@pytest.mark.parametrize("bad", [
    pytest.param("2|0.5,nan|10:2:0.1,0.2", id="nan-profile-value"),
    pytest.param("2|0.5,0.5|10:2:0.1,inf", id="inf-feature"),
    pytest.param("2|0.5,0.5|10:-3:0.1,0.2", id="negative-grade"),
    pytest.param("2|0.5,0.5|10:2:0.1,0.2;11:1:0.3", id="ragged-features"),
])
def test_dataset_rejects_bad_line_naming_it(tmp_path, bad):
    path = tmp_path / "bad.txt"
    # grade 9 is above the default r_max; only a metric knows its r_max, so the reader keeps it
    path.write_text(f"1|0.5,0.5|10:2:0.1,0.2;11:9:0.3,0.4\n{bad}\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: "):
        read_dataset(path)


_ROUND_TRIP = settings(max_examples=60)
_float = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals and extremes too
_grade = st.integers(0, 9)  # grades above a metric's r_max are kept; only a metric rejects them


def _vector(dim):
    return st.lists(_float, min_size=dim, max_size=dim).map(np.array)


@st.composite
def _user_logs(draw):
    dim = draw(st.integers(1, 4))
    logs = []
    for user in draw(st.lists(st.integers(0, 10 ** 9), max_size=4, unique=True)):
        ids = draw(st.lists(st.integers(0, 10 ** 12), max_size=5))  # a log may repeat an item
        logs.append(UserLog(user, draw(_vector(dim)),
                            [LogItem(i, draw(_vector(dim)), draw(_grade)) for i in ids]))
    return logs


@st.composite
def _instances(draw):
    dim, profile_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))  # one of each per file
    out = []
    for k in range(draw(st.integers(0, 4))):
        ids = draw(st.lists(st.integers(0, 10 ** 12), min_size=1, max_size=5, unique=True))
        inst = Instance(
            query_id=draw(st.sampled_from([f"{k}:train", f"u{k}:test", f"q {k}"])),
            ctx=UserContext(draw(_vector(profile_dim)),
                            draw(st.lists(_vector(dim), max_size=3)), feature_dim=dim),
            cands=CandidateSet((i, draw(_vector(dim))) for i in ids),
            labels={i: draw(_grade) for i in ids})
        if draw(st.booleans()):
            inst.oracle = Permutation(draw(st.permutations(ids)))
        out.append(inst)
    return out


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _in_a_file(write, rows, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        write(rows, path)
        return read(path)


@_ROUND_TRIP
@given(_user_logs())
def test_read_dataset_inverts_write_dataset(logs):
    back = _in_a_file(write_dataset, logs, read_dataset)
    assert [(b.user_id, _bits(b.profile), [(it.item_id, it.grade, _bits(it.features))
                                           for it in b.items]) for b in back] == \
        [(a.user_id, _bits(a.profile), [(it.item_id, it.grade, _bits(it.features))
                                        for it in a.items]) for a in logs]


@st.composite
def _long_user_logs(draw):
    dim = draw(st.integers(1, 3))
    return [UserLog(user, draw(_vector(dim)), [LogItem(k, draw(_vector(dim)), draw(_grade))
                                               for k in range(draw(st.integers(30, 33)))])
            for user in range(draw(st.integers(1, 2)))]


@_ROUND_TRIP
@given(_long_user_logs())
def test_a_split_of_a_written_dataset_writes_what_a_split_of_its_logs_writes(logs):
    back = _in_a_file(write_dataset, logs, read_dataset)
    for part in ("train", "validation", "test"):
        want, got = (_in_a_file(write_instances, getattr(temporal_split(src), part),
                                lambda path: Path(path).read_bytes()) for src in (logs, back))
        assert got == want


@_ROUND_TRIP
@given(_instances())
def test_read_instances_inverts_write_instances_oracles_included(instances):
    def key(inst):
        return (inst.query_id, _bits(inst.ctx.profile), _bits(inst.ctx.history),
                inst.ctx.history.shape, inst.cands.ids, _bits(inst.cands.features), inst.labels,
                inst.oracle.order if inst.oracle else None)

    back = _in_a_file(write_instances, instances, read_instances)
    assert [key(b) for b in back] == [key(a) for a in instances]


def _drop_last_grade(line):
    """Cut ':grade' out of the line's last item record ('id:features' is malformed)."""
    if ":" not in line:
        return None  # a browse log without items
    last = line.rindex(":")
    return line[:line.rindex(":", 0, last)] + line[last:]


_CORRUPTIONS = {  # each makes any line of either format unreadable
    "drop a field": lambda line: line.replace("|", "", 1),
    "add a field": lambda line: line + "|",
    "profile value not a number": lambda line: line.replace("|", "|x", 1),
    "non-finite profile value": lambda line: line.replace("|", "|nan,", 1),
    "item record without its grade": _drop_last_grade,
}


@_ROUND_TRIP
@given(st.one_of(_user_logs().map(lambda logs: ("logs", logs)),
                 _instances().map(lambda insts: ("instances", insts))),
       st.sampled_from(sorted(_CORRUPTIONS)), st.data())
def test_one_corrupted_line_is_rejected_naming_file_and_line(case, corruption, data):
    kind, rows = case
    assume(rows)
    write, read = ((write_dataset, read_dataset) if kind == "logs"
                   else (write_instances, read_instances))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        write(rows, path)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        bad = data.draw(st.integers(0, len(lines) - 1))
        lines[bad] = _CORRUPTIONS[corruption](lines[bad])
        assume(lines[bad] is not None)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(path)}:{bad + 1}: "):
            read(path)


def _three_line_files(tmp_path):
    """A 3-user dataset.txt and its train.txt, as lists of lines; features are 8 wide."""
    logs = generate_synthetic(3, history_len=4, seed=9)
    write_dataset(logs, tmp_path / "dataset.txt")
    write_instances(temporal_split(logs).train, tmp_path / "train.txt")
    return ((tmp_path / "dataset.txt").read_text().splitlines(),
            (tmp_path / "train.txt").read_text().splitlines())


def _cut_profile(line, n):
    fields = line.split("|")
    fields[1] = ",".join(fields[1].split(",")[:n])
    return "|".join(fields)


def _cut_features(field, n):
    """Every item of a ';'-separated item field keeps its first n feature values."""
    items = [tok.rsplit(":", 1) for tok in field.split(";") if tok]
    return ";".join(f"{head}:{','.join(feats.split(',')[:n])}" for head, feats in items)


@pytest.mark.parametrize("reader, what", [(read_dataset, "profile"), (read_dataset, "feature"),
                                          (read_instances, "profile"),
                                          (read_instances, "feature")])
def test_readers_reject_a_width_that_differs_from_earlier_lines(tmp_path, reader, what):
    dataset, train = _three_line_files(tmp_path)
    lines, name = (dataset, "dataset.txt") if reader is read_dataset else (train, "train.txt")
    fields = lines[1].split("|")
    if what == "profile":
        lines[1] = _cut_profile(lines[1], 3)
    else:  # every item field of the line, so the line alone is consistent
        items = (2,) if reader is read_dataset else (2, 3)
        lines[1] = "|".join(_cut_features(f, 3) if k in items else f for k, f in enumerate(fields))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: {what} width 3 differs "
                                         rf"from 8 earlier in the file$"):
        reader(path)
    path.write_text(lines[1] + "\n")  # the same line alone is a valid file
    assert len(reader(path)) == 1


def test_dataset_feature_width_is_set_by_the_first_line_with_items(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1|0.5,0.5|\n2|0.5,0.5|11:1:0.1\n3|0.5,0.5|\n4|0.5,0.5|12:1:0.1,0.2\n")
    with pytest.raises(ParseError, match=r"data\.txt:4: feature width 2 differs from 1 earlier"):
        read_dataset(path)


@pytest.mark.parametrize("reader, good", [(read_dataset, "1|0.5,0.5|10:2:0.1,0.2"),
                                          (read_instances, _GOOD_INSTANCE)],
                         ids=["dataset", "instances"])
def test_undecodable_byte_is_rejected_naming_file_and_line(tmp_path, reader, good):
    path = tmp_path / "bad.txt"
    path.write_bytes(f"{good}\n".encode() + good.replace("0.5", "0.\xe9", 1).encode() + b"\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: byte 0xc3 at column \d+ is not ASCII$"):
        reader(path)


def _token_cases(tok, what):
    """(reader, line, the row the reader returns that holds ``tok``, that row's text) with
    ``tok`` as a profile or an item feature value of each format; the rest is valid."""
    if what == "profile":
        return [(read_dataset, f"1|{tok},0.5|10:2:0.1,0.2", lambda r: r.profile, f"{tok},0.5"),
                (read_instances, f"q|{tok},0.5||10:2:0.1,0.2|", lambda r: r.ctx.profile,
                 f"{tok},0.5")]
    return [(read_dataset, f"1|0.5,0.5|10:2:0.1,0.2;11:1:{tok},0.4",
             lambda r: r.items[1].features, f"{tok},0.4"),
            (read_instances, f"q|0.5,0.5|0:0:0.3,{tok}|10:2:0.1,0.2|", lambda r: r.ctx.history[0],
             f"0.3,{tok}")]


@pytest.mark.parametrize("tok", ["1_0", " 2.5", "-0.0", "1e-320"])
@pytest.mark.parametrize("what", ["profile", "feature"])
def test_readers_accept_every_token_float_accepts(tmp_path, tok, what):
    path = tmp_path / "ok.txt"
    for reader, line, row_of, text in _token_cases(tok, what):
        path.write_text(line + "\n")
        [record] = reader(path)
        assert _bits(row_of(record)) == _bits([float(x) for x in text.split(",")])


@pytest.mark.parametrize("tok, message", [
    ("nan", "non-finite {what} value in {text!r}"),
    ("inf", "non-finite {what} value in {text!r}"),
    ("1e400", "non-finite {what} value in {text!r}"),
    ("0x1p3", "could not convert string to float: '0x1p3'"),
    ("", "could not convert string to float: ''"),
])
@pytest.mark.parametrize("what", ["profile", "feature"])
def test_readers_reject_every_token_float_rejects_or_reads_as_non_finite(tmp_path, tok, message,
                                                                         what):
    path = tmp_path / "bad.txt"
    for reader, line, _, text in _token_cases(tok, what):
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == f"{path}:1: " + message.format(what=what, text=text)


def _reference_floats(text, where, what):
    """The row-at-a-time float parse that the readers once ran; it pins their error order."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{where}: non-finite {what} value in {text[:40]!r}")
    return values


def _reference_items(field, where):
    rows = []
    for tok in field.split(";"):
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 3:
            raise ParseError(f"{where}: malformed item record {tok[:40]!r}")
        try:
            item_id, grade = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
        if grade < 0:
            raise ParseError(f"{where}: negative grade {grade} for item {item_id}")
        rows.append(_reference_floats(parts[2], where, "feature"))
    return rows


_TOKEN = st.sampled_from(["0.5", "-1.25", "1e-320", "1_0", " 2", "-0.0"] * 3 +
                         ["nan", "-inf", "1e400", "x", "", "0x1p3"])
_FLOAT_TEXT = st.lists(_TOKEN, min_size=1, max_size=3).map(",".join)


@st.composite
def _item_field(draw):
    items = []
    for k in range(draw(st.integers(0, 4))):
        parts = [draw(st.sampled_from([str(k)] * 4 + ["x"])),
                 draw(st.sampled_from(["0", "3"] * 3 + ["-2", "g"])), draw(_FLOAT_TEXT)]
        n_parts = draw(st.sampled_from([3] * 6 + [2, 4]))  # a record of 2 or 4 parts is malformed
        items.append(":".join((parts + ["9"])[:n_parts]))
    return ";".join(items)


@settings(max_examples=300)
@given(st.booleans(), _FLOAT_TEXT, _item_field(), _item_field())
def test_a_bad_line_fails_with_the_message_a_row_by_row_parse_gives(instances, profile, hist,
                                                                    cands):
    line = f"q|{profile}|{hist}|{cands}|" if instances else f"7|{profile}|{cands}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(line + "\n")
        where = f"{path}:1"
        try:
            want_profile = _reference_floats(profile, where, "profile")
            want_hist = _reference_items(hist, where) if instances else []
            want_cands = _reference_items(cands, where)
            expected = None
        except ParseError as e:
            expected = str(e)
        try:
            [row] = (read_instances if instances else read_dataset)(path)
        except ParseError as e:
            got = str(e)
        else:
            got = None
    if expected is not None or got is None:
        assert got == expected
    else:  # the row-by-row checks pass; a later check of the whole line may still fail
        assert re.match(r".*: (feature vectors of different lengths|duplicate candidate item"
                        r"|instance has no candidate items)", got)
    if got is None:
        profile_got = row.ctx.profile if instances else row.profile
        hist_got = row.ctx.history if instances else []
        cands_got = row.cands.features if instances else [it.features for it in row.items]
        assert _bits(profile_got) == _bits(want_profile)
        assert _bits(hist_got) == _bits(want_hist)
        assert _bits(cands_got) == _bits(want_cands)


def test_oracle_seed_stability():
    assert oracle_seed(1, "ndcg", "u:train") == oracle_seed(1, "ndcg", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(2, "ndcg", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(1, "pbm", "u:train")
    assert oracle_seed(1, "ndcg", "u:train") != oracle_seed(1, "ndcg", "v:train")

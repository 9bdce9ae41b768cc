"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `PASS/FAIL criterion N` line (run pytest with -s to see
them all even on success). The comparative and supervision studies train
real models and together take several minutes on one core.
"""
import itertools
import time

import numpy as np

from arrangerank.arranger import arrange_greedy, permutation_log_prob, step_scores
from arrangerank.autodiff import grad_check
from arrangerank.clickmodels import (ClickModelSpec, examination_prob, metric_fingerprint,
                                     ndcg_reduction_check, oracle_permutation, r_cm,
                                     relevance_prob)
from arrangerank.data import oracle_seed
from arrangerank.evaluation import accuracy_at_position
from arrangerank.experiments import (comparative_experiment, decode_scaling,
                                     supervision_variant_experiment)
from arrangerank.model import init_params, instance_loss, read_instance
from arrangerank.permutation import Permutation
from arrangerank.reader import CandidateSet

from conftest import make_instance, replayed, shuffled, spread_params, tiny_dims


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------- 1


def test_criterion_01_pl_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        params = spread_params("starank", tiny_dims(max_list_len=n), seed=n, gain=2.5)
        inst = make_instance(seed=n, n=n)
        rout = read_instance("starank", params, inst)
        total = sum(np.exp(float(permutation_log_prob(rout, params, Permutation(p)).values))
                    for p in itertools.permutations(rout.ids))
        worst = max(worst, abs(total - 1.0))
    took = time.perf_counter() - t0
    _report(1, "PL normalization", worst <= 1e-9 and took < 10.0,
            f"max |sum P - 1| = {worst:.2e}, runtime {took:.1f}s")


# ---------------------------------------------------------------------- 2


def _static_pl_pairwise(scores: np.ndarray, a: int, b: int) -> float:
    """P(a before b) under the static-score distribution, by full enumeration."""
    n = scores.shape[0]
    e = np.exp(scores)
    marg = 0.0
    for order in itertools.permutations(range(n)):
        p = 1.0
        rest = e.sum()
        for idx in order:
            p *= e[idx] / rest
            rest -= e[idx]
        if order.index(a) < order.index(b):
            marg += p
    return marg


def test_criterion_02_internal_consistency_static_scores():
    worst = 0.0
    rng = np.random.default_rng(2024)
    for case in range(100):
        n = int(rng.integers(3, 7))
        params = spread_params("starank", tiny_dims(max_list_len=6), seed=case, gain=2.5)
        params["ptr.W3"].values[:] = 0.0
        inst = make_instance(seed=case, n=n)
        rout = read_instance("starank", params, inst)
        s_by_id = step_scores(rout, params)
        scores = np.array([s_by_id[i] for i in rout.ids])
        # static-mode check: scores do not move as the decode advances
        if case < 10:
            probe = Permutation(rng.permutation(rout.ids).tolist())
            lp_model = float(permutation_log_prob(rout, params, probe).values)
            e = np.exp(scores)
            lp_static = 0.0
            rest = e.sum()
            for item in probe:
                k = rout.ids.index(item)
                lp_static += np.log(e[k] / rest)
                rest -= e[k]
            assert abs(lp_model - lp_static) < 1e-9
        ia, ib = rng.choice(n, size=2, replace=False)
        marg = _static_pl_pairwise(scores, int(ia), int(ib))
        expect = np.exp(scores[ia]) / (np.exp(scores[ia]) + np.exp(scores[ib]))
        worst = max(worst, abs(marg - expect))
    _report(2, "pairwise consistency, static scores", worst <= 1e-9,
            f"max |enumerated marginal - two-item softmax| = {worst:.2e} over 100 cases")


# ---------------------------------------------------------------------- 3


def test_criterion_03_candidate_storage_invariance():
    rng = np.random.default_rng(3)
    worst_lp = 0.0
    greedy_ok = True
    for case in range(100):
        n = int(rng.integers(2, 7))
        params = spread_params("starank", tiny_dims(max_list_len=6), seed=case, gain=2.0)
        inst = make_instance(seed=1000 + case, n=n)
        feats = {i: inst.cands.features[k] for k, i in enumerate(inst.cands.ids)}
        probe = Permutation(rng.permutation(inst.cands.ids).tolist())
        base_greedy, base_lp = None, None
        for _ in range(3):
            order = rng.permutation(inst.cands.ids).tolist()
            inst.cands = CandidateSet((i, feats[i]) for i in order)
            rout = read_instance("starank", params, inst)
            g = arrange_greedy(rout, params).order
            lp = float(permutation_log_prob(rout, params, probe).values)
            if base_greedy is None:
                base_greedy, base_lp = g, lp
            greedy_ok = greedy_ok and (g == base_greedy)
            worst_lp = max(worst_lp, abs(lp - base_lp))
    _report(3, "storage-order invariance", greedy_ok and worst_lp <= 1e-12,
            f"greedy sequences identical: {greedy_ok}; max |dlogP| = {worst_lp:.2e}")


# ---------------------------------------------------------------------- 4


def test_criterion_04_gradient_correctness_full_loss():
    worst = 0.0
    for case in range(20):
        n = 3 + case % 3
        inst = make_instance(seed=case, n=n, hist_len=2)
        inst.oracle = oracle_permutation(inst.labels, "ndcg", seed=case)
        params = init_params("starank", tiny_dims(embed=5, max_list_len=5), 700 + case)

        def f(ps):
            return instance_loss("starank", ps, inst).tensor

        worst = max(worst, grad_check(f, params, eps=1e-5))
    _report(4, "gradient correctness", worst < 1e-4,
            f"max rel err {worst:.2e} over 20 instances, n in {{3,4,5}}")


# ---------------------------------------------------------------------- 5


def test_criterion_05_ndcg_reduction():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        pi = Permutation(rng.permutation(n).tolist())
        ndcg, rcm = ndcg_reduction_check(pi, labels)
        worst = max(worst, abs(ndcg - rcm))
    _report(5, "conventional metric as simulation special case", worst <= 1e-12,
            f"max |N - R_CM| = {worst:.2e} over 1000 instances")


# ---------------------------------------------------------------------- 6


def test_criterion_06_oracle_correctness():
    rng = np.random.default_rng(6)
    ok = True
    detail = ""
    for case in range(200):
        n = int(rng.integers(2, 7))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        metric = "ndcg" if case % 2 else ClickModelSpec(kind="pbm")
        pi = oracle_permutation(labels, metric, seed=case)
        grades = [labels[d] for d in pi]
        if grades != sorted(grades, reverse=True):
            ok, detail = False, f"case {case}: not label-descending"
            break
        if metric == "ndcg":
            vals = {order: _ndcg_value(order, labels)
                    for order in itertools.permutations(sorted(labels))}
        else:
            vals = {order: r_cm(Permutation(order), labels, metric).value
                    for order in itertools.permutations(sorted(labels))}
        got = vals[pi.order]
        if got < max(vals.values()) - 1e-12:
            ok, detail = False, f"case {case}: {got} < {max(vals.values())}"
            break
        if oracle_permutation(labels, metric, seed=case).order != pi.order:
            ok, detail = False, f"case {case}: seed not reproducible"
            break
    _report(6, "oracle equals exhaustive argmax", ok,
            detail or "200 random label vectors, n <= 6, pbm + ndcg, ties reproducible")


def _ndcg_value(order, labels):
    from arrangerank.clickmodels import r_ndcg

    return r_ndcg(Permutation(order), labels)


# ---------------------------------------------------------------------- 7


def test_criterion_07_ubm_dp_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        labels = {i: int(rng.integers(0, 5)) for i in range(n)}
        pi = Permutation(rng.permutation(n).tolist())
        spec = ClickModelSpec(kind="ubm", tau=float(rng.uniform(0.3, 2.0)))
        got = r_cm(pi, labels, spec).value
        want = _ubm_brute_force(pi, labels, spec)
        worst = max(worst, abs(got - want))
    dp_ok = worst <= 1e-10

    # Monte-Carlo agreement on one fixed configuration, a million sessions
    labels = {0: 4, 1: 2, 2: 3, 3: 0, 4: 1, 5: 2}
    pi = Permutation([2, 0, 4, 1, 5, 3])
    spec = ClickModelSpec(kind="ubm", tau=1.0)
    dp_value = r_cm(pi, labels, spec).value
    mc_mean, mc_se = _ubm_monte_carlo(pi, labels, spec, trials=1_000_000, seed=77)
    mc_ok = abs(dp_value - mc_mean) < 3 * mc_se
    _report(7, "browsing-model DP exactness", dp_ok and mc_ok,
            f"max |DP - exhaustive| = {worst:.2e}; DP {dp_value:.5f} vs MC "
            f"{mc_mean:.5f} (3 s.e. = {3 * mc_se:.5f})")


def _ubm_brute_force(pi, labels, spec):
    rel = [relevance_prob(spec, labels[d]) for d in pi]
    total = 0.0
    for i in range(1, len(rel) + 1):
        for hist in itertools.product([0, 1], repeat=i - 1):
            p_hist = 1.0
            last = 0
            for j, clicked in enumerate(hist, start=1):
                p = examination_prob(spec, j, last) * rel[j - 1]
                p_hist *= p if clicked else 1.0 - p
                if clicked:
                    last = j
            total += p_hist * examination_prob(spec, i, last) * rel[i - 1]
    return total


def _ubm_monte_carlo(pi, labels, spec, trials, seed):
    rng = np.random.default_rng(seed)
    rel = np.array([relevance_prob(spec, labels[d]) for d in pi])
    n = len(rel)
    last = np.zeros(trials, dtype=np.intp)
    clicks = np.zeros(trials)
    gamma = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        for j in range(i):
            gamma[i, j] = examination_prob(spec, i, j)
    for i in range(1, n + 1):
        exam_p = gamma[i, last]
        hit = (rng.random(trials) < exam_p) & (rng.random(trials) < rel[i - 1])
        clicks += hit
        last = np.where(hit, i, last)
    return float(clicks.mean()), float(clicks.std(ddof=1) / np.sqrt(trials))


# ---------------------------------------------------------------------- 8


def test_criterion_08_single_instance_memorization():
    from arrangerank.data import DatasetSplit
    from arrangerank.training import TrainConfig, train

    t0 = time.perf_counter()
    inst = make_instance(seed=8, n=5, hist_len=3)
    split = DatasetSplit(train=[inst])
    cfg = TrainConfig(lr_initial=0.02, lr_final=0.001, epochs=500, batch_size=1,
                      l2_weight=0.0, dropout_rate=0.0, seed=0, embedding_dim=16,
                      optimizer="adam", max_list_len=5)
    params, log = train("starank", split, "ndcg", cfg)
    took = time.perf_counter() - t0
    best = max(row["mean_exp_neg_loss"] for row in log)
    _report(8, "single-instance memorization", best > 0.99 and took < 30.0,
            f"max P(target permutation) = {best:.4f} within 500 epochs, {took:.1f}s")


# ---------------------------------------------------------------------- 9


def test_criterion_09_arranger_beats_pointwise_on_contextual_data():
    t0 = time.perf_counter()
    res = comparative_experiment(n_users=2000, context_strength=1.0, n_seeds=10, epochs=4)
    took = time.perf_counter() - t0
    gain = res.relative_gain
    ok = gain >= 0.05 and took < 15 * 60
    means = {col: " vs ".join(f"{np.mean([m[col] for m in seeds]):.4f}"
                              for seeds in (res.starank, res.pointwise))
             for col in ("N@5", "P@5", "U@5")}
    _report(9, "arranger vs score-and-sort", ok,
            f"mean N@5 {means['N@5']} over 10 seeds: +{gain * 100:.1f}% relative (gate 5%); "
            f"P@5 {means['P@5']}, U@5 {means['U@5']}; runtime {took / 60:.1f} min")


# --------------------------------------------------------------------- 10


def test_criterion_10_supervision_variants():
    res = supervision_variant_experiment(n_users=400, n_seeds=4, epochs=4)
    gaps = {k: res.pooled_gap_in_se(k) for k in (5, 10)}
    ok = res.changed_fraction >= 0.01 and all(g >= -1.0 for g in gaps.values())
    _report(10, "click-metric supervision variant", ok,
            f"{res.changed_fraction * 100:.1f}% of training oracles changed (gate 1%), "
            f"{res.grades_changed} of {res.n_train} in grade sequence; "
            f"P@K shift in pooled s.e.: " + ", ".join(f"@{k}: {g:+.2f}" for k, g in gaps.items()))


# --------------------------------------------------------------------- 11


def test_criterion_11_decode_scaling_exponent():
    times, exponent = decode_scaling(sizes=(5, 10, 20, 40), repeats=5)
    ok = 1.6 <= exponent <= 2.4
    _report(11, "decode-time scaling", ok,
            "decode ms: " + ", ".join(f"L={n}: {t * 1e3:.2f}" for n, t in
                                      zip((5, 10, 20, 40), times)) +
            f"; fitted exponent {exponent:.2f} (gate [1.6, 2.4])")


# --------------------------------------------------------------------- 12


def test_criterion_12_accuracy_at_position():
    rng = np.random.default_rng(12)
    oracle_insts = []
    for k in range(50):
        inst = make_instance(seed=1200 + k, n=6)
        inst.oracle = oracle_permutation(
            inst.labels, "ndcg",
            seed=oracle_seed(0, metric_fingerprint("ndcg"), inst.query_id))
        oracle_insts.append(inst)
    acc_perfect = accuracy_at_position(replayed(oracle_insts), oracle_insts)
    perfect_ok = np.allclose(acc_perfect, 1.0)

    random_insts = []
    for k in range(10_000):
        labels = {i: int(g) for i, g in enumerate(rng.permutation(10))}
        random_insts.append(make_instance(seed=k, n=10, labels=labels))
    acc_rand = accuracy_at_position(shuffled(random_insts, 99), random_insts)
    rand_ok = abs(acc_rand[0] - 0.1) < 0.01
    _report(12, "accuracy at position", perfect_ok and rand_ok,
            f"oracle replayer min ACC {acc_perfect.min():.3f}; "
            f"random ranker ACC@1 = {acc_rand[0]:.4f} (target 0.1 +- 0.01)")

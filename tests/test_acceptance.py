"""End-to-end acceptance checks.

Each test prints one `criterion NN: PASS/FAIL (detail)` line before
asserting, so `pytest tests/test_acceptance.py -v -s` doubles as a
scorecard. Statistical criteria run 200 paired trials at a fixed base
seed; nothing here is tuned per machine.
"""
import math
import time

import numpy as np
import pytest

from cspursuit.analysis import (RipQuery, block_rip_exact, lemma1_check,
                                msp_constants, msp_convergence_bound,
                                msp_distortion_bound)
from cspursuit.cli import main as cli_main
from cspursuit.core import ChunkIndexing, ChunkSupport, frobenius
from cspursuit.experiments import ExperimentConfig, run_sweep
from cspursuit.mimo import (MimoScenario, dft_unitary, generate_channel,
                            generate_pilots, recover_channel,
                            run_frame_sequence, to_cs_problem)
from cspursuit.oracle import exhaustive_best_support, rip_bruteforce_reference
from cspursuit.pursuit import (PursuitConfig, cmsp_recover, msp_recover,
                               sp_recover)
from cspursuit.sparsity import ChunkSparseMatrix, PriorSupportInfo


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _cplx(rng, shape=()):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01():
    # empty prior with s_c = 0 must reduce to the plain pursuit bit-for-bit
    t0 = time.monotonic()
    K, M, s_bar = 32, 16, 3
    n_eq = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        Phi = _cplx(rng, (M, K)) / np.sqrt(2 * M)
        x = np.zeros((K, 1), dtype=complex)
        for t in rng.choice(K, size=s_bar, replace=False):
            x[t, 0] = _cplx(rng)
        Y = Phi @ x + 0.01 * _cplx(rng, (M, 1))
        cfg = PursuitConfig(s_bar=s_bar, prior=PriorSupportInfo.empty(K),
                            gamma=0.05, d=1)
        a = msp_recover(Y, Phi, cfg)
        b = sp_recover(Y, Phi, s_bar, gamma=0.05)
        n_eq += (a.T_hat == b.T_hat
                 and a.iterations == b.iterations
                 and a.stop_reason is b.stop_reason
                 and a.residue_norms == b.residue_norms
                 and np.array_equal(a.X_hat.data, b.X_hat.data))
    elapsed = time.monotonic() - t0
    _check(1, n_eq == 100 and elapsed < 10.0,
           f"identical outputs {n_eq}/100; {elapsed:.1f}s")


def test_criterion_02():
    # noise-free support estimates against the exhaustive-search reference
    t0 = time.monotonic()
    K, M, s_bar = 10, 8, 2
    T_true, T0, s_c = (2, 5), (2, 5), 1
    match = cert = cert_match = 0
    for trial in range(200):
        rng = np.random.default_rng(20000 + trial)
        Phi = _cplx(rng, (M, K)) / np.sqrt(2 * M)
        X = np.zeros((K, 1), dtype=complex)
        for t in T_true:
            mag = 0.5 + rng.random()
            X[t - 1, 0] = mag * np.exp(2j * np.pi * rng.random())
        Y = Phi @ X
        prior = PriorSupportInfo(ChunkSupport.of(T0, K), s_c)
        cfg = PursuitConfig(s_bar=s_bar, prior=prior, gamma=1e-9, d=1)
        res = msp_recover(Y, Phi, cfg)
        eq = tuple(res.T_hat) == tuple(exhaustive_best_support(Y, Phi, s=s_bar, d=1))
        match += eq
        # s2 order for these parameters is 5; certificate is rarely met at
        # this aspect ratio, so the subset clause is usually vacuous
        if block_rip_exact(Phi, RipQuery(5, 1)) < 0.246:
            cert += 1
            cert_match += eq
    elapsed = time.monotonic() - t0
    _check(2, match >= 196 and cert_match == cert and elapsed < 60.0,
           f"oracle matches {match}/200 (need >=196); certified subset "
           f"{cert_match}/{cert}; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def certified_family():
    """100 noisy instances whose residual-order isometry constant is
    certified below 0.246 by enumeration; draws that miss the certificate
    are skipped with the seed stream continuing."""
    K = M = 8
    s_bar, s_c = 2, 1
    T_true, T0 = (3, 6), (3, 8)
    eta = 0.05
    records = []
    seed = 0
    while len(records) < 100 and seed < 400:
        rng = np.random.default_rng(30000 + seed)
        seed += 1
        G = _cplx(rng, (M, K)) / np.sqrt(2)
        Q, _ = np.linalg.qr(G)
        Phi = Q + 0.02 * _cplx(rng, (M, K)) / np.sqrt(2)
        Phi = Phi / np.linalg.norm(Phi, axis=0, keepdims=True)
        d2 = block_rip_exact(Phi, RipQuery(2, 1))
        d4 = block_rip_exact(Phi, RipQuery(4, 1))
        d5 = block_rip_exact(Phi, RipQuery(5, 1))
        if d5 >= 0.246:
            continue
        X = np.zeros((K, 1), dtype=complex)
        raw = _cplx(rng, 2)
        raw = raw / np.linalg.norm(raw) * np.sqrt(2)
        X[T_true[0] - 1, 0], X[T_true[1] - 1, 0] = raw
        N = _cplx(rng, (M, 1))
        N = N / np.linalg.norm(N) * eta
        Y = Phi @ X + N
        con = msp_constants(d2, d4, d5, s_bar=s_bar, t0_size=len(T0), s_c=s_c)
        gamma = 1.2 * con.c2 * eta / (1.0 - con.c1)
        prior = PriorSupportInfo(ChunkSupport.of(T0, K), s_c)
        cfg = PursuitConfig(s_bar=s_bar, prior=prior, gamma=gamma, d=1)
        res = msp_recover(Y, Phi, cfg)
        records.append(dict(
            err=frobenius(X - res.X_hat.data),
            bound=msp_distortion_bound(con, gamma, eta),
            iterations=res.iterations,
            n_co=msp_convergence_bound(con, gamma, eta, 2.0),
            con=con, gamma=gamma, eta=eta))
    return records


def test_criterion_03(certified_family):
    fam = certified_family
    n_ok = sum(r["err"] <= r["bound"] for r in fam)
    worst = max(r["err"] / r["bound"] for r in fam)
    _check(3, len(fam) == 100 and n_ok == 100,
           f"distortion bound holds {n_ok}/{len(fam)}; max err/bound {worst:.3f}")


def test_criterion_04(certified_family):
    fam = certified_family
    # preconditions hold by construction; the bound call enforces them
    pre = all(r["gamma"] > r["con"].c2 * r["eta"] / (1.0 - r["con"].c1)
              and 2.0 > ((r["con"].c2 + r["con"].c1 - 1.0)
                         / (1.0 - r["con"].c1) * r["eta"]) ** 2 for r in fam)
    n_ok = sum(r["iterations"] <= math.ceil(r["n_co"]) for r in fam)

    # doubling the SNR in dB never more than doubles the median iterations
    meds = {}
    for p_db in (10.0, 20.0, 40.0):
        scen = MimoScenario(M=64, N_ue=2, T=24, P=10.0 ** (p_db / 10.0),
                            s_bar=8, s_c=4)
        iters = [run_frame_sequence(scen, 2, "msp",
                                    np.random.default_rng(t))[1].iterations
                 for t in range(100)]
        meds[p_db] = float(np.median(iters))
    snr_ok = (meds[20.0] <= 2 * meds[10.0]) and (meds[40.0] <= 2 * meds[20.0])
    _check(4, pre and len(fam) == 100 and n_ok == 100 and snr_ok,
           f"iterations <= ceil(n_co) {n_ok}/{len(fam)}; median iterations "
           f"{meds[10.0]:g}/{meds[20.0]:g}/{meds[40.0]:g} at 10/20/40 dB")


def test_criterion_05():
    lo = msp_constants(0.246, 0.246, 0.246, s_bar=2, t0_size=2, s_c=1).c1
    hi = msp_constants(0.25, 0.25, 0.25, s_bar=2, t0_size=2, s_c=1).c1
    _check(5, lo < 1.0 - 1e-9 and hi > 1.0 + 1e-9,
           f"c1(0.246)={lo:.10f} < 1 < c1(0.25)={hi:.10f}")


def test_criterion_06():
    n_pass = 0
    fails = []
    for trial in range(200):
        rng = np.random.default_rng(60000 + trial)
        K = 4 + trial % 3
        d = 1 + (trial // 3) % 2
        M = math.ceil(1.7 * K * d)
        L = 1 + trial % 2
        Phi = _cplx(rng, (M, K * d)) / np.sqrt(2 * M)
        chunks = list(rng.permutation(K) + 1)
        n1 = 1 + trial % 2
        n2 = 1 + (trial // 2) % 2
        T1 = ChunkSupport.of(sorted(chunks[:n1]), K)
        T2 = ChunkSupport.of(sorted(chunks[n1:n1 + n2]), K)
        idx = ChunkIndexing(K, d)
        Xd = np.zeros((K * d, L), dtype=complex)
        rows = idx.rows_of(tuple(T1))
        Xd[rows, :] = _cplx(rng, (len(rows), L)) / np.sqrt(2)
        rep = lemma1_check(Phi, T1, T2, ChunkSparseMatrix(Xd, idx),
                           RipQuery(len(T1) + len(T2), d))
        if rep.all_pass:
            n_pass += 1
        else:
            fails.append(trial)
    _check(6, n_pass == 200,
           f"all inequality checks pass {n_pass}/200"
           + (f"; failing trials {fails[:5]}" if fails else ""))


def test_criterion_07():
    M, N_ue, T = 32, 2, 16
    scen = MimoScenario(M=M, N_ue=N_ue, T=T, P=50.0, s_bar=4, s_c=2)
    U = dft_unitary(N_ue)
    V = dft_unitary(M)
    worst_model = worst_trip = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        T_true = ChunkSupport.of(sorted(rng.choice(M, size=4, replace=False) + 1), M)
        frame = generate_channel(scen, T_true, rng)
        Theta = generate_pilots(M, T, rng)
        W = _cplx(rng, (N_ue, T)) / np.sqrt(2)
        Z = np.sqrt(scen.P) * frame.H @ Theta
        Y, Phi, scale = to_cs_problem(Z + W, Theta, scen.P)
        N_eff, _, _ = to_cs_problem(W, Theta, scen.P)
        X = scale * frame.H_a.conj().T
        worst_model = max(worst_model,
                          frobenius(Y - (Phi @ X + N_eff)) / frobenius(Y))
        H_ref = U @ frame.H_a @ V.conj().T
        H_back = recover_channel(X, scen.P, T)
        worst_trip = max(worst_trip,
                         frobenius(H_back - H_ref) / frobenius(H_ref))
    _check(7, worst_model <= 1e-9 and worst_trip <= 1e-9,
           f"measurement identity rel err {worst_model:.2e}; "
           f"round trip rel err {worst_trip:.2e} over 100 frames")


def test_criterion_08():
    t0 = time.monotonic()
    base = dict(M=64, N_ue=2, s_bar=8, s_c=4, pilot_length=24, snr_db=25.0,
                algorithms=("genie", "msp", "mmv_sp", "sp"),
                n_trials=200, base_seed=0)
    rows_t = run_sweep(ExperimentConfig(
        sweep_axis="pilot_length", sweep_values=(16, 24, 32, 40), **base))
    rows_p = run_sweep(ExperimentConfig(
        sweep_axis="snr_db", sweep_values=(5.0, 15.0, 25.0), **base))
    elapsed = time.monotonic() - t0
    problems = []
    for rows, values, axis in ((rows_t, (16, 24, 32, 40), "T"),
                               (rows_p, (5.0, 15.0, 25.0), "P")):
        med = {(r.sweep_value, r.algorithm): r.nmse_median for r in rows}
        for alg in base["algorithms"]:
            seq = [med[(v, alg)] for v in values]
            if any(seq[i + 1] > seq[i] for i in range(len(seq) - 1)):
                problems.append(f"{alg} not monotone in {axis}")
        for v in values:
            g, m, w, s = (med[(v, a)] for a in base["algorithms"])
            if not (g <= m <= w <= s):
                problems.append(
                    f"ordering broken at {axis}={v:g}: genie={g:.4g} "
                    f"msp={m:.4g} mmv_sp={w:.4g} sp={s:.4g}")
    detail = ("monotone medians and genie<=msp<=mmv_sp<=sp at all 7 points"
              if not problems else "; ".join(problems))
    _check(8, not problems and elapsed < 600.0, f"{detail}; {elapsed:.0f}s")


def test_criterion_09():
    cfg = ExperimentConfig(M=64, N_ue=2, s_bar=8, s_c=4, pilot_length=24,
                           snr_db=25.0, sweep_axis="s_c",
                           sweep_values=(0, 2, 4, 6), algorithms=("msp",),
                           n_trials=200, base_seed=0)
    seq = [r.nmse_median for r in run_sweep(cfg)]
    ok = all(seq[i + 1] <= seq[i] for i in range(len(seq) - 1))
    _check(9, ok, "msp median over s_c in (0, 2, 4, 6): "
           + ", ".join(f"{v:.4g}" for v in seq))


def test_criterion_10():
    cfg = ExperimentConfig(M=64, N_ue=2, s_bar=8, s_c=3, pilot_length=24,
                           snr_db=25.0, sweep_axis="believed_s_c",
                           sweep_values=(6,), algorithms=("msp", "cmsp"),
                           n_trials=200, base_seed=0)
    med = {r.algorithm: r.nmse_median for r in run_sweep(cfg)}

    # deterministic instance: an overconfident prior locks the plain
    # variant onto a wrong chunk while the conservative one recovers
    K = 12
    Phi = np.eye(K, dtype=complex)
    x = np.zeros((K, 1), dtype=complex)
    x[0, 0], x[4, 0], x[8, 0] = 3.0, 2.0, 1.0
    prior = PriorSupportInfo(ChunkSupport.of((1, 2), K), 2)
    cfg_det = PursuitConfig(s_bar=3, prior=prior, gamma=0.0, d=1)
    t_msp = tuple(msp_recover(Phi @ x, Phi, cfg_det).T_hat)
    t_cmsp = tuple(cmsp_recover(Phi @ x, Phi, cfg_det).T_hat)
    ok = (med["cmsp"] < med["msp"] and t_msp != (1, 5, 9)
          and t_cmsp == (1, 5, 9))
    _check(10, ok,
           f"median cmsp={med['cmsp']:.4g} < msp={med['msp']:.4g}; "
           f"locked instance msp={t_msp} cmsp={t_cmsp}")


def test_criterion_11():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        K = 7 + seed % 3
        M = 5 + seed % 2
        k = 2 + seed % 2
        Phi = _cplx(rng, (M, K)) / np.sqrt(2 * M)
        a = block_rip_exact(Phi, RipQuery(k, 1))
        b = rip_bruteforce_reference(Phi, k=k, d=1)
        worst = max(worst, abs(a - b))
    rng = np.random.default_rng(99)
    Q, _ = np.linalg.qr(_cplx(rng, (6, 6)))
    ortho = block_rip_exact(Q, RipQuery(2, 1))
    col = _cplx(rng, (5, 1))
    col = col / np.linalg.norm(col)
    dup = block_rip_exact(np.hstack([col, col]), RipQuery(2, 1))
    ok = worst <= 1e-10 and ortho <= 1e-12 and abs(dup - 1.0) <= 1e-12
    _check(11, ok, f"max |exact - bruteforce| {worst:.2e} over 50; "
           f"orthonormal {ortho:.2e}; duplicate-column |delta-1| "
           f"{abs(dup - 1.0):.2e}")


SWEEP_CFG = """\
M = 16
N_ue = 2
s_bar = 3
s_c = 1
pilot_length = 12
snr_db = 25
sweep_axis = pilot_length
sweep_values = 8, 12
algorithms = genie, msp
n_trials = 3
base_seed = 5
"""

MISMATCH_CFG = """\
M = 16
N_ue = 2
s_bar = 4
s_c = 1
pilot_length = 12
snr_db = 25
sweep_axis = believed_s_c
sweep_values = 0, 2
algorithms = msp, cmsp
n_trials = 3
base_seed = 5
"""


def test_criterion_12(tmp_path):
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(SWEEP_CFG)
    mismatch_cfg = tmp_path / "mismatch.cfg"
    mismatch_cfg.write_text(MISMATCH_CFG)
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv")]
    rcs = [
        cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(outs[0])]),
        cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(outs[1]),
                  "--seed", "5", "--trials", "3"]),
        cli_main(["sweep", "--config", str(mismatch_cfg), "--out", str(outs[2])]),
        cli_main(["sweep", "--config", str(mismatch_cfg), "--out", str(outs[3])]),
    ]
    sweep_same = outs[0].read_bytes() == outs[1].read_bytes()
    mismatch_same = outs[2].read_bytes() == outs[3].read_bytes()
    _check(12, all(rc == 0 for rc in rcs) and sweep_same and mismatch_same,
           f"exit codes {rcs}; sweep reruns identical: {sweep_same}; "
           f"mismatch reruns identical: {mismatch_same}")

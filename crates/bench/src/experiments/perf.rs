//! `perf`: performance baseline for the deterministic parallel execution
//! layer.
//!
//! Times four representative workloads at 1/2/4/8 requested threads via
//! `ce_parallel::with_threads`:
//!
//! 1. blocked `Matrix::matmul` (GFLOP/s),
//! 2. MSCN training (epochs/s),
//! 3. JK-CV+ fit over a GBDT trainer (wall-clock seconds — the fold fits run
//!    as one parallel batch),
//! 4. batched PI serving through [`PiService::predict_interval_batch`]
//!    (queries/s).
//!
//! One run doubles as a determinism audit: every workload's *output* (matmul
//! bits, MSCN predictions, the JK-CV+ δ, served intervals) is compared
//! bit-for-bit across thread counts and the experiment panics on any
//! divergence. Wall times flow through the vendored criterion sample
//! registry (`criterion::record_sample`) — the same path `cargo bench`
//! uses — and the summary is exported to `BENCH_perf.json` in the working
//! directory alongside the usual `results/perf.json` record.
//!
//! A fifth measurement leaves the thread count unpinned: single-query MSCN
//! forwards on the default path that serving takes, against the same calls
//! under `with_threads(1)`. `with_threads` skips the default-count lookup,
//! so only this ratio can see a per-call cost in it.
//!
//! Serving and the default-path ratio are medians over interleaved samples
//! (every variant timed once per round), so host drift hits each variant
//! alike; both feed a gate.
//!
//! On a single-core host the thread counts ≥ 2 measure pure overhead (the
//! pool degrades to serial chunk draining), so throughput parity — not a
//! speedup — is the expectation there; `effective_parallelism` in the
//! summary records which regime produced the numbers.

use std::time::Instant;

use cardest::conformal::{
    AbsoluteResidual, JackknifeCv, PiService, PiServiceConfig, Regressor,
};
use cardest::estimators::fit_difficulty_model;
use cardest::gbdt::GbdtConfig;
use cardest::nn::Matrix;
use cardest::pipeline::train_mscn;
use ce_parallel::with_threads;

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::single_table::{standard_bench, ALPHA};

/// Requested thread counts, in measurement order.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Minimum 4-thread / 1-thread median serving-throughput ratio tolerated
/// before the experiment fails. Parity (ratio ≈ 1) is the single-core
/// expectation; multi-core hosts should clear 1.0 comfortably, so 0.8 only
/// trips when parallel dispatch actively loses throughput beyond noise.
const MIN_SERVING_RATIO: f64 = 0.8;

/// Maximum default-path / `with_threads(1)` time ratio for single-query MSCN
/// forwards. A forward at batch 1 splits no work, so both sides run the same
/// serial kernels and only the per-call thread-count lookup differs.
const MAX_DEFAULT_OVERHEAD: f64 = 2.0;

/// Interleaved rounds behind each median-based measurement.
const ROUNDS: usize = 15;

/// Batched serving passes over the test set per serving sample.
const SERVING_PASSES: usize = 8;

/// Single-query forwards per default-path sample.
const FORWARD_CALLS: usize = 256;

/// Best-of-`reps` wall-clock seconds for `f`, recording every sample under
/// `label` in the criterion registry. Returns the last result and the
/// fastest time (the standard noise-robust estimator for short benches).
fn best_of<R>(label: &str, reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = criterion::black_box(f());
        let elapsed = start.elapsed();
        criterion::record_sample(label, elapsed.as_nanos());
        best = best.min(elapsed.as_secs_f64());
        out = Some(r);
    }
    (out.expect("reps must be positive"), best)
}

/// Median wall-clock seconds of each variant `v` of `run(v)`, sampled in
/// `rounds` interleaved rounds (every variant once per round) and recorded
/// under `labels[v]` in the criterion registry. Also returns each variant's
/// last result.
fn interleaved_medians<R>(
    labels: &[String],
    rounds: usize,
    mut run: impl FnMut(usize) -> R,
) -> (Vec<R>, Vec<f64>) {
    let mut samples = vec![Vec::with_capacity(rounds); labels.len()];
    let mut last: Vec<Option<R>> = labels.iter().map(|_| None).collect();
    for _ in 0..rounds {
        for (v, label) in labels.iter().enumerate() {
            let start = Instant::now();
            let r = criterion::black_box(run(v));
            let elapsed = start.elapsed();
            criterion::record_sample(label, elapsed.as_nanos());
            samples[v].push(elapsed.as_secs_f64());
            last[v] = Some(r);
        }
    }
    let medians = samples
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect();
    (last.into_iter().map(|r| r.expect("rounds must be positive")).collect(), medians)
}

/// Deterministic pseudo-random matrix (same LCG the kernel tests use).
fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed;
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 16) as f32 / 65_536.0 - 0.5
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

/// Runs the perf baseline; see the module docs for what is measured.
pub fn perf(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "perf",
        "parallel layer baseline: wall-clock at 1/2/4/8 threads, outputs bit-audited",
    );
    let hw = ce_parallel::available_threads();
    rec.extra("effective_parallelism", hw as f64);

    // --- 1. blocked matmul GFLOP/s -------------------------------------
    let (m, k, n) = (96, 256, 96);
    let a = lcg_matrix(m, k, 1);
    let b = lcg_matrix(k, n, 2);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let mut matmul_ref: Option<Vec<f32>> = None;
    let mut matmul_gflops = Vec::new();
    for &t in &THREADS {
        let label = format!("perf/matmul/t{t}");
        let (out, secs) = best_of(&label, 5, || with_threads(t, || a.matmul(&b)));
        match &matmul_ref {
            None => matmul_ref = Some(out.data().to_vec()),
            Some(reference) => assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "matmul diverged at {t} threads"
            ),
        }
        matmul_gflops.push((t, flops / secs / 1e9));
        rec.extra(&format!("matmul_gflops/t{t}"), flops / secs / 1e9);
    }

    // --- shared workload for the model-level phases --------------------
    let bench = standard_bench(scale, "dmv");
    let probe: Vec<&[f32]> = bench.test.x.iter().take(8).map(Vec::as_slice).collect();

    // --- 2. MSCN training epochs/s -------------------------------------
    let epochs = scale.epochs.clamp(1, 10);
    let mut mscn_ref: Option<Vec<u64>> = None;
    let mut mscn_eps = Vec::new();
    for &t in &THREADS {
        let label = format!("perf/mscn_fit/t{t}");
        let (model, secs) = best_of(&label, 1, || {
            with_threads(t, || train_mscn(&bench.feat, &bench.train, epochs, scale.seed))
        });
        let bits: Vec<u64> = probe.iter().map(|f| model.predict(f).to_bits()).collect();
        match &mscn_ref {
            None => mscn_ref = Some(bits),
            Some(reference) => {
                assert_eq!(*reference, bits, "MSCN training diverged at {t} threads")
            }
        }
        mscn_eps.push((t, epochs as f64 / secs));
        rec.extra(&format!("mscn_epochs_per_s/t{t}"), epochs as f64 / secs);
    }

    // --- 3. JK-CV+ fit wall-clock --------------------------------------
    let trainer = |x: &[Vec<f32>], y: &[f64], _seed: u64| {
        fit_difficulty_model(x, y, &GbdtConfig { n_trees: 60, ..Default::default() })
    };
    let mut jkcv_ref: Option<u64> = None;
    let mut jkcv_secs = Vec::new();
    for &t in &THREADS {
        let label = format!("perf/jkcv_fit/t{t}");
        let (jk, secs) = best_of(&label, 1, || {
            with_threads(t, || {
                JackknifeCv::fit(
                    &trainer,
                    AbsoluteResidual,
                    &bench.train.x,
                    &bench.train.y,
                    8,
                    ALPHA,
                    scale.seed,
                )
            })
        });
        match jkcv_ref {
            None => jkcv_ref = Some(jk.delta().to_bits()),
            Some(reference) => assert_eq!(
                reference,
                jk.delta().to_bits(),
                "JK-CV+ delta diverged at {t} threads"
            ),
        }
        jkcv_secs.push((t, secs));
        rec.extra(&format!("jkcv_fit_s/t{t}"), secs);
    }

    // --- 4. batched PI serving queries/s -------------------------------
    let model = train_mscn(&bench.feat, &bench.train, epochs, scale.seed);
    let service = PiService::new(
        model.clone(),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
    );
    let labels: Vec<String> = THREADS.iter().map(|t| format!("perf/serving_batch/t{t}")).collect();
    let (served, secs) = interleaved_medians(&labels, ROUNDS, |v| {
        with_threads(THREADS[v], || {
            for _ in 1..SERVING_PASSES {
                criterion::black_box(service.predict_interval_batch(&bench.test.x));
            }
            service.predict_interval_batch(&bench.test.x)
        })
    });
    for (&t, ivs) in THREADS.iter().zip(&served) {
        assert_eq!(served[0], *ivs, "batched serving diverged at {t} threads");
    }
    let queries_per_sample = (bench.test.x.len() * SERVING_PASSES) as f64;
    let serving_qps: Vec<(usize, f64)> =
        THREADS.iter().zip(&secs).map(|(&t, s)| (t, queries_per_sample / s)).collect();
    for &(t, qps) in &serving_qps {
        rec.extra(&format!("serving_qps/t{t}"), qps);
    }

    // --- 5. default-path overhead at batch 1 ---------------------------
    let singles: Vec<Vec<Vec<f32>>> = (0..FORWARD_CALLS)
        .map(|i| vec![bench.test.x[i % bench.test.x.len()].clone()])
        .collect();
    let forward =
        || -> Vec<u64> { singles.iter().map(|q| model.predict_batch(q)[0].to_bits()).collect() };
    let labels = ["perf/forward_b1/default".to_string(), "perf/forward_b1/inline".to_string()];
    let (bits, secs) = interleaved_medians(&labels, ROUNDS, |v| {
        if v == 0 {
            forward()
        } else {
            with_threads(1, forward)
        }
    });
    assert_eq!(bits[0], bits[1], "default-path forward diverged from with_threads(1)");
    let default_overhead = secs[0] / secs[1];
    rec.extra("default_vs_inline_forward_b1", default_overhead);
    assert!(
        default_overhead <= MAX_DEFAULT_OVERHEAD,
        "unpinned batch-1 MSCN forward is {default_overhead:.2}x its with_threads(1) time \
         (ceiling {MAX_DEFAULT_OVERHEAD})"
    );

    // --- speedups + smoke gate -----------------------------------------
    let ratio = |series: &[(usize, f64)], num: usize, den: usize| {
        let get = |t| series.iter().find(|(tt, _)| *tt == t).expect("thread count").1;
        get(num) / get(den)
    };
    let speedup_jkcv = jkcv_secs.iter().find(|(t, _)| *t == 1).expect("t1").1
        / jkcv_secs.iter().find(|(t, _)| *t == 4).expect("t4").1;
    let speedup_serving = ratio(&serving_qps, 4, 1);
    let speedup_matmul = ratio(&matmul_gflops, 4, 1);
    rec.extra("speedup_jkcv_fit_4t", speedup_jkcv);
    rec.extra("speedup_serving_4t", speedup_serving);
    rec.extra("speedup_matmul_4t", speedup_matmul);
    assert!(
        speedup_serving >= MIN_SERVING_RATIO,
        "4-thread batched serving regressed vs 1 thread: ratio {speedup_serving:.3} \
         (floor {MIN_SERVING_RATIO})"
    );

    write_bench_summary(scale, hw, &rec);
    vec![rec]
}

/// Writes `BENCH_perf.json` in the working directory: the scalar summary
/// plus the raw nanosecond samples from the criterion registry.
fn write_bench_summary(scale: &Scale, hw: usize, rec: &ExperimentRecord) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"effective_parallelism\": {hw},\n"));
    json.push_str("  \"threads\": [1, 2, 4, 8],\n");
    json.push_str("  \"bit_identical_across_threads\": true,\n");
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  },\n");
    // Indent the registry export two spaces so the nesting reads cleanly.
    let samples = criterion::samples_json();
    let indented: String = samples
        .trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 0 { l.to_string() } else { format!("  {l}") })
        .collect::<Vec<_>>()
        .join("\n");
    json.push_str(&format!("  \"samples_ns\": {indented}\n}}\n"));
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
    println!("  [saved BENCH_perf.json]");
}

//! Host-speed probe.
//!
//! The benchmark's host is a shared 2-vCPU virtual machine whose speed
//! drifts with its neighbours' load: the same set-up took 0.45 s and
//! 0.80 s two minutes apart, and the `hot` workload's throughput followed
//! it. The probe times a fixed arithmetic loop on each vCPU, code that
//! shares nothing with the repository, while the load is paused. Time
//! metrics are scaled by the probe's speed relative to [`REFERENCE`], which
//! reports them at the reference speed of the host.

use std::time::{Duration, Instant};

/// The probe's time on the reference host at its typical speed.
pub const REFERENCE: Duration = Duration::from_micros(800);

/// Arithmetic rounds per vCPU in one probe.
const ROUNDS: u64 = 200_000;
/// Repetitions of the probe; the fastest counts, so a stray background
/// thread of the program cannot make the host look slow.
const REPS: usize = 5;

/// The host's speed now: `REFERENCE` over the fastest of [`REPS`] probes,
/// below 1 when the host is slow.
pub fn speed() -> f64 {
    let fastest = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for lane in 0..2u64 {
                    s.spawn(move || std::hint::black_box(arithmetic(lane)));
                }
            });
            t0.elapsed()
        })
        .min()
        .expect("REPS > 0");
    REFERENCE.as_secs_f64() / fastest.as_secs_f64()
}

/// A dependent chain of integer and floating-point operations.
fn arithmetic(seed: u64) -> f64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    acc
}

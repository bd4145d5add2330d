//! The serving benchmark: one command runs a workload against the real
//! serving stack over loopback HTTP, checks every answer, and prints its
//! metrics as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload cold|hot|feedback --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` is the timed run and prints the end-to-end metrics;
//! `--trace 1` is the traced run and prints the per-layer metrics. See
//! `METHOD.md` for what each workload and metric means.

mod deploy;
mod host;
mod ladder;
mod load;
mod report;
mod trace;
mod traffic;
mod workload;

use std::time::Duration;

use deploy::{Deployment, Model};
use load::{Phase, Tally, TruthPost, WINDOW};
use report::{median, peak_rss_mb, result_line, Metrics};
use traffic::Workload;
use workload::{truth_loss, Counters, Quality, Traffic};

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload cold|hot|feedback --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Served as `cardest-cli serve` serves: telemetry recording on.
    ce_telemetry::set_enabled(true);
    let line = if args.trace { traced(&args) } else { timed(&args) };
    println!("{line}");
}

/// Prints one phase's attempt accounting to standard error.
fn log_tally(workload: Workload, phase: &str, t: &Tally) {
    eprintln!(
        "[{}] {phase:>8}: sent {} ok {} non-200 {} (shed {}) transport {} mismatch {} malformed {}",
        workload.name(),
        t.sent,
        t.ok,
        t.non_200,
        t.shed,
        t.transport,
        t.mismatches,
        t.malformed
    );
}

/// The outcome of the output checks over one run.
struct Verdict {
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Accounts every phase, runs the output checks, and logs both. `before`
/// was read before the first phase.
fn verdict(
    traffic: &Traffic,
    deployment: &Deployment,
    phases: &[(&str, &Phase)],
    before: &Counters,
    quality: &Quality,
) -> Verdict {
    let mut attempted = 0;
    let mut failed = 0;
    for (name, phase) in phases {
        log_tally(traffic.workload, name, &phase.tally);
        attempted += phase.tally.sent;
        failed += phase.tally.failed();
    }
    let mut correct = failed == 0;
    if traffic.workload == Workload::Feedback {
        let after = Counters::read(deployment);
        let posts: Vec<&TruthPost> = phases.iter().flat_map(|(_, p)| &p.truths).collect();
        let lost = truth_loss(deployment, &traffic.pool, before, &after, &posts);
        eprintln!(
            "[feedback] {} truth posts accepted, {lost} truths lost; fresh truths left {}",
            posts.len(),
            traffic.stream.lock().expect("stream lock poisoned").fresh_left()
        );
        failed += lost;
        correct &= lost == 0;
    }
    eprintln!(
        "[{}] coverage {:.4} over {} intervals (binomial bound {:.4}), median width {:.6}",
        traffic.workload.name(),
        quality.coverage,
        quality.n,
        quality.bound,
        quality.median_width
    );
    correct &= quality.holds();
    Verdict { attempted, failed, correct }
}

/// The timed run: set up [`SETUP_REPS`] times, warm up, run the closed
/// loop for `--seconds`, check, and report the end-to-end metrics. Times
/// are reported at the reference host speed (see [`host`]); standard error
/// carries them as measured too.
fn timed(args: &Args) -> String {
    let topology = args.workload.topology();
    let mut setup_raw = Vec::with_capacity(SETUP_REPS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference: Option<Model> = None;
    let mut live = None;
    let mut speed = host::speed();
    for rep in 0..SETUP_REPS {
        let (deployment, took) = Deployment::start(topology);
        let after = host::speed();
        setup_raw.push(took.as_secs_f64());
        setup_s.push(took.as_secs_f64() * (speed + after) / 2.0);
        speed = after;
        if rep + 1 == SETUP_REPS {
            live = Some(deployment);
        } else {
            let model = deployment.stop();
            // The first set-up's model, trained again from the same seed,
            // is the reference the served intervals must match.
            reference.get_or_insert(model);
        }
    }
    let deployment = live.expect("at least one set-up");
    let reference = reference.expect("SETUP_REPS > 1").engine();
    let traffic = Traffic::new(args.workload, args.seed, &deployment, &reference);
    let before = Counters::read(&deployment);
    let warm = traffic.warm_up(&deployment);
    // Memory is read before the timed phase, whose per-request records
    // belong to the client and grow with throughput.
    let peak_rss = peak_rss_mb();
    let windows = (Duration::from_secs(args.seconds).as_nanos() / WINDOW.as_nanos()).max(1);
    let measured = traffic.client(&deployment, false).run(&traffic.stream, windows as usize);
    let quality = Quality::of_phases(&traffic, &[&measured]);

    let mut phases: Vec<(&str, &Phase)> = warm.iter().map(|p| ("warm-up", p)).collect();
    phases.push(("measure", &measured));
    let v = verdict(&traffic, &deployment, &phases, &before, &quality);
    let windows = measured.windows(&[0.50, 0.99]);
    let of = |f: &dyn Fn(&load::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "[{}] {} requests in {} windows of {:?}, median {} per window; host speed {:.3} (min {:.3}, max {:.3})",
        args.workload.name(),
        measured.done.len(),
        windows.len(),
        WINDOW,
        of(&|w| w.requests as f64),
        of(&|w| w.speed),
        windows.iter().map(|w| w.speed).fold(f64::INFINITY, f64::min),
        windows.iter().map(|w| w.speed).fold(0.0, f64::max),
    );
    eprintln!(
        "[{}] as measured: set-up {:.4} s, {:.1} q/s, p50 {:.2} us, p99 {:.2} us",
        args.workload.name(),
        median(&setup_raw),
        of(&|w| w.qps),
        of(&|w| w.latency_ns[0] as f64 / 1e3),
        of(&|w| w.latency_ns[1] as f64 / 1e3),
    );
    let list = |f: &dyn Fn(&load::Window) -> f64| {
        windows.iter().map(|w| format!("{:.1}", f(w))).collect::<Vec<_>>().join(",")
    };
    eprintln!(
        "[{}] windows as measured: {{\"qps\":[{}],\"p50_us\":[{}],\"p99_us\":[{}],\"speed\":[{}]}}",
        args.workload.name(),
        list(&|w| w.qps),
        list(&|w| w.latency_ns[0] as f64 / 1e3),
        list(&|w| w.latency_ns[1] as f64 / 1e3),
        measured.speeds.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(","),
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("qps", of(&|w| w.qps_at_reference()), "1/s");
    m.put("p50_us", of(&|w| w.latency_us_at_reference(0)), "us");
    m.put("p99_us", of(&|w| w.latency_us_at_reference(1)), "us");
    m.put("coverage", quality.coverage, "fraction");
    m.put("median_width", quality.median_width, "selectivity");
    m.put("peak_rss_mb", peak_rss, "MiB");
    deployment.stop();
    result_line(v.correct, v.attempted, v.failed, &m)
}

/// The traced run: one set-up, then the per-layer ladder.
fn traced(args: &Args) -> String {
    let (deployment, _) = Deployment::start(args.workload.topology());
    let reference = deployment.model.engine();
    let traffic = Traffic::new(args.workload, args.seed, &deployment, &reference);
    let out = ladder::run(args, &deployment, &traffic);
    deployment.stop();
    out
}

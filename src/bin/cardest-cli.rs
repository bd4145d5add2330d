//! `cardest-cli` — an interactive demo of prediction intervals over learned
//! cardinality estimation.
//!
//! ```text
//! cargo run --release --bin cardest-cli -- --dataset dmv --rows 20000 --model mscn
//! ```
//!
//! Builds the dataset, trains the chosen model, calibrates split conformal
//! and locally weighted conformal wrappers, then reads textual queries from
//! stdin (`make = 3 AND unladen_weight in 10..40`) and answers each with the
//! exact count, the model estimate, and both prediction intervals.
//!
//! The `stats` subcommand instead serves a fault-injected stream through a
//! [`ResilientService`] fallback chain with telemetry enabled, then dumps
//! resilience counters, per-position breaker states, the bounded
//! `last_errors` ring buffer, the self-healing layer's remediation history
//! (last alarm, last recalibration outcome, rollback count), and the metrics
//! registry:
//!
//! ```text
//! cargo run --release --bin cardest-cli -- stats --format text
//! cargo run --release --bin cardest-cli -- stats --format prom
//! ```
//!
//! The `serve` subcommand runs a long-lived prequential serving loop over a
//! [`SelfHealingService`] with periodic durable checkpoints. `SIGTERM` /
//! `SIGINT` trigger a graceful shutdown (final checkpoint, then summary), and
//! `--resume` restores from the checkpoint file so a killed server picks up
//! bit-for-bit where it left off:
//!
//! ```text
//! cargo run --release --bin cardest-cli -- serve --stream 2000 --checkpoint-every 200
//! cargo run --release --bin cardest-cli -- serve --resume
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use cardest::conformal::{
    install_quiet_chaos_hook, read_checkpoint, write_checkpoint, AbsoluteResidual, BreakerState,
    ChaosConfig, ChaosRegressor, HealConfig, HealEvent, HealState, OnlineConformal, PiEstimator,
    PiServiceConfig, PredictionInterval, Regressor, ResilientService, ScoreFunction,
    SelfHealingService,
};
use cardest::estimators::{AviModel, SamplingEstimator};
use cardest::pipeline::{
    run_locally_weighted, run_split_conformal, train_lwnn, train_mscn, train_naru,
    ScoreKind, SingleTableBench, SplitSpec,
};
use cardest::query::{parse_query, GeneratorConfig};
use cardest::serve::{HttpServeConfig, ServeEngine};

struct Options {
    dataset: String,
    rows: usize,
    model: String,
    alpha: f64,
    queries: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        dataset: "dmv".into(),
        rows: 20_000,
        model: "mscn".into(),
        alpha: 0.1,
        queries: 2_000,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--dataset" => opts.dataset = value(i),
            "--rows" => opts.rows = value(i).parse().expect("--rows takes a number"),
            "--model" => opts.model = value(i),
            "--alpha" => opts.alpha = value(i).parse().expect("--alpha takes a float"),
            "--queries" => {
                opts.queries = value(i).parse().expect("--queries takes a number")
            }
            "--help" | "-h" => {
                println!(
                    "usage: cardest-cli [--dataset dmv|census|forest|power] \
                     [--rows N] [--model mscn|lwnn|naru] [--alpha A] [--queries N]\n\
                     \x20      cardest-cli stats [--dataset D] [--rows N] [--stream N] \
                     [--format text|json|prom]\n\
                     \x20      cardest-cli serve [--dataset D] [--rows N] [--stream N] \
                     [--checkpoint PATH] [--checkpoint-every N] [--drift-at N] [--resume]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    opts
}

/// Options for the `stats` subcommand.
struct StatsOptions {
    dataset: String,
    rows: usize,
    queries: usize,
    stream: usize,
    format: String,
}

fn parse_stats_args(args: &[String]) -> StatsOptions {
    let mut opts = StatsOptions {
        dataset: "dmv".into(),
        rows: 10_000,
        queries: 800,
        stream: 600,
        format: "text".into(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--dataset" => opts.dataset = value(i),
            "--rows" => opts.rows = value(i).parse().expect("--rows takes a number"),
            "--queries" => {
                opts.queries = value(i).parse().expect("--queries takes a number")
            }
            "--stream" => opts.stream = value(i).parse().expect("--stream takes a number"),
            "--format" => opts.format = value(i),
            "--help" | "-h" => {
                println!(
                    "usage: cardest-cli stats [--dataset dmv|census|forest|power] \
                     [--rows N] [--queries N] [--stream N] [--format text|json|prom]\n\n\
                     Serves a chaos-injected query stream (20% NaN, 5% panic primary) \
                     through the resilient fallback chain with telemetry enabled, then \
                     prints resilience stats, breaker states, recent errors, and the \
                     metrics registry in the chosen format."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown stats flag {other} (try stats --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if !matches!(opts.format.as_str(), "text" | "json" | "prom") {
        eprintln!("unknown --format `{}` (text|json|prom)", opts.format);
        std::process::exit(2);
    }
    opts
}

/// `cardest-cli stats`: build the MSCN→AVI→sampling fallback chain with a
/// chaos-wrapped primary, serve a prequential stream with telemetry on, and
/// dump the observability surface (resilience counters, breaker states,
/// bounded error ring, metrics registry).
fn run_stats(args: &[String]) {
    let opts = parse_stats_args(args);
    let seed = 42;
    let alpha = 0.1;
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "stats: dataset {} ({} rows), {} labeled queries, stream {}",
        opts.dataset,
        table.n_rows(),
        opts.queries,
        opts.stream
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );
    let floor = 1.0 / bench.table.n_rows() as f64;

    eprintln!("training chain: chaos(mscn) -> avi -> sampling ...");
    install_quiet_chaos_hook();
    let mscn = train_mscn(&bench.feat, &bench.train, 10, seed);
    let heal_model = mscn.clone();
    let chaos = ChaosConfig {
        nan_rate: 0.2,
        panic_rate: 0.05,
        warmup_calls: bench.calib.len() as u64,
        seed,
        ..Default::default()
    };
    let primary: Box<dyn PiEstimator> = Box::new(OnlineConformal::new(
        ChaosRegressor::new(mscn, chaos),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        alpha,
    ));
    let avi = AviModel::build(&bench.table, floor);
    let sampling =
        SamplingEstimator::build(&bench.table, (opts.rows / 100).max(50), seed + 7, floor);
    let mut service = ResilientService::new(primary)
        .with_fallback(Box::new(OnlineConformal::new(
            avi,
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            alpha,
        )))
        .with_fallback(Box::new(OnlineConformal::new(
            sampling,
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            alpha,
        )))
        .with_expected_dims(bench.test.x[0].len());

    ce_telemetry::set_enabled(true);
    eprintln!("serving {} queries prequentially under chaos ...", opts.stream);
    for qi in 0..opts.stream {
        let i = qi % bench.test.len();
        let x = &bench.test.x[i];
        let _iv = service
            .interval(x)
            .unwrap_or_else(|_| PredictionInterval::new(f64::NEG_INFINITY, f64::INFINITY));
        service.observe(x, bench.test.y[i]);
    }
    // Mirror the counters into the registry so every export format sees them.
    service.publish_telemetry();

    // Self-healing remediation demo: a calm warm-up, then a drifted phase
    // whose alarm drives the recalibration state machine. With telemetry
    // enabled the heal.* gauges and counters land in the registry, so the
    // json/prom exports carry the remediation surface too.
    eprintln!("streaming drift through the self-healing layer ...");
    let mut healing = SelfHealingService::new(
        heal_model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha, ..Default::default() },
        HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
    );
    for qi in 0..opts.stream {
        let i = qi % bench.test.len();
        let drift = if qi >= opts.stream / 2 { 0.5 } else { 0.0 };
        healing.observe(&bench.test.x[i], bench.test.y[i] + drift);
    }

    match opts.format.as_str() {
        "json" => println!("{}", ce_telemetry::global().to_json()),
        "prom" => print!("{}", ce_telemetry::global().to_prometheus()),
        _ => {
            print_stats_text(&service);
            print_remediation_text(&healing);
        }
    }
    ce_telemetry::set_enabled(false);
}

/// Human-readable dump of the self-healing layer's remediation history.
fn print_remediation_text<M, S>(svc: &SelfHealingService<M, S>)
where
    M: Regressor + Clone,
    S: ScoreFunction + Clone,
{
    let state = match svc.state() {
        HealState::Healthy => "healthy",
        HealState::Recalibrating => "recalibrating",
        HealState::RolledBack => "rolled-back (cooldown)",
    };
    println!("\nself-healing remediation ({} observations)", svc.observations());
    println!("  state ............... {state}");
    println!("  promotions .......... {}", svc.promotion_count());
    println!("  rollbacks ........... {}", svc.rollback_count());
    match svc.last_alarm() {
        Some(HealEvent::AlarmReceived { at, coverage }) => {
            println!("  last alarm .......... obs {at} (rolling coverage {coverage:.3})");
        }
        _ => println!("  last alarm .......... none"),
    }
    match svc.last_outcome() {
        Some(HealEvent::Promoted { at, shadow_coverage, candidate_delta }) => println!(
            "  last outcome ........ promoted at obs {at} \
             (shadow coverage {shadow_coverage:.3}, delta {candidate_delta:.5})"
        ),
        Some(HealEvent::RolledBack { at, reason, shadow_coverage, cooldown_until }) => println!(
            "  last outcome ........ rolled back at obs {at} ({reason}, \
             shadow coverage {shadow_coverage:.3}, cooldown until obs {cooldown_until})"
        ),
        _ => println!("  last outcome ........ none"),
    }
    println!("  history ({} events, oldest first):", svc.history().len());
    for event in svc.history() {
        match event {
            HealEvent::AlarmReceived { at, coverage } => {
                println!("    obs {at}: alarm (coverage {coverage:.3})");
            }
            HealEvent::Promoted { at, shadow_coverage, .. } => {
                println!("    obs {at}: promoted (shadow coverage {shadow_coverage:.3})");
            }
            HealEvent::RolledBack { at, reason, .. } => {
                println!("    obs {at}: rolled back ({reason})");
            }
        }
    }
}

/// Options for the `serve` subcommand.
#[cfg_attr(test, derive(Debug))]
struct ServeOptions {
    dataset: String,
    rows: usize,
    queries: usize,
    stream: usize,
    checkpoint: PathBuf,
    every: usize,
    drift_at: Option<usize>,
    resume: bool,
    /// When set, serve over HTTP on this address instead of the prequential
    /// text loop.
    listen: Option<String>,
    workers: usize,
    queue: usize,
    max_batch: usize,
    batch_window_us: u64,
    /// Server read tick in milliseconds (HTTP mode): how fast drains and
    /// shutdowns propagate in the tick-polled fallback. Cluster shards keep
    /// this low so the router's health probes and drain turn around
    /// promptly. Ignored in the (default) event-driven mode.
    read_tick_ms: u64,
    /// Readiness-loop poller threads (HTTP mode). 1 multiplexes thousands
    /// of idle keep-alive connections; 0 forces the tick-polled fallback.
    pollers: usize,
    /// Couple CoverageMonitor alarms to the Drifted-mode switch.
    alarm_coupled: bool,
    /// Trace head-sampling rate (HTTP mode): trace one request in N. 0
    /// disables tracing, 1 traces everything; anomalies trace everything
    /// for a window regardless.
    trace_sample: u64,
    /// Additional model names to register besides `default` (HTTP mode).
    /// Each gets its own self-healing engine over the shared trained model
    /// and its own checkpoint file at `{checkpoint}.{name}`.
    models: Vec<String>,
    /// Per-tenant token-bucket refill rate in requests/second (HTTP mode).
    /// Unset disables rate limiting.
    tenant_rate: Option<f64>,
    /// Token-bucket burst capacity (only meaningful with --tenant-rate).
    tenant_burst: f64,
    /// Interval-cache capacity in entries (HTTP mode); 0 disables caching.
    cache_cap: usize,
}

/// Outcome of parsing `serve` arguments: run, or print usage and stop.
/// One short-lived value per invocation, so the size skew is harmless.
#[cfg_attr(test, derive(Debug))]
#[allow(clippy::large_enum_variant)]
enum ServeArgs {
    Help,
    Run(ServeOptions),
}

const SERVE_USAGE: &str = "usage: cardest-cli serve [--dataset dmv|census|forest|power] \
[--rows N] [--queries N] [--stream N] [--checkpoint PATH] \
[--checkpoint-every N] [--drift-at N] [--resume] [--listen ADDR] \
[--workers N] [--queue N] [--max-batch N] [--batch-window-us N] \
[--read-tick-ms N] [--pollers N] [--trace-sample N] [--alarm-coupled] \
[--models a,b,...] [--tenant-rate R] [--tenant-burst B] [--cache-cap N]\n\n\
Runs the self-healing PI service with periodic durable checkpoints. \
Without --listen: a prequential text loop whose truths shift by +0.5 from \
--drift-at (default stream/2) onward so the drift alarm and shadow-validated \
recalibration fire mid-run. With --listen ADDR (e.g. 127.0.0.1:8080): a \
network HTTP server exposing POST /v1/predict[/{model}], \
POST /v1/observe[/{model}], POST /v1/admin/models/{model} (hot reload from a \
posted checkpoint, shadow-validated with rollback), GET /metrics, /healthz \
and /readyz, with micro-batched admission-controlled serving through the \
full resilient fallback chain. --models registers extra named engines (each \
checkpointing to {checkpoint}.{name}); --tenant-rate/--tenant-burst \
rate-limit per x-ce-tenant header; --cache-cap enables the epoch-keyed \
interval cache. SIGTERM/SIGINT checkpoint and exit gracefully; --resume \
restores (chain breakers included) and continues bit-for-bit.";

/// Pure argument parser for `serve` — every problem (unknown flag, missing
/// or malformed value) is an `Err`, never a warning-and-continue, so a typo
/// cannot silently drop an option.
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut opts = ServeOptions {
        dataset: "dmv".into(),
        rows: 10_000,
        queries: 800,
        stream: 2_000,
        checkpoint: PathBuf::from("cardest-serve.ckpt"),
        every: 200,
        drift_at: None,
        resume: false,
        listen: None,
        workers: 4,
        queue: 1024,
        max_batch: 64,
        // Zero matches HttpServeConfig::default(): the batcher's inline
        // fast path plus busy-runner coalescing beat a fixed linger window
        // at every measured concurrency.
        batch_window_us: 0,
        read_tick_ms: 10,
        pollers: 1,
        alarm_coupled: false,
        trace_sample: ce_telemetry::trace::DEFAULT_SAMPLE_RATE,
        models: Vec::new(),
        tenant_rate: None,
        tenant_burst: 8.0,
        cache_cap: 0,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<String, String> {
            args.get(i + 1).cloned().ok_or_else(|| format!("missing value for {}", args[i]))
        };
        fn number<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse().map_err(|_| format!("{flag} takes a number, got `{raw}`"))
        }
        match args[i].as_str() {
            "--dataset" => opts.dataset = value(i)?,
            "--rows" => opts.rows = number("--rows", value(i)?)?,
            "--queries" => opts.queries = number("--queries", value(i)?)?,
            "--stream" => opts.stream = number("--stream", value(i)?)?,
            "--checkpoint" => opts.checkpoint = PathBuf::from(value(i)?),
            "--checkpoint-every" => opts.every = number("--checkpoint-every", value(i)?)?,
            "--drift-at" => opts.drift_at = Some(number("--drift-at", value(i)?)?),
            "--listen" => opts.listen = Some(value(i)?),
            "--workers" => opts.workers = number("--workers", value(i)?)?,
            "--queue" => opts.queue = number("--queue", value(i)?)?,
            "--max-batch" => opts.max_batch = number("--max-batch", value(i)?)?,
            "--batch-window-us" => {
                opts.batch_window_us = number("--batch-window-us", value(i)?)?
            }
            "--read-tick-ms" => opts.read_tick_ms = number("--read-tick-ms", value(i)?)?,
            "--pollers" => opts.pollers = number("--pollers", value(i)?)?,
            "--trace-sample" => opts.trace_sample = number("--trace-sample", value(i)?)?,
            "--models" => {
                let raw = value(i)?;
                let mut names = Vec::new();
                for name in raw.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        return Err("--models names must be non-empty".to_string());
                    }
                    if name.contains('/') || name.contains(char::is_whitespace) {
                        return Err(format!(
                            "--models name `{name}` must not contain `/` or whitespace \
                             (it becomes a URL path segment)"
                        ));
                    }
                    if !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
                opts.models = names;
            }
            "--tenant-rate" => {
                opts.tenant_rate = Some(number("--tenant-rate", value(i)?)?)
            }
            "--tenant-burst" => {
                opts.tenant_burst = number("--tenant-burst", value(i)?)?
            }
            "--cache-cap" => opts.cache_cap = number("--cache-cap", value(i)?)?,
            "--resume" => {
                opts.resume = true;
                i += 1;
                continue;
            }
            "--alarm-coupled" => {
                opts.alarm_coupled = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => return Ok(ServeArgs::Help),
            other => return Err(format!("unknown serve flag {other} (try serve --help)")),
        }
        i += 2;
    }
    if opts.every == 0 {
        return Err("--checkpoint-every must be at least 1".to_string());
    }
    if opts.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if opts.max_batch == 0 {
        return Err("--max-batch must be at least 1".to_string());
    }
    if opts.read_tick_ms == 0 {
        return Err("--read-tick-ms must be at least 1".to_string());
    }
    if let Some(rate) = opts.tenant_rate {
        if !rate.is_finite() || rate <= 0.0 {
            return Err("--tenant-rate must be a positive number".to_string());
        }
    }
    if !opts.tenant_burst.is_finite() || opts.tenant_burst < 1.0 {
        return Err("--tenant-burst must be at least 1".to_string());
    }
    Ok(ServeArgs::Run(opts))
}

/// Set by the signal handler; the serve loop polls it between observations.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Minimal libc-free signal hookup: `signal(2)` is in every unix libc the
    // binary already links against. The handler only touches an atomic,
    // which is async-signal-safe.
    extern "C" fn request_shutdown(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `cardest-cli serve`: a long-lived loop over the [`SelfHealingService`]
/// with periodic durable checkpoints, graceful signal shutdown, and
/// bit-for-bit `--resume`. Without `--listen`: a prequential text loop with
/// drift injection. With `--listen ADDR`: a network HTTP server through the
/// full resilient chain (breaker snapshots ride the checkpoint both ways).
fn run_serve(args: &[String]) {
    let opts = match parse_serve_args(args) {
        Ok(ServeArgs::Help) => {
            println!("{SERVE_USAGE}");
            return;
        }
        Ok(ServeArgs::Run(opts)) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let seed = 42;
    let alpha = 0.1;
    install_signal_handlers();
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "serve: dataset {} ({} rows), stream {}, checkpoint {} every {} obs",
        opts.dataset,
        table.n_rows(),
        opts.stream,
        opts.checkpoint.display(),
        opts.every,
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );
    // The model is retrained deterministically from the same seed on every
    // start; only the (cheap, mutable) calibration state lives in the
    // checkpoint file.
    eprintln!("training mscn ...");
    let model = train_mscn(&bench.feat, &bench.train, 10, seed);
    let drift_at = opts.drift_at.unwrap_or(opts.stream / 2);

    let fresh = |model| {
        SelfHealingService::new(
            model,
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            PiServiceConfig {
                alpha,
                couple_coverage_alarm: opts.alarm_coupled,
                ..Default::default()
            },
            HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
        )
    };
    // Load the checkpoint once and keep the breaker snapshots aside: the
    // healing restore consumes the checkpoint, but the HTTP path still needs
    // the chain half afterwards.
    let loaded = if opts.resume && opts.checkpoint.exists() {
        match read_checkpoint(&opts.checkpoint) {
            Ok(ckpt) => Some(ckpt),
            Err(e) => {
                eprintln!("checkpoint unusable ({e}); cold-starting fresh");
                None
            }
        }
    } else {
        if opts.resume {
            eprintln!("no checkpoint at {}; cold-starting fresh", opts.checkpoint.display());
        }
        None
    };
    let saved_breakers = loaded.as_ref().map(|c| c.breakers.clone()).unwrap_or_default();
    let mut svc = match loaded {
        Some(ckpt) => {
            match SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt) {
                Ok(svc) => {
                    eprintln!(
                        "resumed from {} at observation {}",
                        opts.checkpoint.display(),
                        svc.observations()
                    );
                    svc
                }
                Err(e) => {
                    eprintln!("checkpoint unusable ({e}); cold-starting fresh");
                    fresh(model.clone())
                }
            }
        }
        None => fresh(model.clone()),
    };

    if let Some(listen) = &opts.listen {
        run_serve_http(listen, &opts, svc, saved_breakers, model, &bench, seed, alpha);
        return;
    }

    let start = svc.observations() as usize;
    if start >= opts.stream {
        eprintln!("checkpoint already at observation {start} >= --stream {}; done", opts.stream);
    }
    let mut served = 0usize;
    let mut covered = 0usize;
    for qi in start..opts.stream {
        if SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("shutdown signal received at observation {qi}");
            break;
        }
        let i = qi % bench.test.len();
        let x = &bench.test.x[i];
        let drift = if qi >= drift_at { 0.5 } else { 0.0 };
        let y = bench.test.y[i] + drift;
        if svc.interval(x).contains(y) {
            covered += 1;
        }
        served += 1;
        svc.observe(x, y);
        if (qi + 1) % opts.every == 0 {
            checkpoint_now(&mut svc, &opts.checkpoint, "periodic");
        }
    }
    checkpoint_now(&mut svc, &opts.checkpoint, "final");
    if served > 0 {
        println!(
            "served {served} observations this run, empirical coverage {:.3}",
            covered as f64 / served as f64
        );
    }
    print_remediation_text(&svc);
}

/// The HTTP serving mode: a multi-tenant [`ModelRegistry`] (DESIGN.md §15)
/// whose `default` model is the resumed self-healing service behind a
/// resilient AVI/sampling fallback chain, plus one independent engine per
/// `--models` name (each with its own `{checkpoint}.{name}` file). Serves
/// `POST /v1/predict[/{model}]`, `POST /v1/observe[/{model}]`, the hot
/// reload admin route, and `GET /metrics` until SIGTERM/SIGINT,
/// checkpointing every model's full chain every `--checkpoint-every`
/// observations and once more on drain.
#[allow(clippy::too_many_arguments)]
fn run_serve_http<M>(
    listen: &str,
    opts: &ServeOptions,
    svc: SelfHealingService<M, AbsoluteResidual>,
    saved_breakers: Vec<cardest::conformal::BreakerSnapshot>,
    model: M,
    bench: &SingleTableBench,
    seed: u64,
    alpha: f64,
) where
    M: Regressor + Clone + Send + Sync + 'static,
{
    use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning, DEFAULT_MODEL};

    let floor = 1.0 / bench.table.n_rows() as f64;
    let dims = bench.calib.x.first().map(Vec::len).unwrap_or(0);
    eprintln!("building fallback chain: self-healing -> avi -> sampling ...");
    let avi = AviModel::build(&bench.table, floor);
    let sampling =
        SamplingEstimator::build(&bench.table, (opts.rows / 100).max(50), seed + 7, floor);
    // The fallback chain is rebuilt per engine (extra models, hot reloads):
    // the heavy parts (AVI histograms, the row sample) are built once above
    // and cloned; only the cheap conformal wrappers are fresh each time.
    let calib_x = bench.calib.x.clone();
    let calib_y = bench.calib.y.clone();
    let make_fallbacks: std::sync::Arc<dyn Fn() -> Vec<Box<dyn PiEstimator>> + Send + Sync> = {
        let (avi, sampling) = (avi, sampling);
        let (calib_x, calib_y) = (calib_x.clone(), calib_y.clone());
        std::sync::Arc::new(move || {
            vec![
                Box::new(OnlineConformal::new(
                    avi.clone(),
                    AbsoluteResidual,
                    &calib_x,
                    &calib_y,
                    alpha,
                )) as Box<dyn PiEstimator>,
                Box::new(OnlineConformal::new(
                    sampling.clone(),
                    AbsoluteResidual,
                    &calib_x,
                    &calib_y,
                    alpha,
                )),
            ]
        })
    };
    let engine = ServeEngine::new(svc, make_fallbacks(), dims);
    if !saved_breakers.is_empty() {
        match engine.restore_breakers(&saved_breakers) {
            Ok(()) => eprintln!("restored {} breaker snapshots", saved_breakers.len()),
            Err(e) => eprintln!("breaker snapshots not restored ({e}); starting closed"),
        }
    }
    ce_telemetry::set_enabled(true);
    ce_telemetry::trace::set_sample_rate(opts.trace_sample);
    let http_config = HttpServeConfig {
        workers: opts.workers,
        conn_queue: opts.queue.max(16),
        queue_cap: opts.queue,
        max_batch: opts.max_batch,
        batch_window: std::time::Duration::from_micros(opts.batch_window_us),
        read_tick: std::time::Duration::from_millis(opts.read_tick_ms),
        pollers: opts.pollers,
        ..HttpServeConfig::default()
    };
    let mut tuning = RegistryTuning::from_http(&http_config);
    tuning.cache_entries = opts.cache_cap;
    // The reload factory marries a posted checkpoint to the shared trained
    // model and a fresh fallback chain — the same recipe --resume uses.
    let mut registry = ModelRegistry::new(tuning).with_factory(Box::new({
        let model = model.clone();
        let make_fallbacks = std::sync::Arc::clone(&make_fallbacks);
        move |ckpt: cardest::conformal::Checkpoint| {
            let breakers = ckpt.breakers.clone();
            let svc = SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt)?;
            let engine = ServeEngine::new(svc, make_fallbacks(), dims);
            engine.restore_breakers(&breakers)?;
            Ok(engine)
        }
    }));
    if let Some(rate) = opts.tenant_rate {
        let Some(limit) = cardest::server::RateLimit::new(rate, opts.tenant_burst) else {
            eprintln!("invalid --tenant-rate/--tenant-burst ({rate}/{})", opts.tenant_burst);
            std::process::exit(2);
        };
        registry = registry.with_limiter(limit);
        eprintln!("tenant rate limiting: {rate}/s per tenant, burst {}", opts.tenant_burst);
    }
    if opts.cache_cap > 0 {
        eprintln!("interval cache: {} entries (epoch-keyed)", opts.cache_cap);
    }
    let registry = std::sync::Arc::new(registry);
    // A hot reload replaces a registered engine's chain in place, so the
    // engines kept here checkpoint the post-reload state.
    let default = registry.register(DEFAULT_MODEL, engine).engine();
    let mut engines = vec![(opts.checkpoint.clone(), default)];
    let fresh_model = |m: M| {
        SelfHealingService::new(
            m,
            AbsoluteResidual,
            &calib_x,
            &calib_y,
            PiServiceConfig {
                alpha,
                couple_coverage_alarm: opts.alarm_coupled,
                ..Default::default()
            },
            HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
        )
    };
    for name in &opts.models {
        if name == DEFAULT_MODEL {
            continue;
        }
        let path = PathBuf::from(format!("{}.{name}", opts.checkpoint.display()));
        let loaded = if opts.resume && path.exists() {
            match read_checkpoint(&path) {
                Ok(ckpt) => Some(ckpt),
                Err(e) => {
                    eprintln!("model {name}: checkpoint unusable ({e}); cold-starting");
                    None
                }
            }
        } else {
            None
        };
        let breakers = loaded.as_ref().map(|c| c.breakers.clone()).unwrap_or_default();
        let svc_m = match loaded {
            Some(ckpt) => {
                match SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt) {
                    Ok(svc) => {
                        eprintln!(
                            "model {name}: resumed from {} at observation {}",
                            path.display(),
                            svc.observations()
                        );
                        svc
                    }
                    Err(e) => {
                        eprintln!("model {name}: checkpoint unusable ({e}); cold-starting");
                        fresh_model(model.clone())
                    }
                }
            }
            None => fresh_model(model.clone()),
        };
        let engine_m = ServeEngine::new(svc_m, make_fallbacks(), dims);
        if !breakers.is_empty() {
            if let Err(e) = engine_m.restore_breakers(&breakers) {
                eprintln!("model {name}: breaker snapshots not restored ({e})");
            }
        }
        engines.push((path, registry.register(name, engine_m).engine()));
    }
    let handle = match start_registry_server(std::sync::Arc::clone(&registry), listen, http_config)
    {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "listening on http://{} (workers {}, queue {}, max-batch {}, window {}us, models: {})",
        handle.local_addr(),
        opts.workers,
        opts.queue,
        opts.max_batch,
        opts.batch_window_us,
        registry.names().join(", "),
    );
    eprintln!(
        "endpoints: POST /v1/predict[/{{model}}], POST /v1/observe[/{{model}}], \
         POST /v1/admin/models/{{model}}, GET /metrics, GET /debug/trace, \
         GET /healthz, GET /readyz (trace sampling 1 in {})",
        opts.trace_sample,
    );

    let mut last_obs: Vec<u64> = engines.iter().map(|(_, e)| e.observations()).collect();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(200));
        for ((path, engine), last) in engines.iter().zip(last_obs.iter_mut()) {
            let obs = engine.observations();
            if obs >= *last + opts.every as u64 {
                write_engine_checkpoint(engine, path, "periodic");
                *last = obs;
            }
        }
    }
    eprintln!("shutdown signal received; draining ...");
    handle.drain();
    for (path, engine) in &engines {
        write_engine_checkpoint(engine, path, "final");
    }
    let server = handle.server_stats();
    let batcher = handle.batcher_stats();
    println!(
        "served {} requests over {} connections ({} shed at accept, {} parse errors)",
        server.requests, server.accepted, server.conn_shed, server.parse_errors
    );
    println!(
        "micro-batcher: {} queries admitted, {} shed, {} batches (largest {})",
        batcher.admitted, batcher.shed, batcher.batches, batcher.max_batch_seen
    );
    ce_telemetry::set_enabled(false);
}

/// Writes the engine's full-chain checkpoint (healing state + breaker
/// snapshots); failures are reported but never kill the server.
fn write_engine_checkpoint<M>(
    engine: &ServeEngine<M, AbsoluteResidual>,
    path: &std::path::Path,
    kind: &str,
) where
    M: Regressor + Clone + Send + Sync + 'static,
{
    let ckpt = engine.checkpoint();
    match write_checkpoint(path, &ckpt) {
        Ok(()) => eprintln!(
            "[obs {}] {kind} checkpoint -> {} ({} breaker snapshots)",
            engine.observations(),
            path.display(),
            ckpt.breakers.len(),
        ),
        Err(e) => eprintln!("[obs {}] {kind} checkpoint FAILED: {e}", engine.observations()),
    }
}

/// Writes a checkpoint with a one-line status report; checkpoint failures
/// are reported but never kill the serving loop.
fn checkpoint_now<M, S>(svc: &mut SelfHealingService<M, S>, path: &std::path::Path, kind: &str)
where
    M: Regressor + Clone,
    S: ScoreFunction + Clone,
{
    match write_checkpoint(path, &svc.checkpoint()) {
        Ok(()) => eprintln!(
            "[obs {}] {kind} checkpoint -> {} (state {:?}, promotions {}, rollbacks {})",
            svc.observations(),
            path.display(),
            svc.state(),
            svc.promotion_count(),
            svc.rollback_count(),
        ),
        Err(e) => eprintln!("[obs {}] {kind} checkpoint FAILED: {e}", svc.observations()),
    }
}

/// Human-readable dump of the service's observability surface.
fn print_stats_text(service: &ResilientService) {
    let stats = service.stats();
    println!("resilience stats ({} queries served)", stats.queries);
    println!("  answered ............ {} (rate {:.3})", stats.answered, stats.answer_rate());
    println!("  fallback rate ....... {:.3}", stats.fallback_rate());
    println!("  floor served ........ {}", stats.floor_served);
    println!("  rejected inputs ..... {}", stats.rejected_inputs);
    println!("  panics caught ....... {}", stats.panics_caught);
    println!("  estimator failures .. {}", stats.estimator_failures);
    println!("  breaker trips ....... {}", stats.breaker_trips);
    println!("fallback chain:");
    for (pos, name) in service.chain_names().iter().enumerate() {
        let state = match service.breaker_state(pos) {
            Some(BreakerState::Closed) => "closed",
            Some(BreakerState::HalfOpen) => "half-open",
            Some(BreakerState::Open) => "OPEN",
            None => "?",
        };
        let served = stats.served_by.get(pos).copied().unwrap_or(0);
        println!("  [{pos}] {name}: breaker {state}, served {served}");
    }
    let errors = service.last_errors();
    println!(
        "last errors ({} buffered, cap {}, oldest first):",
        errors.len(),
        ResilientService::LAST_ERRORS_CAP
    );
    for (who, err) in errors.iter().rev().take(10).rev() {
        println!("  {who}: {err}");
    }
    if errors.len() > 10 {
        println!("  ... ({} older entries omitted)", errors.len() - 10);
    }
    println!("\nmetrics registry (use --format json|prom for machine-readable export):");
    for line in ce_telemetry::global().to_prometheus().lines() {
        if line.starts_with("cardest_resilient_") && !line.starts_with('#') {
            println!("  {line}");
        }
    }
}


/// Options for `cardest-cli route` — the cluster router process.
#[cfg_attr(test, derive(Debug))]
struct RouteOptions {
    listen: String,
    /// `(name, addr)` pairs from repeated `--shard NAME=ADDR` flags.
    shards: Vec<(String, std::net::SocketAddr)>,
    vnodes: usize,
    workers: usize,
    retry_budget: usize,
    deadline_ms: u64,
    probe_interval_ms: u64,
    fail_threshold: u32,
    recover_threshold: u32,
    /// Trace head-sampling rate: trace one routed request in N (0 off,
    /// 1 everything).
    trace_sample: u64,
    /// Replica set size per signature (1 = single-owner, PR 6 behavior).
    replicas: usize,
    /// Fixed hedge delay in ms; `None` leaves hedging off.
    hedge_ms: Option<u64>,
}

/// Outcome of parsing `route` arguments: run, or print usage and stop.
#[cfg_attr(test, derive(Debug))]
enum RouteArgs {
    Help,
    Run(RouteOptions),
}

const ROUTE_USAGE: &str = "usage: cardest-cli route --shard NAME=ADDR [--shard NAME=ADDR ...] \
[--listen ADDR] [--vnodes N] [--workers N] [--retry-budget N] [--deadline-ms N] \
[--probe-interval-ms N] [--fail-threshold N] [--recover-threshold N] \
[--trace-sample N] [--replicas N] [--hedge-ms MS]\n\n\
Fronts a fleet of shared-nothing `serve --listen` shards with a \
consistent-hash router: each predict request's body hashes to a signature \
that pins it to one shard, a background prober ejects shards after \
consecutive /readyz failures and readmits them after consecutive successes, \
and refused/failed legs fail over to the next ring candidate within a \
bounded retry budget and deadline. Shards are keyed by NAME — restart a \
shard anywhere (e.g. `serve --resume --listen :0`) and point the same name \
at the new address without moving any keys.\n\n\
--replicas N (default 1) keeps each signature's calibration truths on its \
first N distinct ring candidates: predictions go to the primary (failover \
prefers the backups), truth-carrying bodies fan out to the rest of the \
replica set as idempotent /v1/observe posts, so a promoted backup serves \
from warm state. --hedge-ms MS fires a second request at the first backup \
when the primary has not answered within MS milliseconds (first response \
wins); omit it to leave hedging off.";

/// Pure argument parser for `route`; mirrors `parse_serve_args`' contract —
/// every problem is an `Err`, never a warning-and-continue.
fn parse_route_args(args: &[String]) -> Result<RouteArgs, String> {
    let mut opts = RouteOptions {
        listen: "127.0.0.1:8600".to_string(),
        shards: Vec::new(),
        vnodes: 64,
        workers: 4,
        retry_budget: 2,
        deadline_ms: 2_000,
        probe_interval_ms: 50,
        fail_threshold: 3,
        recover_threshold: 2,
        trace_sample: ce_telemetry::trace::DEFAULT_SAMPLE_RATE,
        replicas: 1,
        hedge_ms: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<String, String> {
            args.get(i + 1).cloned().ok_or_else(|| format!("missing value for {}", args[i]))
        };
        fn number<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse().map_err(|_| format!("{flag} takes a number, got `{raw}`"))
        }
        match args[i].as_str() {
            "--listen" => opts.listen = value(i)?,
            "--shard" => {
                let raw = value(i)?;
                let (name, addr) = raw
                    .split_once('=')
                    .ok_or_else(|| format!("--shard takes NAME=ADDR, got `{raw}`"))?;
                if name.is_empty() {
                    return Err(format!("--shard needs a non-empty name in `{raw}`"));
                }
                let addr: std::net::SocketAddr = addr
                    .parse()
                    .map_err(|_| format!("--shard `{name}` has a malformed address `{addr}`"))?;
                if opts.shards.iter().any(|(n, _)| n == name) {
                    return Err(format!("duplicate shard name `{name}`"));
                }
                opts.shards.push((name.to_string(), addr));
            }
            "--vnodes" => opts.vnodes = number("--vnodes", value(i)?)?,
            "--workers" => opts.workers = number("--workers", value(i)?)?,
            "--retry-budget" => opts.retry_budget = number("--retry-budget", value(i)?)?,
            "--deadline-ms" => opts.deadline_ms = number("--deadline-ms", value(i)?)?,
            "--probe-interval-ms" => {
                opts.probe_interval_ms = number("--probe-interval-ms", value(i)?)?
            }
            "--fail-threshold" => opts.fail_threshold = number("--fail-threshold", value(i)?)?,
            "--recover-threshold" => {
                opts.recover_threshold = number("--recover-threshold", value(i)?)?
            }
            "--trace-sample" => opts.trace_sample = number("--trace-sample", value(i)?)?,
            "--replicas" => opts.replicas = number("--replicas", value(i)?)?,
            "--hedge-ms" => opts.hedge_ms = Some(number("--hedge-ms", value(i)?)?),
            "--help" | "-h" => return Ok(RouteArgs::Help),
            other => return Err(format!("unknown route flag {other} (try route --help)")),
        }
        i += 2;
    }
    if opts.shards.is_empty() {
        return Err("route needs at least one --shard NAME=ADDR".to_string());
    }
    if opts.replicas == 0 {
        return Err("--replicas must be at least 1 (1 = single-owner)".to_string());
    }
    if opts.hedge_ms == Some(0) {
        return Err("--hedge-ms must be at least 1 millisecond".to_string());
    }
    if opts.vnodes == 0 {
        return Err("--vnodes must be at least 1".to_string());
    }
    if opts.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if opts.fail_threshold == 0 || opts.recover_threshold == 0 {
        return Err("hysteresis thresholds must be at least 1".to_string());
    }
    Ok(RouteArgs::Run(opts))
}

/// `cardest-cli route`: runs the cluster router until SIGTERM/SIGINT, then
/// drains and prints forwarding + fleet counters.
fn run_route(args: &[String]) {
    let opts = match parse_route_args(args) {
        Ok(RouteArgs::Run(opts)) => opts,
        Ok(RouteArgs::Help) => {
            println!("{ROUTE_USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{ROUTE_USAGE}");
            std::process::exit(2);
        }
    };
    install_signal_handlers();
    ce_telemetry::set_enabled(true);
    ce_telemetry::trace::set_sample_rate(opts.trace_sample);
    let config = cardest::router::ClusterRouterConfig {
        workers: opts.workers,
        vnodes: opts.vnodes,
        router: cardest::server::RouterConfig {
            retry_budget: opts.retry_budget,
            deadline: std::time::Duration::from_millis(opts.deadline_ms),
            replicas: opts.replicas,
            hedge: match opts.hedge_ms {
                Some(ms) => cardest::server::HedgePolicy::Fixed(
                    std::time::Duration::from_millis(ms),
                ),
                None => cardest::server::HedgePolicy::Off,
            },
            ..cardest::server::RouterConfig::default()
        },
        health: cardest::server::HealthConfig {
            probe_interval: std::time::Duration::from_millis(opts.probe_interval_ms),
            fail_threshold: opts.fail_threshold,
            recover_threshold: opts.recover_threshold,
            ..cardest::server::HealthConfig::default()
        },
        ..cardest::router::ClusterRouterConfig::default()
    };
    let handle = match cardest::router::start_cluster_router(&opts.shards, &opts.listen, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    let hedge_text = match opts.hedge_ms {
        Some(ms) => format!("hedge {ms}ms"),
        None => "hedge off".to_string(),
    };
    eprintln!(
        "routing on http://{} over {} shards (vnodes {}, retry budget {}, deadline {}ms, \
replicas {}, {hedge_text})",
        handle.local_addr(),
        opts.shards.len(),
        opts.vnodes,
        opts.retry_budget,
        opts.deadline_ms,
        opts.replicas,
    );
    for (name, addr) in &opts.shards {
        eprintln!("  shard {name} -> {addr}");
    }
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("shutdown signal received; draining ...");
    handle.drain();
    let stats = handle.router_stats();
    let fleet = handle.fleet_stats();
    println!(
        "routed {} requests ({} primary, {} failover), {} leg errors, {} sheds, \
{} exhausted, {} deadline-exceeded",
        stats.requests,
        stats.served_primary,
        stats.served_failover,
        stats.leg_errors,
        stats.leg_sheds,
        stats.exhausted,
        stats.deadline_exceeded,
    );
    println!(
        "hedging: {} fired ({} wins, {} cancelled); truths: {} fan-outs, {} replica posts",
        stats.hedges_fired,
        stats.hedge_wins,
        stats.hedge_cancelled,
        stats.truth_fanouts,
        stats.truth_replicated,
    );
    println!(
        "fleet: {} probe rounds ({} ok, {} failed), {} ejections, {} readmissions, {} live at exit",
        fleet.probe_rounds,
        fleet.probe_ok,
        fleet.probe_failed,
        fleet.ejections,
        fleet.readmissions,
        handle.fleet().live_count(),
    );
    ce_telemetry::set_enabled(false);
}

/// Options for the `trace` subcommand.
#[cfg_attr(test, derive(Debug))]
struct TraceOptions {
    addr: String,
    json: bool,
}

/// Outcome of parsing `trace` arguments: run, or print usage and stop.
#[cfg_attr(test, derive(Debug))]
enum TraceArgs {
    Help,
    Run(TraceOptions),
}

const TRACE_USAGE: &str = "usage: cardest-cli trace [--addr HOST:PORT] [--json]\n\n\
Fetches GET /debug/trace from a running `serve --listen` shard or `route` \
router and pretty-prints the flight recorder: the last traced requests with \
per-stage latency attribution (park, dispatch, queue, window, infer, write, \
route, network ...) and the structured event log (breaker transitions, \
coverage alarms, shard ejections, sheds). --json dumps the raw snapshot \
instead.";

/// Pure argument parser for `trace`; same contract as the other subcommand
/// parsers — every problem is an `Err`.
fn parse_trace_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut opts = TraceOptions { addr: "127.0.0.1:8600".to_string(), json: false };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                opts.addr = args
                    .get(i + 1)
                    .cloned()
                    .ok_or_else(|| "missing value for --addr".to_string())?;
                i += 2;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--help" | "-h" => return Ok(TraceArgs::Help),
            other => return Err(format!("unknown trace flag {other} (try trace --help)")),
        }
    }
    Ok(TraceArgs::Run(opts))
}

/// Renders nanoseconds as a human-scaled duration.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Pretty-prints one `/debug/trace` snapshot; falls back to raw text when
/// the body is not the expected shape (e.g. a future schema).
fn print_trace_snapshot(text: &str) -> Result<(), serde_json::Error> {
    let value = serde_json::parse(text)?;
    let rate = value.field("sample_rate")?.as_f64()? as u64;
    match rate {
        0 => println!("flight recorder (tracing off; anomalies still sample)"),
        1 => println!("flight recorder (tracing every request)"),
        n => println!("flight recorder (sampling 1 in {n})"),
    }
    let serde_json::Value::Array(traces) = value.field("traces")? else {
        return Err(serde_json::Error::new("`traces` is not an array"));
    };
    println!("traces ({}, oldest first):", traces.len());
    for t in traces {
        let id = match t.field("trace")? {
            serde_json::Value::Str(s) => s.clone(),
            _ => "?".to_string(),
        };
        let total = t.field("total_ns")?.as_f64()?;
        let serde_json::Value::Array(stages) = t.field("stages")? else {
            continue;
        };
        let mut parts = Vec::with_capacity(stages.len());
        // Sum only the transport stages: span-joined stages (pi_batch, …)
        // nest inside `infer` and would double-count the wall clock.
        let mut accounted = 0.0;
        for s in stages {
            let name = match s.field("stage")? {
                serde_json::Value::Str(s) => s.clone(),
                _ => "?".to_string(),
            };
            let ns = s.field("ns")?.as_f64()?;
            if ce_telemetry::trace::TRANSPORT_STAGES.contains(&name.as_str()) {
                accounted += ns;
            }
            parts.push(format!("{name} {}", fmt_ns(ns)));
        }
        println!(
            "  {id}  total {} ({} attributed): {}",
            fmt_ns(total),
            fmt_ns(accounted),
            if parts.is_empty() { "-".to_string() } else { parts.join(", ") },
        );
    }
    let serde_json::Value::Array(events) = value.field("events")? else {
        return Err(serde_json::Error::new("`events` is not an array"));
    };
    println!("events ({}, oldest first):", events.len());
    for e in events {
        let at_s = e.field("at_ns")?.as_f64()? / 1e9;
        let kind = match e.field("kind")? {
            serde_json::Value::Str(s) => s.clone(),
            _ => "?".to_string(),
        };
        let anomaly = matches!(e.field("anomaly")?, serde_json::Value::Bool(true));
        let detail = match e.field("detail")? {
            serde_json::Value::Str(s) => s.clone(),
            _ => String::new(),
        };
        println!(
            "  [+{at_s:.3}s] {kind}{}{}{}",
            if anomaly { " (ANOMALY)" } else { "" },
            if detail.is_empty() { "" } else { ": " },
            detail,
        );
    }
    Ok(())
}

/// `cardest-cli trace`: fetch and render a running server's flight recorder.
fn run_trace(args: &[String]) {
    let opts = match parse_trace_args(args) {
        Ok(TraceArgs::Run(opts)) => opts,
        Ok(TraceArgs::Help) => {
            println!("{TRACE_USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{TRACE_USAGE}");
            std::process::exit(2);
        }
    };
    let addr: std::net::SocketAddr = match opts.addr.parse() {
        Ok(addr) => addr,
        Err(_) => {
            eprintln!("--addr must be HOST:PORT, got `{}`", opts.addr);
            std::process::exit(2);
        }
    };
    let mut client = match cardest::server::HttpClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let resp = match client.get("/debug/trace") {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("GET /debug/trace failed: {e}");
            std::process::exit(1);
        }
    };
    if resp.status != 200 {
        eprintln!("GET /debug/trace answered {}", resp.status);
        std::process::exit(1);
    }
    let text = String::from_utf8_lossy(&resp.body);
    if opts.json {
        println!("{text}");
        return;
    }
    if let Err(e) = print_trace_snapshot(&text) {
        eprintln!("unexpected snapshot shape ({e}); raw body:");
        println!("{text}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("stats") {
        run_stats(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("route") {
        run_route(&args[1..]);
        return;
    }
    let opts = parse_args();
    let seed = 42;
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "dataset {}: {} rows x {} columns; generating {} labeled queries...",
        opts.dataset,
        table.n_rows(),
        table.schema().arity(),
        opts.queries
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );

    eprintln!("training {}...", opts.model);
    let model: Box<dyn Regressor + Sync> = match opts.model.as_str() {
        "mscn" => Box::new(train_mscn(&bench.feat, &bench.train, 40, seed)),
        "lwnn" => Box::new(train_lwnn(&bench.table, &bench.train, 20, seed)),
        "naru" => Box::new(train_naru(&bench.table, 3, 64, seed)),
        other => {
            eprintln!("unknown model `{other}` (mscn|lwnn|naru)");
            std::process::exit(2);
        }
    };
    let model = &*model;
    let adapter = |f: &[f32]| model.predict(f);

    eprintln!("calibrating prediction intervals (alpha = {})...", opts.alpha);
    let floor = 1.0 / bench.table.n_rows() as f64;
    let scp = run_split_conformal(
        adapter,
        ScoreKind::Residual,
        &bench.calib,
        &bench.test,
        opts.alpha,
        floor,
    );
    let lw = run_locally_weighted(
        adapter,
        ScoreKind::Residual,
        &bench.train,
        &bench.calib,
        &bench.test,
        opts.alpha,
        floor,
        seed,
    );
    eprintln!(
        "held-out sanity: S-CP coverage {:.3} (width {:.5}), LW-S-CP coverage {:.3} (width {:.5})",
        scp.report.coverage, scp.report.mean_width, lw.report.coverage, lw.report.mean_width,
    );
    // Recalibrate interval closures for ad-hoc queries.
    let scp = cardest::conformal::SplitConformal::calibrate(
        adapter,
        cardest::conformal::AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        opts.alpha,
    );

    let columns: Vec<String> = bench
        .table
        .schema()
        .columns()
        .iter()
        .map(|c| format!("{}(0..{})", c.name, c.domain))
        .collect();
    eprintln!("\ncolumns: {}", columns.join(", "));
    eprintln!("enter queries like `{} = 1 AND {} in 2..5` (empty line quits):",
        bench.table.schema().column(0).name,
        bench.table.schema().column(1).name,
    );

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let n = bench.table.n_rows() as f64;
    loop {
        print!("> ");
        let _ = stdout.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() || line == "quit" || line == "exit" {
            break;
        }
        match parse_query(bench.table.schema(), line) {
            Err(e) => println!("  error: {e}"),
            Ok(q) => {
                let truth = bench.table.count(&q);
                let features = bench.feat.encode(&q);
                let est = adapter.predict(&features);
                let iv = scp.interval(&features).clip(0.0, 1.0);
                println!(
                    "  true count {truth} | estimate {:.0} (sel {:.5}) | {:.0}% PI [{:.0}, {:.0}] {}",
                    est * n,
                    est,
                    (1.0 - scp.alpha()) * 100.0,
                    iv.lo * n,
                    iv.hi * n,
                    if iv.contains(truth as f64 / n) { "(covers)" } else { "(MISS)" },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_defaults() {
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else {
            panic!("no flags should run with defaults");
        };
        assert_eq!(opts.dataset, "dmv");
        assert_eq!(opts.every, 200);
        assert!(opts.listen.is_none());
        assert!(!opts.resume);
        assert!(!opts.alarm_coupled);
    }

    #[test]
    fn serve_args_unknown_flag_is_an_error() {
        let err = parse_serve_args(&argv(&["--nonsense"])).unwrap_err();
        assert!(err.contains("--nonsense"), "error names the flag: {err}");
        // A typo'd flag before valid ones must also fail, not be skipped.
        assert!(parse_serve_args(&argv(&["--steam", "500"])).is_err());
    }

    #[test]
    fn serve_args_missing_value_is_an_error() {
        let err = parse_serve_args(&argv(&["--stream"])).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        assert!(parse_serve_args(&argv(&["--listen"])).is_err());
    }

    #[test]
    fn serve_args_malformed_number_is_an_error() {
        let err = parse_serve_args(&argv(&["--rows", "many"])).unwrap_err();
        assert!(err.contains("--rows") && err.contains("many"), "{err}");
    }

    #[test]
    fn serve_args_zero_guards() {
        assert!(parse_serve_args(&argv(&["--checkpoint-every", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--max-batch", "0"])).is_err());
    }


    #[test]
    fn route_args_require_a_shard() {
        let err = parse_route_args(&[]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
    }

    #[test]
    fn route_args_parse_shards_and_tuning() {
        let args = argv(&[
            "--listen",
            "127.0.0.1:0",
            "--shard",
            "a=127.0.0.1:9101",
            "--shard",
            "b=127.0.0.1:9102",
            "--vnodes",
            "32",
            "--retry-budget",
            "3",
            "--deadline-ms",
            "750",
            "--probe-interval-ms",
            "25",
            "--fail-threshold",
            "2",
            "--recover-threshold",
            "4",
        ]);
        let RouteArgs::Run(opts) = parse_route_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.shards.len(), 2);
        assert_eq!(opts.shards[0].0, "a");
        assert_eq!(opts.shards[1].1, "127.0.0.1:9102".parse().unwrap());
        assert_eq!(opts.vnodes, 32);
        assert_eq!(opts.retry_budget, 3);
        assert_eq!(opts.deadline_ms, 750);
        assert_eq!(opts.probe_interval_ms, 25);
        assert_eq!(opts.fail_threshold, 2);
        assert_eq!(opts.recover_threshold, 4);
    }

    #[test]
    fn route_args_reject_malformed_and_duplicate_shards() {
        let base = |spec: &str| parse_route_args(&argv(&["--shard", spec]));
        assert!(base("no-equals").is_err(), "NAME=ADDR required");
        assert!(base("=127.0.0.1:9101").is_err(), "empty name rejected");
        assert!(base("a=not-an-addr").is_err(), "address must parse");
        let dup = argv(&["--shard", "a=127.0.0.1:9101", "--shard", "a=127.0.0.1:9102"]);
        let err = parse_route_args(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn route_args_zero_guards_and_unknown_flags() {
        let with = |extra: &[&str]| {
            let mut v = vec!["--shard", "a=127.0.0.1:9101"];
            v.extend_from_slice(extra);
            parse_route_args(&argv(&v))
        };
        assert!(with(&["--vnodes", "0"]).is_err());
        assert!(with(&["--workers", "0"]).is_err());
        assert!(with(&["--fail-threshold", "0"]).is_err());
        assert!(with(&["--recover-threshold", "0"]).is_err());
        assert!(with(&["--bogus"]).is_err());
        assert!(matches!(parse_route_args(&argv(&["--help"])), Ok(RouteArgs::Help)));
    }

    #[test]
    fn route_args_replication_and_hedging_flags() {
        let with = |extra: &[&str]| {
            let mut v = vec!["--shard", "a=127.0.0.1:9101"];
            v.extend_from_slice(extra);
            parse_route_args(&argv(&v))
        };
        // Defaults: single-owner, hedging off — byte-identical to PR 6.
        let RouteArgs::Run(opts) = with(&[]).unwrap() else { panic!("should run") };
        assert_eq!(opts.replicas, 1);
        assert_eq!(opts.hedge_ms, None);
        let RouteArgs::Run(opts) = with(&["--replicas", "2", "--hedge-ms", "15"]).unwrap()
        else {
            panic!("should run")
        };
        assert_eq!(opts.replicas, 2);
        assert_eq!(opts.hedge_ms, Some(15));
        // Zero guards and malformed numbers are errors, not warnings.
        let err = with(&["--replicas", "0"]).unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
        let err = with(&["--hedge-ms", "0"]).unwrap_err();
        assert!(err.contains("--hedge-ms"), "{err}");
        assert!(with(&["--replicas", "two"]).is_err());
        assert!(with(&["--hedge-ms", "99999999999999999999999"]).is_err(), "overflow");
        assert!(with(&["--replicas"]).is_err(), "missing value");
    }

    #[test]
    fn serve_args_http_flags_parse() {
        let args = argv(&[
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--queue",
            "256",
            "--max-batch",
            "32",
            "--batch-window-us",
            "250",
            "--alarm-coupled",
            "--resume",
        ]);
        let ServeArgs::Run(opts) = parse_serve_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.queue, 256);
        assert_eq!(opts.max_batch, 32);
        assert_eq!(opts.batch_window_us, 250);
        assert!(opts.alarm_coupled);
        assert!(opts.resume);
    }

    #[test]
    fn serve_args_tenant_flags_parse_with_defaults() {
        // Defaults: single default model, no limiter, cache off — the PR 9
        // single-engine surface byte for byte.
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else { panic!() };
        assert!(opts.models.is_empty());
        assert_eq!(opts.tenant_rate, None);
        assert_eq!(opts.cache_cap, 0);
        let args = argv(&[
            "--models",
            "mscn, lwnn,mscn",
            "--tenant-rate",
            "50.5",
            "--tenant-burst",
            "20",
            "--cache-cap",
            "4096",
        ]);
        let ServeArgs::Run(opts) = parse_serve_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(
            opts.models,
            vec!["mscn".to_string(), "lwnn".to_string()],
            "names are trimmed and deduplicated"
        );
        assert_eq!(opts.tenant_rate, Some(50.5));
        assert_eq!(opts.tenant_burst, 20.0);
        assert_eq!(opts.cache_cap, 4096);
    }

    #[test]
    fn serve_args_tenant_flags_reject_bad_values() {
        assert!(parse_serve_args(&argv(&["--models", "a,,b"])).is_err(), "empty name");
        assert!(parse_serve_args(&argv(&["--models", "a/b"])).is_err(), "slash in name");
        assert!(parse_serve_args(&argv(&["--models", "a b"])).is_err(), "whitespace");
        assert!(parse_serve_args(&argv(&["--tenant-rate", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-rate", "-2"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-rate", "inf"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-burst", "0.5"])).is_err());
        assert!(parse_serve_args(&argv(&["--cache-cap", "many"])).is_err());
    }

    #[test]
    fn trace_args_parse_and_reject() {
        let TraceArgs::Run(opts) = parse_trace_args(&[]).unwrap() else {
            panic!("no flags should run with defaults");
        };
        assert_eq!(opts.addr, "127.0.0.1:8600");
        assert!(!opts.json);
        let TraceArgs::Run(opts) =
            parse_trace_args(&argv(&["--addr", "127.0.0.1:9000", "--json"])).unwrap()
        else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.addr, "127.0.0.1:9000");
        assert!(opts.json);
        assert!(parse_trace_args(&argv(&["--addr"])).is_err(), "missing value");
        assert!(parse_trace_args(&argv(&["--bogus"])).is_err());
        assert!(matches!(parse_trace_args(&argv(&["--help"])), Ok(TraceArgs::Help)));
    }

    #[test]
    fn trace_sample_flags_parse() {
        let ServeArgs::Run(opts) = parse_serve_args(&argv(&["--trace-sample", "8"])).unwrap()
        else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.trace_sample, 8);
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else { panic!() };
        assert_eq!(opts.trace_sample, ce_telemetry::trace::DEFAULT_SAMPLE_RATE);
        let args = argv(&["--shard", "a=127.0.0.1:9101", "--trace-sample", "0"]);
        let RouteArgs::Run(opts) = parse_route_args(&args).unwrap() else { panic!() };
        assert_eq!(opts.trace_sample, 0, "0 turns routed tracing off");
    }

    #[test]
    fn trace_snapshot_pretty_printer_accepts_the_wire_shape() {
        let text = r#"{"sample_rate": 64, "traces": [{"trace": "00000000000000000000000000000abc", "at_ns": 5000, "total_ns": 900, "stages": [{"stage": "infer", "ns": 700}, {"stage": "write", "ns": 100}]}], "events": [{"at_ns": 1000, "kind": "breaker_open", "anomaly": true, "detail": "mscn"}]}"#;
        print_trace_snapshot(text).expect("wire shape must print");
        assert!(print_trace_snapshot("[]").is_err(), "non-object rejected");
        assert!(print_trace_snapshot("{}").is_err(), "missing fields rejected");
    }

    #[test]
    fn serve_args_help_short_circuits() {
        assert!(matches!(parse_serve_args(&argv(&["--help"])), Ok(ServeArgs::Help)));
        assert!(matches!(
            parse_serve_args(&argv(&["-h", "--nonsense"])),
            Ok(ServeArgs::Help)
        ));
    }
}

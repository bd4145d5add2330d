//! Network-facing PI serving: the glue between `ce-server`'s HTTP substrate
//! and the core's resilient, self-healing estimator chain (DESIGN.md §10).
//!
//! ```text
//! accept loop ─▶ conn queue ─▶ worker pool ─▶ router ─▶ micro-batcher
//!                                                           │ coalesced
//!                                                           ▼
//!                  Mutex<ResilientService> (breakers, fallbacks, floor)
//!                                 └─ primary: SelfHealingService
//! ```
//!
//! Endpoints:
//!
//! - `POST /v1/predict` — JSON batch of feature vectors, answered with one
//!   interval per query. Requests are coalesced by the micro-batcher into
//!   `predict_interval_batch` calls; admission overflow sheds with `503` +
//!   `Retry-After`. Optional `truths` feed the prequential loop (calibration,
//!   drift detection, self-healing) after the predictions are made.
//! - `POST /v1/observe` — the same body with `truths` *required*, feeding
//!   calibration without serving predictions. This is the replication
//!   target: a cluster router fans each observed truth out to the key's
//!   backup replicas here, so a promoted backup serves from warm
//!   calibration (DESIGN.md §14). Both observe paths deduplicate by the
//!   router-minted `x-ce-truth-id` header (bounded id memory), so fan-out
//!   overlap and hedge duplicates cannot double-count an observation.
//! - `GET /metrics` — Prometheus text from the `ce-telemetry` registry,
//!   including the server's connection/poller counters.
//! - `GET /debug/trace` — JSON snapshot of the flight recorder: the last
//!   traced requests with per-stage latency attribution plus structured
//!   events (DESIGN.md §13).
//! - `GET /healthz` — liveness (always `200` while the process serves).
//! - `GET /readyz` — readiness; `503` while the self-healing layer is
//!   recalibrating or the server is draining.
//!
//! Tracing: a sampled `POST /v1/predict` (head sampling, default 1 in
//! `ce_telemetry::trace::DEFAULT_SAMPLE_RATE`; every request inside an
//! anomaly window) is traced end to end. The client may supply its own
//! 32-hex-digit `x-ce-trace` ID; a missing or malformed header mints a fresh
//! one — a hostile value can only ever be ignored, never poisons the
//! connection. The response echoes `x-ce-trace` and reports this hop's stage
//! breakdown in `x-ce-stages` so an upstream router can merge it.
//!
//! Determinism contract: the batcher's request coalescing never changes
//! results — `predict_interval_batch` snapshots state per batch and per-query
//! results are independent, so an HTTP-served interval is bit-identical to a
//! direct in-process call on the same state (the `net` experiment audits
//! this; non-finite endpoints travel as the JSON strings `"inf"`/`"-inf"`/
//! `"nan"` since JSON has no `Infinity`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::conformal::{
    BreakerSnapshot, BreakerState, CardEstError, Checkpoint, HealConfig, HealState,
    PiEstimator, PredictionInterval, Regressor, ResilientService,
    ScoreFunction, SelfHealingService, ServiceMode,
};
use ce_server::{BatcherStats, HttpServer, Response, ServerStats};
use ce_telemetry::trace;

/// The serving engine: the self-healing primary behind the resilient chain,
/// with full-chain checkpointing.
///
/// The whole chain sits behind one mutex. Serving already runs one batch
/// at a time per engine (the micro-batcher's runner), so a finer lock
/// would buy nothing; the response path's [`ServeEngine::mode`] read is
/// kept off the lock by publishing the mode at every observation.
pub struct ServeEngine<M, S> {
    chain: Mutex<Chain<M, S>>,
    truth_dedupe: Mutex<TruthDedupe>,
    /// Serving-state epoch, seqlock-style (DESIGN.md §15): odd while a
    /// serving-state window is open (observations and the promotions or
    /// rollbacks inside them, breaker restores, hot-reload replacements),
    /// +2 under the chain lock for a breaker transition in a predict batch.
    /// Two equal *even* reads bracketing a prediction prove the serving
    /// state was quiescent in between — the basis of the interval cache's
    /// byte-identity guarantee.
    epoch: AtomicU64,
    /// Whether the primary serves in [`ServiceMode::Drifted`]. The mode
    /// only changes inside a serving-state window, which stores it here
    /// under the chain lock before the epoch goes even again, so two equal
    /// even epochs also bracket an unchanged mode.
    drifted: AtomicBool,
}

/// The serving chain: the self-healing primary behind breakers and fallbacks.
type Chain<M, S> = ResilientService<SelfHealingService<M, S>>;

/// Bounded memory of recently seen truth-post IDs (`x-ce-truth-id`). A
/// replicated truth post and a hedge duplicate both replay an observation
/// body the shard may already have absorbed; observing it twice would put
/// the same residual into calibration twice and skew coverage. The set is
/// bounded FIFO — old IDs age out once the window of plausible replays
/// (router retry budget × fan-out) is long past.
struct TruthDedupe {
    seen: std::collections::HashSet<u64>,
    order: std::collections::VecDeque<u64>,
}

impl TruthDedupe {
    /// IDs remembered; far beyond any in-flight replay window.
    const CAP: usize = 4096;

    fn new() -> TruthDedupe {
        TruthDedupe {
            seen: std::collections::HashSet::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Claims `id`; `false` means it was already seen (a replay).
    fn claim(&mut self, id: u64) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > Self::CAP {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

impl<M, S> ServeEngine<M, S>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    /// Builds the engine: `healing` becomes the chain's primary, followed by
    /// the given fallbacks, with input sanitization against `expected_dims`
    /// and the conservative ±∞ floor as the last resort.
    pub fn new(
        healing: SelfHealingService<M, S>,
        fallbacks: Vec<Box<dyn PiEstimator>>,
        expected_dims: usize,
    ) -> Self {
        let drifted = AtomicBool::new(healing.service().mode() == ServiceMode::Drifted);
        let mut chain =
            ResilientService::from_primary(healing).with_expected_dims(expected_dims);
        for fallback in fallbacks {
            chain = chain.with_fallback(fallback);
        }
        ServeEngine {
            chain: Mutex::new(chain),
            truth_dedupe: Mutex::new(TruthDedupe::new()),
            epoch: AtomicU64::new(0),
            drifted,
        }
    }

    fn chain(&self) -> MutexGuard<'_, Chain<M, S>> {
        self.chain.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serves a batch through the full resilient chain (breakers, fallbacks,
    /// conservative floor all apply). Pure with respect to calibration
    /// state: feedback only ever arrives via [`ServeEngine::observe`]. A
    /// breaker transition *during* the batch (trip, half-open admission,
    /// close-on-success) changes which estimator answers, so it bumps the
    /// serving epoch while the chain lock is still held.
    pub fn predict_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        let mut chain = self.chain();
        let before = breaker_fingerprint(&chain);
        let results = chain.predict_interval_batch(queries);
        if breaker_fingerprint(&chain) != before {
            self.epoch.fetch_add(2, Ordering::SeqCst);
        }
        results
    }

    /// Feeds one executed query's truth to every chain entry — the primary's
    /// write routes into the self-healing state machine — inside one
    /// serving-state window (recalibration may promote or roll back).
    pub fn observe(&self, features: &[f32], y_true: f64) {
        self.window(|chain| chain.observe(features, y_true));
    }

    /// The one serving-state window: the epoch goes odd, `mutate` runs
    /// under a single chain-lock acquisition, the mode is published, and
    /// the epoch goes even again.
    fn window<R>(&self, mutate: impl FnOnce(&mut Chain<M, S>) -> R) -> R {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut chain = self.chain();
        let result = mutate(&mut chain);
        let drifted = chain.primary().service().mode() == ServiceMode::Drifted;
        self.drifted.store(drifted, Ordering::SeqCst);
        drop(chain);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        result
    }

    /// The serving-state epoch (see the field docs): even means quiescent,
    /// and two equal even reads bracketing a prediction prove no serving
    /// state changed in between.
    pub fn serving_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Feeds a whole batch of truths in one observation window (one chain
    /// lock, one odd/even epoch pair), atomically claiming `truth_id` first
    /// when one is present. Returns `false` — and observes *nothing* — when
    /// the ID was already seen: the batch is a replica-fan-out or hedge
    /// replay of an observation this shard has absorbed. The claim happens
    /// outside the chain lock, so the dedupe check never extends the
    /// serving critical section.
    pub fn observe_all(&self, features: &[Vec<f32>], truths: &[f64], truth_id: Option<u64>) -> bool {
        if let Some(id) = truth_id {
            let fresh = self.truth_dedupe.lock().unwrap_or_else(|e| e.into_inner()).claim(id);
            if !fresh {
                ce_telemetry::counter("serve.truth_deduped").inc();
                return false;
            }
        }
        self.window(|chain| features.iter().zip(truths).for_each(|(x, &y)| chain.observe(x, y)));
        true
    }

    /// Hot reload's promotion: moves `next`'s whole chain (calibration,
    /// breakers, fallbacks) into this engine inside one window. The truth-ID
    /// memory stays, so a replayed truth post is still recognised after a reload.
    pub(crate) fn replace(&self, next: ServeEngine<M, S>) {
        let chain = next.chain.into_inner().unwrap_or_else(|e| e.into_inner());
        // Returning the old chain drops it after the window, off the lock.
        self.window(|current| std::mem::replace(current, chain));
    }

    /// Serving mode of the wrapped [`crate::conformal::PiService`], as
    /// published by the last observation; takes no lock.
    pub fn mode(&self) -> ServiceMode {
        if self.drifted.load(Ordering::SeqCst) {
            ServiceMode::Drifted
        } else {
            ServiceMode::Stable
        }
    }

    /// Remediation state of the self-healing layer.
    pub fn heal_state(&self) -> HealState {
        self.chain().primary().state()
    }

    /// Total truths absorbed by the self-healing layer.
    pub fn observations(&self) -> u64 {
        self.chain().primary().observations()
    }

    /// Full-chain checkpoint: the self-healing service state plus every
    /// breaker's snapshot, so a restore resumes the *whole* serving chain.
    pub fn checkpoint(&self) -> Checkpoint {
        let chain = self.chain();
        chain.primary().checkpoint().with_breakers(chain.export_breakers())
    }

    /// Restores breaker state from a checkpoint's snapshots (the healing
    /// half is restored by constructing the engine from
    /// [`SelfHealingService::restore`]). Counts as a serving-state change:
    /// it runs inside a window, so no cached interval predates the restore.
    pub fn restore_breakers(&self, snapshots: &[BreakerSnapshot]) -> Result<(), CardEstError> {
        self.window(|chain| chain.restore_breakers(snapshots))
    }

    /// The healing layer's remediation tuning (the reload validator reuses
    /// its `epsilon` slack and `max_width_blowup` guard).
    pub fn heal_config(&self) -> HealConfig {
        self.chain().primary().heal_config()
    }

    /// The wrapped service's miscoverage target α.
    pub fn alpha(&self) -> f64 {
        self.chain().primary().service().config().alpha
    }

    /// Mirrors chain + heal state into the telemetry registry.
    pub fn publish_metrics(&self) {
        let chain = self.chain();
        chain.publish_telemetry();
        if ce_telemetry::enabled() {
            let healing = chain.primary();
            ce_telemetry::gauge("serve.heal_state").set(match healing.state() {
                HealState::Healthy => 0.0,
                HealState::Recalibrating => 1.0,
                HealState::RolledBack => 2.0,
            });
            ce_telemetry::gauge("serve.mode_drifted").set(match healing.service().mode() {
                ServiceMode::Stable => 0.0,
                ServiceMode::Drifted => 1.0,
            });
            ce_telemetry::gauge("serve.observations").set(healing.observations() as f64);
            ce_telemetry::gauge("serve.promotions").set(healing.promotion_count() as f64);
            ce_telemetry::gauge("serve.rollbacks").set(healing.rollback_count() as f64);
        }
    }
}

/// Point-in-time fingerprint of every chain breaker's state. Which
/// estimator answers a query depends only on these states (and the
/// calibration state covered by the observe window), so an unchanged
/// fingerprint across a predict batch means serving behaviour was
/// unchanged by it.
fn breaker_fingerprint<P: PiEstimator>(chain: &ResilientService<P>) -> Vec<BreakerState> {
    (0..).map_while(|position| chain.breaker_state(position)).collect()
}

/// Tuning for [`start_server`].
#[derive(Debug, Clone, Copy)]
pub struct HttpServeConfig {
    /// HTTP worker threads.
    pub workers: usize,
    /// Bounded accepted-connection queue (overflow: raw 503).
    pub conn_queue: usize,
    /// Micro-batcher admission queue capacity in queries (overflow: JSON
    /// 503 + `Retry-After`).
    pub queue_cap: usize,
    /// Maximum queries coalesced into one `predict_interval_batch` call.
    pub max_batch: usize,
    /// Batch window: how long the batcher lingers for stragglers. The
    /// default is zero: the batcher's inline fast path serves uncontended
    /// submissions on the caller's thread, and under contention queued
    /// requests coalesce naturally while the runner is busy — a measured
    /// sweep (500µs, 100µs, 0) showed no throughput gain from lingering,
    /// only added per-request latency at low concurrency.
    pub batch_window: Duration,
    /// Server read tick — only meaningful in the tick-polled fallback mode,
    /// where it quantizes shutdown/drain responsiveness (see
    /// `ce_server::ServerConfig::read_tick`). The event-driven mode reacts
    /// to readiness and deadlines exactly and ignores this.
    pub read_tick: Duration,
    /// Readiness-loop poller threads multiplexing idle keep-alive
    /// connections (see `ce_server::ServerConfig::pollers`). 1 is plenty
    /// for thousands of connections; 0 forces the tick-polled fallback.
    pub pollers: usize,
    /// Event-driven connection handling (readiness loop). Disable to force
    /// the portable tick-polled fallback.
    pub event_driven: bool,
    /// Maximum concurrently open connections in event mode (overflow is
    /// shed with a raw 503 at accept).
    pub max_conns: usize,
}

impl Default for HttpServeConfig {
    fn default() -> Self {
        HttpServeConfig {
            workers: 4,
            conn_queue: 64,
            queue_cap: 1024,
            max_batch: 64,
            batch_window: Duration::ZERO,
            read_tick: Duration::from_millis(10),
            pollers: 1,
            event_driven: true,
            max_conns: 4096,
        }
    }
}

/// A running HTTP PI server; dropping it (or calling
/// [`ServeHandle::drain`]) shuts it down gracefully.
///
/// Since the multi-tenant registry landed (DESIGN.md §15) every server —
/// including the single-engine [`start_server`] path — serves a
/// [`crate::tenant::ModelRegistry`]; the handle reaches the per-model
/// micro-batchers through the registry's control surface.
pub struct ServeHandle {
    pub(crate) server: HttpServer,
    pub(crate) registry: Arc<dyn crate::tenant::RegistryCtl>,
    pub(crate) draining: Arc<AtomicBool>,
}

impl ServeHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Connection-level counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Micro-batcher counters (admitted/shed/batches), summed over every
    /// registered model's batcher (`max_batch_seen` is the max).
    pub fn batcher_stats(&self) -> BatcherStats {
        self.registry.batcher_stats_sum()
    }

    /// Graceful drain: readiness flips to 503, the acceptor stops, in-flight
    /// requests finish (their batcher submissions included), every model's
    /// batcher flushes, and all threads join. Blocks until done; idempotent.
    pub fn drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            trace::event("drain", "serve drain requested");
        }
        self.server.shutdown();
        self.registry.shutdown_batchers();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Starts the HTTP server for a single `engine` on `listen` (e.g.
/// `127.0.0.1:0`), registered as the `default` model of a fresh
/// [`crate::tenant::ModelRegistry`] — so `POST /v1/predict` and
/// `POST /v1/predict/default` are the same engine, byte for byte. No
/// reload factory, rate limiter, or interval cache is attached; use
/// [`crate::tenant::start_registry_server`] for the full multi-tenant
/// surface.
///
/// The returned handle owns the accept/worker/batcher threads; the caller's
/// `Arc` is the served engine itself, so checkpoints are taken through it.
pub fn start_server<M, S>(
    engine: Arc<ServeEngine<M, S>>,
    listen: &str,
    config: HttpServeConfig,
) -> std::io::Result<ServeHandle>
where
    M: Regressor + Clone + Send + Sync + 'static,
    S: ScoreFunction + Clone + Send + Sync + 'static,
{
    let registry = Arc::new(crate::tenant::ModelRegistry::new(
        crate::tenant::RegistryTuning::from_http(&config),
    ));
    registry.register_shared(crate::tenant::DEFAULT_MODEL, engine);
    crate::tenant::start_registry_server(registry, listen, config)
}

/// Formats an f64 for the JSON wire: finite values use Rust's shortest
/// round-trip `Display` (bit-exact through parse), non-finite become the
/// strings `"inf"` / `"-inf"` / `"nan"` since JSON has no literal for them.
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "\"nan\"".to_string()
    } else if value > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// Inverse of [`json_f64`] over parsed values: accepts a JSON number or one
/// of the non-finite marker strings.
pub fn value_to_f64(value: &serde_json::Value) -> Result<f64, String> {
    match value {
        serde_json::Value::Num(n) => Ok(*n),
        serde_json::Value::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("not a number: `{other}`")),
        },
        _ => Err("expected number".to_string()),
    }
}

/// `text` as a quoted JSON string literal, escaped as RFC 8259 requires
/// (quotes, backslashes and control characters).
pub(crate) fn json_string(text: &str) -> String {
    serde_json::to_string(text).expect("a string always serializes")
}

pub(crate) fn json_error(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
}

/// Mirrors the server's connection/poller counters into the telemetry
/// registry (satellite of `/metrics`: the PR 7 event-loop counters —
/// `poller_wakeups`, `poller_dispatches`, the parked-connection gauge, and
/// the instantaneous dispatch depth — become scrapeable).
pub(crate) fn publish_server_stats(stats: &ServerStats) {
    if !ce_telemetry::enabled() {
        return;
    }
    ce_telemetry::gauge("serve.conns_accepted").set(stats.accepted as f64);
    ce_telemetry::gauge("serve.conns_shed").set(stats.conn_shed as f64);
    ce_telemetry::gauge("serve.conns_open").set(stats.open as f64);
    ce_telemetry::gauge("serve.requests").set(stats.requests as f64);
    ce_telemetry::gauge("serve.parse_errors").set(stats.parse_errors as f64);
    ce_telemetry::gauge("serve.buffer_allocs").set(stats.buffer_allocs as f64);
    ce_telemetry::gauge("serve.poller_wakeups").set(stats.poller_wakeups as f64);
    ce_telemetry::gauge("serve.poller_dispatches").set(stats.poller_dispatches as f64);
    ce_telemetry::gauge("serve.parked_conns").set(stats.parked as f64);
    ce_telemetry::gauge("serve.dispatch_depth").set(stats.dispatch_depth as f64);
}

/// Parses `x-ce-truth-id`: exactly 16 lowercase hex digits encoding a
/// nonzero `u64`. Anything else — wrong length, uppercase, zero — yields
/// `None` and the post proceeds *undeduplicated*: a malformed ID can only
/// cost idempotency, never reject the observation.
pub(crate) fn parse_truth_id(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    match u64::from_str_radix(text, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// A parsed predict request: feature rows plus optional truths.
pub(crate) type PredictBody = (Vec<Vec<f32>>, Option<Vec<f64>>);

/// Parses the predict request body: `{"features": [[f32...]...],
/// "truths": [f64...]?}`.
pub(crate) fn parse_predict_body(body: &[u8]) -> Result<PredictBody, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let features_value = value.field("features").map_err(|e| e.to_string())?;
    let serde_json::Value::Array(rows) = features_value else {
        return Err("`features` must be an array of arrays".to_string());
    };
    let mut features = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let serde_json::Value::Array(nums) = row else {
            return Err(format!("`features[{i}]` must be an array of numbers"));
        };
        let mut q = Vec::with_capacity(nums.len());
        for n in nums {
            q.push(value_to_f64(n).map_err(|e| format!("`features[{i}]`: {e}"))? as f32);
        }
        features.push(q);
    }
    let truths = match value.field("truths") {
        Err(_) => None,
        Ok(serde_json::Value::Array(vals)) => {
            let mut t = Vec::with_capacity(vals.len());
            for (i, v) in vals.iter().enumerate() {
                t.push(value_to_f64(v).map_err(|e| format!("`truths[{i}]`: {e}"))?);
            }
            Some(t)
        }
        Ok(_) => return Err("`truths` must be an array of numbers".to_string()),
    };
    if let Some(t) = &truths {
        if t.len() != features.len() {
            return Err(format!(
                "`truths` length {} != `features` length {}",
                t.len(),
                features.len()
            ));
        }
    }
    Ok((features, truths))
}

/// Renders a batch of interval results as the predict response body:
/// `{"mode":"…","results":[{"lo":…,"hi":…}|{"error":"…"}…]}`. The byte
/// layout is part of the determinism contract — the interval cache stores
/// these bodies verbatim and the bit-audits compare them on the wire.
pub(crate) fn render_predict_body(
    mode: ServiceMode,
    results: &[Result<PredictionInterval, CardEstError>],
) -> String {
    let mode = match mode {
        ServiceMode::Stable => "stable",
        ServiceMode::Drifted => "drifted",
    };
    let mut body = String::with_capacity(64 + results.len() * 48);
    body.push_str("{\"mode\":\"");
    body.push_str(mode);
    body.push_str("\",\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match result {
            Ok(iv) => {
                body.push_str("{\"lo\":");
                body.push_str(&json_f64(iv.lo));
                body.push_str(",\"hi\":");
                body.push_str(&json_f64(iv.hi));
                body.push('}');
            }
            Err(e) => {
                body.push_str("{\"error\":");
                body.push_str(&json_string(&e.to_string()));
                body.push('}');
            }
        }
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_round_trips_every_class() {
        for v in [0.0, -0.0, 1.5, -2.25, 1e-300, 1e300, f64::MIN_POSITIVE, f64::MAX] {
            let text = json_f64(v);
            let parsed = value_to_f64(&serde_json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip of {v}");
        }
        let inf = value_to_f64(&serde_json::parse(&json_f64(f64::INFINITY)).unwrap()).unwrap();
        assert_eq!(inf, f64::INFINITY);
        let ninf =
            value_to_f64(&serde_json::parse(&json_f64(f64::NEG_INFINITY)).unwrap()).unwrap();
        assert_eq!(ninf, f64::NEG_INFINITY);
        let nan = value_to_f64(&serde_json::parse(&json_f64(f64::NAN)).unwrap()).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn parse_predict_body_validates() {
        let (f, t) = parse_predict_body(br#"{"features":[[1.0,2.0],[3.5,4.5]]}"#).unwrap();
        assert_eq!(f, vec![vec![1.0f32, 2.0], vec![3.5, 4.5]]);
        assert!(t.is_none());
        let (f, t) =
            parse_predict_body(br#"{"features":[[1.0]],"truths":[0.25]}"#).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(t, Some(vec![0.25]));
        assert!(parse_predict_body(b"not json").is_err());
        assert!(parse_predict_body(br#"{"truths":[1.0]}"#).is_err(), "missing features");
        assert!(parse_predict_body(br#"{"features":[1.0]}"#).is_err(), "non-nested");
        assert!(
            parse_predict_body(br#"{"features":[[1.0]],"truths":[1.0,2.0]}"#).is_err(),
            "length mismatch"
        );
        assert!(parse_predict_body(br#"{"features":[["x"]]}"#).is_err(), "non-number");
    }

    #[test]
    fn parse_truth_id_accepts_only_nonzero_lowercase_hex64() {
        assert_eq!(parse_truth_id("00000000000000ff"), Some(0xff));
        assert_eq!(parse_truth_id("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse_truth_id("0000000000000000"), None, "zero is reserved");
        assert_eq!(parse_truth_id("00000000000000FF"), None, "uppercase");
        assert_eq!(parse_truth_id("ff"), None, "too short");
        assert_eq!(parse_truth_id("00000000000000ff0"), None, "too long");
        assert_eq!(parse_truth_id("00000000000000fg"), None, "non-hex");
        assert_eq!(parse_truth_id(""), None);
    }

    /// One truth costs the primary one forward pass, through the healing
    /// layer alone and through the engine, and a truth batch is one
    /// observation window: the epoch advances by exactly two.
    #[test]
    fn observe_runs_the_primary_once_per_truth() {
        use crate::conformal::{AbsoluteResidual, OnlineConformal, PiServiceConfig};
        use std::sync::atomic::AtomicUsize;
        let model = |f: &[f32]| f[0] as f64;
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let primary = move |f: &[f32]| {
            counter.fetch_add(1, Ordering::Relaxed);
            model(f)
        };
        let xs: Vec<Vec<f32>> = (0..16).map(|i| vec![i as f32 / 16.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| model(x) + 0.01).collect();
        let (config, heal) = (PiServiceConfig::default(), HealConfig::default());
        let mut healing =
            SelfHealingService::new(primary, AbsoluteResidual, &xs, &ys, config, heal);
        calls.store(0, Ordering::Relaxed);
        healing.observe(&[0.5], 0.52);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 1, "SelfHealingService::observe");
        let fallback = OnlineConformal::new(model, AbsoluteResidual, &xs, &ys, 0.1);
        let engine = ServeEngine::new(healing, vec![Box::new(fallback)], 1);
        engine.observe(&[0.5], 0.52);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 1, "ServeEngine::observe");
        assert_eq!(engine.serving_epoch(), 2);
        assert!(engine.observe_all(&xs[..3], &ys[..3], None));
        assert_eq!(calls.load(Ordering::Relaxed), 3, "ServeEngine::observe_all");
        assert_eq!(engine.serving_epoch(), 4, "one window for the whole batch");
        assert_eq!(engine.observations(), 5);
    }

    #[test]
    fn truth_dedupe_claims_once_and_evicts_fifo() {
        let mut dedupe = TruthDedupe::new();
        assert!(dedupe.claim(7));
        assert!(!dedupe.claim(7), "replay rejected");
        // Fill past capacity: the oldest id (7) falls out and can be
        // claimed again, while a recent one stays deduplicated.
        for id in 1_000..(1_000 + TruthDedupe::CAP as u64) {
            assert!(dedupe.claim(id));
        }
        assert!(dedupe.claim(7), "evicted id is claimable again");
        let recent = 1_000 + TruthDedupe::CAP as u64 - 1;
        assert!(!dedupe.claim(recent), "recent id still deduplicated");
    }
}

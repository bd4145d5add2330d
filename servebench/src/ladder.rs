//! The traced run: per-layer metrics.
//!
//! The run first drives the workload end to end, alternating untraced and
//! traced stretches of the closed loop; the gap between the two is the
//! tracing overhead. Counter deltas over that window give the batcher,
//! HTTP, cache and router counts. It then replays the workload's own
//! request stream in process, rung by rung, each call wrapped in a span:
//!
//! ```text
//! nn matmul ─▶ MSCN forward ─▶ OnlineConformal ─▶ PiService
//!   ─▶ SelfHealingService ─▶ ResilientService ─▶ ServeEngine
//! ```
//!
//! Every rung includes the one beneath it, so a rung's marginal cost is
//! its time minus the lower rung's. Reference rungs price the floors:
//! the kernel and forward pinned to one thread (`with_threads(1)`), a
//! trivial-handler HTTP server, a trivial-runner micro-batcher, and the
//! engine under one concurrent observer.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cardest::conformal::{
    AbsoluteResidual, CardEstError, OnlineConformal, PiEstimator, PiService, PiServiceConfig,
    PredictionInterval, Regressor, ResilientService, SelfHealingService,
};
use cardest::estimators::{Mscn, MscnConfig};
use cardest::nn::Matrix;
use cardest::serve::{json_f64, HttpServeConfig};
use cardest::server::{HttpClient, HttpServer, MicroBatcher, Request, Response, ServerConfig};

use crate::deploy::{registry_tuning, Deployment, Engine, Model, ALPHA};
use crate::load::{closes, Phase, WINDOW};
use crate::report::{result_line, Metrics};
use crate::trace::{iqm, iqm_ns, write_jsonl, Span, Spans};
use crate::traffic::{Req, Rng, Stream, HOT_SIZES, TRUTH_SHARE};
use crate::workload::{Counters, Quality, Traffic};
use crate::Args;

/// Batch sizes every rung is priced at.
const SIZES: [usize; 3] = [1, 8, 32];
/// Calls per rung and batch size.
const CALLS: usize = 300;
/// Alternating untraced / traced stretches of the end-to-end loop.
const E2E_STRETCHES: usize = 4;
/// Truths observed per variant by the observe probe.
const OBSERVES: usize = 300;
/// Requests per HTTP, cache and router probe.
const PROBES: usize = 300;
/// Pause between the contended probe's reads, as between served requests.
const READ_GAP: Duration = Duration::from_micros(20);

/// `SelfHealingService` behind the chain's estimator interface, held
/// directly (no lock), so the resilient rung adds only the chain.
struct Healing(SelfHealingService<Mscn, AbsoluteResidual>);

impl PiEstimator for Healing {
    fn name(&self) -> &str {
        "self-healing"
    }

    fn predict(&self, features: &[f32]) -> Result<f64, CardEstError> {
        let value = self.0.predict(features);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(CardEstError::NonFiniteScore { value, context: "model prediction" })
        }
    }

    fn interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        self.0.try_interval(features)
    }

    fn interval_batch(
        &self,
        queries: &[Vec<f32>],
    ) -> Vec<Result<PredictionInterval, CardEstError>> {
        self.0.try_interval_batch(queries)
    }

    fn observe(&mut self, features: &[f32], y_true: f64) {
        self.0.observe(features, y_true);
    }
}

/// The shapes of MSCN's four matrix products for one batch: the predicate
/// module over every predicate row, the top network over one row per query.
struct Products {
    pred_in: Matrix,
    top_in: Matrix,
}

/// MSCN's weights, at the trained model's layer widths.
struct Weights {
    pred1: Matrix,
    pred2: Matrix,
    top1: Matrix,
    top2: Matrix,
}

impl Weights {
    fn new(pred_width: usize, hidden: usize, rng: &mut Rng) -> Weights {
        let mut m = |r: usize, c: usize| {
            Matrix::from_vec(r, c, (0..r * c).map(|_| rng.unit() as f32 - 0.5).collect())
        };
        Weights {
            pred1: m(pred_width, hidden),
            pred2: m(hidden, hidden),
            top1: m(hidden + 1, hidden),
            top2: m(hidden, 1),
        }
    }

    fn forward(&self, p: &Products) -> (Matrix, Matrix) {
        let hidden = p.pred_in.matmul(&self.pred1).matmul(&self.pred2);
        let out = p.top_in.matmul(&self.top1).matmul(&self.top2);
        (hidden, out)
    }

    /// Floating-point operations of one [`Weights::forward`].
    fn flops(&self, p: &Products) -> f64 {
        let mm = |a: &Matrix, b: &Matrix| 2.0 * (a.rows() * a.cols() * b.cols()) as f64;
        let (rows, queries) = (p.pred_in.rows() as f64, p.top_in.rows() as f64);
        mm(&p.pred_in, &self.pred1)
            + rows * 2.0 * (self.pred2.rows() * self.pred2.cols()) as f64
            + mm(&p.top_in, &self.top1)
            + queries * 2.0 * (self.top2.rows() * self.top2.cols()) as f64
    }
}

/// Predicate rows of one encoded query: its active column blocks.
fn predicates(query: &[f32], arity: usize) -> usize {
    let block = query.len() / arity;
    (0..arity).filter(|c| query[c * block] >= 0.5).count()
}

/// The in-process serving stack, one rung per layer.
struct Rungs {
    mscn: Mscn,
    online: OnlineConformal<Mscn, AbsoluteResidual>,
    service: PiService<Mscn, AbsoluteResidual>,
    healing: SelfHealingService<Mscn, AbsoluteResidual>,
    resilient: ResilientService,
    engine: Engine,
}

impl Rungs {
    fn new(model: &Model) -> Rungs {
        let config = PiServiceConfig { alpha: ALPHA, ..Default::default() };
        let resilient = ResilientService::new(Box::new(Healing(model.healing())))
            .with_expected_dims(model.dims)
            .with_conservative_floor(true)
            .with_fallback(Box::new(model.fallback()));
        Rungs {
            mscn: model.mscn.clone(),
            online: OnlineConformal::new(
                model.mscn.clone(),
                AbsoluteResidual,
                &model.calib.x,
                &model.calib.y,
                ALPHA,
            ),
            service: PiService::new(
                model.mscn.clone(),
                AbsoluteResidual,
                &model.calib.x,
                &model.calib.y,
                config,
            ),
            healing: model.healing(),
            resilient,
            engine: model.engine(),
        }
    }
}

/// The queries of `reqs`, in stream order.
fn queries_of(traffic: &Traffic, reqs: &[Req]) -> Vec<Vec<f32>> {
    reqs.iter()
        .flat_map(|r| r.idx.iter().map(|&i| traffic.pool.set.x[i as usize].clone()))
        .collect()
}

/// The request stream's next requests, until they hold `queries` queries.
fn next_requests(stream: &mut Stream, queries: usize) -> Vec<Req> {
    let mut reqs = Vec::new();
    let mut n = 0;
    while n < queries {
        let r = stream.next();
        n += r.idx.len();
        reqs.push(r);
    }
    reqs
}

/// Round trip of posting each of `bodies` to `addr`, in µs (interquartile
/// mean).
fn round_trip_us(addr: SocketAddr, bodies: &[Vec<u8>]) -> f64 {
    let mut client = HttpClient::connect(addr).expect("connect probe client");
    let mut times = Vec::with_capacity(bodies.len());
    for body in bodies {
        let t0 = Instant::now();
        let resp = client.post("/v1/predict", body).expect("probe POST");
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(resp.status, 200, "probe answered {}", resp.status);
        if closes(&resp) {
            client = HttpClient::connect(addr).expect("reconnect probe client");
        }
    }
    iqm(times)
}

/// Runs the traced run and returns the result line.
pub fn run(args: &Args, deployment: &Deployment, traffic: &Traffic) -> String {
    let origin = Instant::now();
    let mut m = Metrics::default();
    let mut spans: Vec<Span> = Vec::new();

    // --- end to end: untraced and traced stretches, counters around them.
    let before = Counters::read(deployment);
    let warm = traffic.warm_up(deployment);
    let e2e_start = Counters::read(deployment);
    let stretch = (Duration::from_secs(args.seconds).as_nanos()
        / (E2E_STRETCHES as u128 * WINDOW.as_nanos()))
    .max(1) as usize;
    let mut stretches: Vec<(bool, Phase)> = Vec::new();
    for i in 0..E2E_STRETCHES {
        let traced = i % 2 == 1;
        let phase = traffic.client(deployment, traced).run(&traffic.stream, stretch);
        stretches.push((traced, phase));
    }
    let after = Counters::read(deployment);
    let qps_of = |traced: bool| {
        let (answered, secs) = stretches
            .iter()
            .filter(|(t, _)| *t == traced)
            .fold((0, 0.0), |(n, s), (_, p)| (n + p.answered, s + p.elapsed.as_secs_f64()));
        answered as f64 / secs
    };
    let (untraced_qps, traced_qps) = (qps_of(false), qps_of(true));
    m.put("trace.overhead_pct", (untraced_qps - traced_qps) / untraced_qps * 100.0, "%");

    let e2e: Vec<&Phase> = stretches.iter().map(|(_, p)| p).collect();
    let quality = Quality::of_phases(traffic, &e2e);
    let mut phases: Vec<(&str, &Phase)> = warm.iter().map(|p| ("warm-up", p)).collect();
    for (traced, p) in &stretches {
        phases.push((if *traced { "traced" } else { "untraced" }, p));
    }
    let verdict = crate::verdict(traffic, deployment, &phases, &before, &quality);
    for (_, p) in &stretches {
        spans.extend(p.spans.iter().cloned());
    }

    // Counter deltas over the end-to-end stretches.
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let batches = d(e2e_start.batcher.batches, after.batcher.batches);
    let admitted = d(e2e_start.batcher.admitted, after.batcher.admitted);
    m.put("batch.mean_size", if batches > 0.0 { admitted / batches } else { 0.0 }, "queries");
    m.put("batch.shed", d(e2e_start.batcher.shed, after.batcher.shed), "count");
    // Queries that reached inference per client request: near zero when
    // the cache answers, the request size when it never does.
    let sent: u64 = stretches.iter().map(|(_, p)| p.tally.sent).sum();
    m.put("estimators.queries_per_request", admitted / sent as f64, "queries");
    m.put("http.requests", d(e2e_start.front.requests, after.front.requests), "count");
    m.put("http.connections", d(e2e_start.front.accepted, after.front.accepted), "count");
    m.put("http.parse_errors", d(e2e_start.front.parse_errors, after.front.parse_errors), "count");
    let hits = d(e2e_start.cache.hits, after.cache.hits);
    let misses = d(e2e_start.cache.misses, after.cache.misses);
    m.put(
        "tenant.cache_hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "fraction",
    );
    m.put("tenant.cache_evictions", d(e2e_start.cache.evictions, after.cache.evictions), "count");
    m.put(
        "tenant.cache_invalidations",
        d(e2e_start.cache.invalidations, after.cache.invalidations),
        "count",
    );
    m.put(
        "router.truth_replicated",
        d(e2e_start.router.truth_replicated, after.router.truth_replicated),
        "count",
    );
    m.put("router.truth_lag", d(e2e_start.truth_lag, after.truth_lag), "count");
    m.put("router.leg_errors", d(e2e_start.router.leg_errors, after.router.leg_errors), "count");

    // --- the workload's own stream, replayed in process.
    let reqs = {
        let mut stream = traffic.stream.lock().expect("stream lock poisoned");
        next_requests(&mut stream, CALLS * SIZES[SIZES.len() - 1])
    };
    let queries = queries_of(traffic, &reqs);
    let bodies: Vec<Vec<u8>> = reqs.iter().map(|r| traffic.body(r)).collect();
    let mut ladder = Spans::new(origin, 100);

    // codec: decode each body, encode each answer.
    for (n, (req, body)) in reqs.iter().zip(&bodies).enumerate() {
        ladder.set_request(n as u64);
        let text = std::str::from_utf8(body).expect("bodies are UTF-8");
        let parsed =
            ladder.time("codec.parse", req.idx.len() as u32, None, || serde_json::parse(text));
        assert!(parsed.is_ok(), "a generated body failed to parse");
        let encoded = ladder.time("codec.encode", req.idx.len() as u32, None, || {
            let mut out = String::from("{\"mode\":\"stable\",\"results\":[");
            for (k, &i) in req.idx.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let (lo, hi) = traffic.reference[i as usize];
                out.push_str("{\"lo\":");
                out.push_str(&json_f64(lo));
                out.push_str(",\"hi\":");
                out.push_str(&json_f64(hi));
                out.push('}');
            }
            out.push_str("]}");
            out
        });
        std::hint::black_box(encoded);
    }
    let per_query = |name: &str, spans: &[Span]| {
        iqm(spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / f64::from(s.batch.max(1)))
            .collect())
    };

    // batch: the micro-batcher with a runner that does nothing.
    let batcher =
        MicroBatcher::new(registry_tuning().batcher, |items: Vec<Vec<f32>>| vec![(); items.len()]);
    for (n, req) in reqs.iter().enumerate() {
        ladder.set_request(n as u64);
        let items: Vec<Vec<f32>> =
            req.idx.iter().map(|&i| traffic.pool.set.x[i as usize].clone()).collect();
        let out =
            ladder.time("batch.submit", req.idx.len() as u32, None, || batcher.submit_all(items));
        assert!(out.is_ok(), "the trivial batcher shed a request");
    }
    batcher.shutdown();

    // nn → estimators → conformal → serve, every rung on every batch.
    let model = &deployment.model;
    let mut rungs = Rungs::new(model);
    let arity = model.table.schema().arity();
    let hidden = MscnConfig::default().hidden;
    let mut rng = Rng::new(args.seed);
    let weights = Weights::new(arity + 3, hidden, &mut rng);
    let mut flops = 0.0;
    let mut flop_queries = 0usize;
    for call in 0..CALLS {
        for &b in &SIZES {
            let batch = &queries[call * b..(call + 1) * b];
            let rows: usize = batch.iter().map(|q| predicates(q, arity)).sum();
            let products = Products {
                pred_in: Matrix::from_vec(
                    rows,
                    arity + 3,
                    (0..rows * (arity + 3)).map(|_| rng.unit() as f32).collect(),
                ),
                top_in: Matrix::from_vec(
                    b,
                    hidden + 1,
                    (0..b * (hidden + 1)).map(|_| rng.unit() as f32).collect(),
                ),
            };
            if b == 8 {
                flops += weights.flops(&products);
                flop_queries += b;
            }
            ladder.set_request(call as u64);
            let bb = b as u32;
            let batch_span = ladder.open("ladder.batch", bb, None);
            let parent = Some(batch_span);
            std::hint::black_box(
                ladder.time("nn.matmul", bb, parent, || weights.forward(&products)),
            );
            std::hint::black_box(ladder.time("nn.matmul_inline", bb, parent, || {
                ce_parallel::with_threads(1, || weights.forward(&products))
            }));
            std::hint::black_box(
                ladder.time("estimators.mscn_forward", bb, parent, || {
                    rungs.mscn.predict_batch(batch)
                }),
            );
            std::hint::black_box(ladder.time("estimators.mscn_forward_inline", bb, parent, || {
                ce_parallel::with_threads(1, || rungs.mscn.predict_batch(batch))
            }));
            std::hint::black_box(
                ladder.time("conformal.online", bb, parent, || {
                    rungs.online.try_interval_batch(batch)
                }),
            );
            std::hint::black_box(
                ladder.time("conformal.service", bb, parent, || {
                    rungs.service.try_interval_batch(batch)
                }),
            );
            std::hint::black_box(
                ladder
                    .time("conformal.heal", bb, parent, || rungs.healing.try_interval_batch(batch)),
            );
            std::hint::black_box(ladder.time("conformal.resilient", bb, parent, || {
                rungs.resilient.predict_interval_batch(batch)
            }));
            std::hint::black_box(
                ladder.time("serve.predict", bb, parent, || rungs.engine.predict_batch(batch)),
            );
            ladder.close(batch_span);
        }
    }
    m.put("nn.flops_per_query", flops / flop_queries as f64, "flop");

    // conformal.observe: one truth at a time through the engine, pooled and
    // pinned to one thread, alternating.
    let observer = model.engine();
    let labeled = &traffic.pool.set;
    for k in 0..2 * OBSERVES {
        let i = k / 2 % labeled.len();
        ladder.set_request(k as u64);
        if k % 2 == 0 {
            ladder.time("conformal.observe", 1, None, || {
                observer.observe(&labeled.x[i], labeled.y[i])
            });
        } else {
            ladder.time("conformal.observe_inline", 1, None, || {
                ce_parallel::with_threads(1, || observer.observe(&labeled.x[i], labeled.y[i]))
            });
        }
    }

    // serve under one concurrent observer at `feedback`'s write share: one
    // truth per (1 − share) / share read queries. The reader pauses between
    // batches as a server does between requests, so the observer can take
    // the engine's lock.
    let contended = model.engine();
    let b8: Vec<&[Vec<f32>]> = queries.chunks(8).take(CALLS).collect();
    for (n, batch) in b8.iter().enumerate() {
        ladder.set_request(n as u64);
        std::hint::black_box(
            ladder.time("serve.predict_solo", 8, None, || contended.predict_batch(batch)),
        );
        std::thread::sleep(READ_GAP);
    }
    let read_queries = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let observed = std::thread::scope(|s| {
        let observer = s.spawn(|| {
            let mut observed = 0u64;
            while !done.load(Ordering::Relaxed) {
                let due = (read_queries.load(Ordering::Relaxed) as f64 * TRUTH_SHARE
                    / (1.0 - TRUTH_SHARE)) as u64;
                if observed < due {
                    let i = observed as usize % labeled.len();
                    contended.observe(&labeled.x[i], labeled.y[i]);
                    observed += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            observed
        });
        for (n, batch) in b8.iter().enumerate() {
            ladder.set_request(n as u64);
            std::hint::black_box(
                ladder.time("serve.predict_contended", 8, None, || contended.predict_batch(batch)),
            );
            read_queries.fetch_add(batch.len() as u64, Ordering::Relaxed);
            std::thread::sleep(READ_GAP);
        }
        done.store(true, Ordering::Relaxed);
        observer.join().expect("observer thread panicked")
    });
    eprintln!(
        "[{}] contended probe: {observed} truths observed beside {} reads",
        traffic.workload.name(),
        b8.len() * 8
    );

    let ladder_spans = ladder.into_vec();
    m.put("codec.parse_ns_per_query", per_query("codec.parse", &ladder_spans), "ns");
    m.put("codec.encode_ns_per_query", per_query("codec.encode", &ladder_spans), "ns");
    m.put("batch.submit_ns", iqm_ns(&ladder_spans, "batch.submit", None), "ns");
    for &b in &SIZES {
        let bb = b as u32;
        let at = |name: &str| iqm_ns(&ladder_spans, name, Some(bb));
        let matmul = at("nn.matmul");
        let inline = at("nn.matmul_inline");
        m.put(format!("nn.matmul_ns.b{b}"), matmul, "ns");
        m.put(format!("nn.matmul_inline_ns.b{b}"), inline, "ns");
        m.put(format!("parallel.dispatch_ns.b{b}"), matmul - inline, "ns");
        let forward = at("estimators.mscn_forward");
        m.put(format!("estimators.mscn_forward_ns.b{b}"), forward, "ns");
        m.put(
            format!("estimators.mscn_forward_inline_ns.b{b}"),
            at("estimators.mscn_forward_inline"),
            "ns",
        );
        let mut below = forward;
        for rung in ["online", "service", "heal", "resilient"] {
            let ns = at(&format!("conformal.{rung}"));
            m.put(format!("conformal.{rung}_ns.b{b}"), ns, "ns");
            m.put(format!("conformal.{rung}_marginal_ns.b{b}"), ns - below, "ns");
            below = ns;
        }
        m.put(format!("serve.predict_ns.b{b}"), at("serve.predict"), "ns");
    }
    m.put("conformal.observe_us", iqm_ns(&ladder_spans, "conformal.observe", Some(1)) / 1e3, "us");
    m.put(
        "conformal.observe_inline_us",
        iqm_ns(&ladder_spans, "conformal.observe_inline", Some(1)) / 1e3,
        "us",
    );
    let contended_ns = iqm_ns(&ladder_spans, "serve.predict_contended", Some(8));
    m.put("serve.predict_contended_ns.b8", contended_ns, "ns");
    m.put(
        "serve.lock_wait_ns",
        contended_ns - iqm_ns(&ladder_spans, "serve.predict_solo", Some(8)),
        "ns",
    );
    spans.extend(ladder_spans);

    // --- wire probes: transport floor, cache hit and miss, router hop.
    let probe_bodies: Vec<Vec<u8>> = bodies.iter().cycle().take(PROBES).cloned().collect();
    m.put("http.roundtrip_us", trivial_round_trip_us(&probe_bodies), "us");
    let (hit_us, miss_us) = cache_probe(traffic, deployment);
    m.put("tenant.hit_us", hit_us, "us");
    m.put("tenant.miss_us", miss_us, "us");
    m.put("router.hop_us", router_hop_us(traffic, deployment, &bodies), "us");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-{}.jsonl",
        traffic.workload.name(),
        args.seed
    ));
    match write_jsonl(&path, &spans) {
        Ok(()) => eprintln!(
            "[{}] {} spans written to {}",
            traffic.workload.name(),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("[{}] spans not written: {e}", traffic.workload.name()),
    }
    eprintln!(
        "[{}] tracing overhead {:.2}% ({untraced_qps:.0} q/s untraced, {traced_qps:.0} q/s traced)",
        traffic.workload.name(),
        (untraced_qps - traced_qps) / untraced_qps * 100.0
    );
    result_line(verdict.correct, verdict.attempted, verdict.failed, &m)
}

/// The transport floor: the workload's bodies posted to a server with the
/// shard's configuration and a handler that answers at once.
fn trivial_round_trip_us(bodies: &[Vec<u8>]) -> f64 {
    let config = HttpServeConfig::default();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: config.workers,
            conn_queue: config.conn_queue,
            read_tick: config.read_tick,
            pollers: config.pollers,
            event_driven: config.event_driven,
            max_conns: config.max_conns,
            ..ServerConfig::default()
        },
        Arc::new(|_: &Request| Response::json(200, "{}")),
    )
    .expect("bind the trivial server");
    let us = round_trip_us(server.local_addr(), bodies);
    server.shutdown();
    us
}

/// Posts fresh 1–4-query bodies straight to a shard twice each: the first
/// post misses the interval cache, the second hits. Returns the median
/// (hit, miss) round trips in µs, counting only posts the cache counters
/// confirm.
fn cache_probe(traffic: &Traffic, deployment: &Deployment) -> (f64, f64) {
    let shard = &deployment.shards[0];
    let addr = shard.handle.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect cache probe");
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    // Hot-set-shaped bodies (1–4 queries) from the far end of the pool,
    // which no stream has reached.
    let mut end = traffic.pool.len();
    for k in 0..PROBES {
        let n = HOT_SIZES.0 + k % (HOT_SIZES.1 - HOT_SIZES.0 + 1);
        end -= n;
        let idx: Vec<u32> = (end..end + n).map(|i| i as u32).collect();
        let body = traffic.pool.body(&idx, false);
        for want_hit in [false, true] {
            let before = shard.registry.cache().stats();
            let t0 = Instant::now();
            let resp = client.post("/v1/predict", &body).expect("cache probe POST");
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            assert_eq!(resp.status, 200, "cache probe answered {}", resp.status);
            if closes(&resp) {
                client = HttpClient::connect(addr).expect("reconnect cache probe");
            }
            let after = shard.registry.cache().stats();
            match (want_hit, after.hits > before.hits, after.misses > before.misses) {
                (true, true, _) => hits.push(us),
                (false, _, true) => misses.push(us),
                _ => {}
            }
        }
    }
    (iqm(hits), iqm(misses))
}

/// The router hop: the same cached body through the router and straight
/// to the shard that owns it, alternating. `cold` and `hot` serve without a
/// router, so one is started over their shard for the probe.
fn router_hop_us(traffic: &Traffic, deployment: &Deployment, bodies: &[Vec<u8>]) -> f64 {
    let probe_router;
    let router = match &deployment.router {
        Some(r) => r,
        None => {
            let shard = ("s0".to_string(), deployment.shards[0].handle.local_addr());
            probe_router = cardest::router::start_cluster_router(
                &[shard],
                "127.0.0.1:0",
                cardest::router::ClusterRouterConfig::default(),
            )
            .expect("bind the probe router");
            &probe_router
        }
    };
    // A truth-free body of the workload's own.
    let body = bodies
        .iter()
        .zip(0..)
        .find(|(b, _)| !b.windows(8).any(|w| w == b"\"truths\""))
        .map(|(b, _)| b.clone())
        .unwrap_or_else(|| traffic.pool.body(&[0], false));
    let signature = cardest::router::placement_signature(None, &body);
    let replicas = match deployment.router {
        Some(_) => crate::deploy::REPLICAS,
        None => 1,
    };
    let (_, owner) = router.fleet().replica_set(signature, replicas)[0].clone();
    let mut routed = HttpClient::connect(router.local_addr()).expect("connect via router");
    let mut direct = HttpClient::connect(owner).expect("connect to owner");
    // Warm the owner's cache for this body.
    assert_eq!(direct.post("/v1/predict", &body).expect("warm POST").status, 200);
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..PROBES {
        for (client, addr, out) in
            [(&mut routed, router.local_addr(), &mut via), (&mut direct, owner, &mut straight)]
        {
            let t0 = Instant::now();
            let resp = client.post("/v1/predict", &body).expect("hop probe POST");
            out.push(t0.elapsed().as_nanos() as f64 / 1e3);
            assert_eq!(resp.status, 200, "hop probe answered {}", resp.status);
            if closes(&resp) {
                *client = HttpClient::connect(addr).expect("reconnect hop probe");
            }
        }
    }
    if deployment.router.is_none() {
        router.drain();
    }
    iqm(via) - iqm(straight)
}

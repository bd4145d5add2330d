//! The closed-loop client: a few keep-alive connections, each an optimizer
//! session that sends its next request only after the previous answer.
//!
//! A connection the server closes (`Connection: close` after its keep-alive
//! cap) is reopened before the request's clock stops, so reconnects count
//! in latency. A failed request keeps no latency: it counts as missing
//! every limit. Every answer is checked as it arrives, and a connection
//! keeps only a latency per request plus what the checks need, so the
//! client's memory stays small.

use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cardest::serve::value_to_f64;
use cardest::server::{ClientResponse, HttpClient};

use crate::host;
use crate::report::median;
use crate::trace::{Span, Spans};
use crate::traffic::{Req, Stream};
use crate::workload::Traffic;

/// Keep-alive connections, one per core of the 2-core reference box.
pub const CONNECTIONS: usize = 2;

/// Throughput and latency are measured per window of this length; a run
/// reports its median window, which a short stall cannot move.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Latency recorded for a failed request: it misses every limit.
pub const FAILED: u64 = u64::MAX;

/// Byte-exact expected answers for traffic that never changes serving
/// state: each pool query's rendered `{"lo":…,"hi":…}` from a reference
/// engine. A served body equal to the expectation proves every interval in
/// it bit-identical to the reference.
pub struct Expected {
    pub fragments: Vec<Vec<u8>>,
}

impl Expected {
    pub fn body(&self, idx: &[u32]) -> Vec<u8> {
        let mut body = Vec::with_capacity(32 + idx.len() * 48);
        body.extend_from_slice(b"{\"mode\":\"stable\",\"results\":[");
        for (n, &i) in idx.iter().enumerate() {
            if n > 0 {
                body.push(b',');
            }
            body.extend_from_slice(&self.fragments[i as usize]);
        }
        body.extend_from_slice(b"]}");
        body
    }
}

/// Attempt accounting.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Answered with another status than 200 (sheds included).
    pub non_200: u64,
    /// Of those, 429 and 503 sheds.
    pub shed: u64,
    pub transport: u64,
    /// Answers that differ from the reference engine's bytes.
    pub mismatches: u64,
    /// Answers that do not parse into one interval per query.
    pub malformed: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.non_200 += o.non_200;
        self.shed += o.shed;
        self.transport += o.transport;
        self.mismatches += o.mismatches;
        self.malformed += o.malformed;
    }
}

/// An accepted truth-carrying request and the intervals it was served,
/// before the server observed its truths.
pub struct TruthPost {
    pub idx: Vec<u32>,
    pub served: Vec<(f64, f64)>,
}

/// What one phase of the loop produced.
pub struct Phase {
    pub elapsed: Duration,
    pub tally: Tally,
    /// Queries in accepted answers.
    pub answered: u64,
    /// Every request, in completion order per connection.
    pub done: Vec<Done>,
    /// Each window's length, from release to the last connection's stop.
    pub window_elapsed: Vec<Duration>,
    /// Host speed before the first window and after each window.
    pub speeds: Vec<f64>,
    /// Pool queries answered at least once.
    pub seen: Vec<bool>,
    pub truths: Vec<TruthPost>,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new(pool_len: usize) -> Phase {
        Phase {
            elapsed: Duration::ZERO,
            tally: Tally::default(),
            answered: 0,
            done: Vec::new(),
            window_elapsed: Vec::new(),
            speeds: Vec::new(),
            seen: vec![false; pool_len],
            truths: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn merge(&mut self, o: Phase) {
        self.tally.add(&o.tally);
        self.answered += o.answered;
        self.done.extend(o.done);
        for (a, b) in self.seen.iter_mut().zip(o.seen) {
            *a |= b;
        }
        self.truths.extend(o.truths);
        self.spans.extend(o.spans);
    }

    /// Throughput and latency percentiles of each window, as measured
    /// and at the reference host speed.
    pub fn windows(&self, quantiles: &[f64]) -> Vec<Window> {
        let mut by_window: Vec<Vec<u64>> = vec![Vec::new(); self.window_elapsed.len()];
        let mut answered = vec![0u64; self.window_elapsed.len()];
        for d in &self.done {
            by_window[d.window as usize].push(d.latency_ns);
            answered[d.window as usize] += u64::from(d.queries);
        }
        by_window
            .into_iter()
            .enumerate()
            .map(|(w, mut lat)| {
                lat.sort_unstable();
                // The median probe of the six window boundaries nearest this
                // window: one probe catches a moment, while the drift it
                // corrects lasts seconds.
                let near = &self.speeds[w.saturating_sub(2)..(w + 4).min(self.speeds.len())];
                let speed = median(near);
                Window {
                    qps: answered[w] as f64 / self.window_elapsed[w].as_secs_f64(),
                    latency_ns: quantiles.iter().map(|&q| percentile(&lat, q)).collect(),
                    requests: lat.len(),
                    speed,
                }
            })
            .collect()
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// The window the request ran in.
    pub window: u32,
    /// Send-to-answer time including any reconnect; [`FAILED`] for a
    /// failed request.
    pub latency_ns: u64,
    /// Queries answered (0 when failed).
    pub queries: u32,
}

/// One window of a phase.
pub struct Window {
    /// Queries answered per second, as measured.
    pub qps: f64,
    /// Latency at each asked quantile, as measured; [`FAILED`] where a
    /// failure sits.
    pub latency_ns: Vec<u64>,
    pub requests: usize,
    /// Host speed over the window (see [`crate::host`]).
    pub speed: f64,
}

impl Window {
    /// Throughput at the reference host speed.
    pub fn qps_at_reference(&self) -> f64 {
        self.qps / self.speed
    }

    /// Latency at the reference host speed, in µs; a failed request there
    /// reads as a whole window.
    pub fn latency_us_at_reference(&self, quantile: usize) -> f64 {
        match self.latency_ns[quantile] {
            FAILED => WINDOW.as_secs_f64() * 1e6,
            ns => ns as f64 / 1e3 * self.speed,
        }
    }
}

/// Inputs shared by the loop's connections.
pub struct Loop<'a> {
    pub front: SocketAddr,
    pub traffic: &'a Traffic,
    /// Record a span per request (the traced run only).
    pub trace: bool,
}

impl Loop<'_> {
    /// Runs [`CONNECTIONS`] closed-loop sessions over `stream` for
    /// `windows` windows of [`WINDOW`]. Between windows the sessions wait
    /// while the host-speed probe runs on an otherwise idle host.
    pub fn run(&self, stream: &Mutex<Stream>, windows: usize) -> Phase {
        let start = Instant::now();
        let gate = Barrier::new(CONNECTIONS + 1);
        let mut speeds = vec![host::speed()];
        let mut window_elapsed = Vec::with_capacity(windows);
        let sessions: Vec<Phase> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    let gate = &gate;
                    s.spawn(move || {
                        let mut client = None;
                        let mut phase = Phase::new(self.traffic.pool.len());
                        let mut spans = Spans::new(start, conn as u64);
                        let mut n = 0;
                        for w in 0..windows as u32 {
                            gate.wait();
                            let deadline = Instant::now() + WINDOW;
                            while Instant::now() < deadline {
                                let req = stream.lock().expect("stream lock poisoned").next();
                                spans.set_request(n);
                                self.exchange(&mut client, &req, &mut phase, &mut spans, w);
                                n += 1;
                            }
                            gate.wait();
                        }
                        phase.spans = spans.into_vec();
                        phase
                    })
                })
                .collect();
            for _ in 0..windows {
                let t0 = Instant::now();
                gate.wait();
                gate.wait();
                window_elapsed.push(t0.elapsed());
                speeds.push(host::speed());
            }
            workers.into_iter().map(|w| w.join().expect("client session panicked")).collect()
        });
        let mut phase = Phase::new(self.traffic.pool.len());
        for s in sessions {
            phase.merge(s);
        }
        phase.window_elapsed = window_elapsed;
        phase.speeds = speeds;
        phase.elapsed = start.elapsed();
        phase
    }

    /// Sends every request of `reqs` once, in order, on one connection.
    pub fn replay(&self, reqs: &[Req]) -> Phase {
        let start = Instant::now();
        let mut client = None;
        let mut phase = Phase::new(self.traffic.pool.len());
        let mut spans = Spans::new(start, 0);
        for (n, req) in reqs.iter().enumerate() {
            spans.set_request(n as u64);
            self.exchange(&mut client, req, &mut phase, &mut spans, 0);
        }
        phase.spans = spans.into_vec();
        phase.elapsed = start.elapsed();
        phase
    }

    /// One request: send, time, check, account.
    fn exchange(
        &self,
        client: &mut Option<HttpClient>,
        req: &Req,
        phase: &mut Phase,
        spans: &mut Spans,
        window: u32,
    ) {
        let body = self.traffic.body(req);
        let span = self.trace.then(|| spans.open("client.request", req.idx.len() as u32, None));
        let t0 = Instant::now();
        let result = post(client, self.front, &body);
        let latency = t0.elapsed().as_nanos().min(u128::from(FAILED - 1)) as u64;
        if let Some(span) = span {
            spans.close(span);
        }
        let t = &mut phase.tally;
        t.sent += 1;
        let accepted = match result {
            Err(_) => {
                t.transport += 1;
                false
            }
            Ok(resp) if resp.status != 200 => {
                t.non_200 += 1;
                t.shed += u64::from(matches!(resp.status, 429 | 503));
                false
            }
            Ok(resp) => match &self.traffic.expected {
                Some(expected) => {
                    let same = resp.body == expected.body(&req.idx);
                    t.mismatches += u64::from(!same);
                    same
                }
                None => match parse_intervals(&resp.body, req.idx.len()) {
                    None => {
                        t.malformed += 1;
                        false
                    }
                    Some(served) => {
                        if req.truths {
                            phase.truths.push(TruthPost { idx: req.idx.clone(), served });
                        }
                        true
                    }
                },
            },
        };
        if accepted {
            phase.tally.ok += 1;
            phase.answered += req.idx.len() as u64;
            for &i in &req.idx {
                phase.seen[i as usize] = true;
            }
        }
        phase.done.push(if accepted {
            Done { window, latency_ns: latency, queries: req.idx.len() as u32 }
        } else {
            Done { window, latency_ns: FAILED, queries: 0 }
        });
    }
}

/// One POST over the session's keep-alive connection, (re)connecting as
/// needed; a server-side close is followed by an immediate reconnect.
fn post(
    client: &mut Option<HttpClient>,
    front: SocketAddr,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    if client.is_none() {
        *client = Some(HttpClient::connect(front)?);
    }
    let conn = client.as_mut().expect("connected above");
    match conn.post("/v1/predict", body) {
        Ok(resp) => {
            if closes(&resp) {
                *client = HttpClient::connect(front).ok();
            }
            Ok(resp)
        }
        Err(e) => {
            *client = None;
            Err(e)
        }
    }
}

/// Whether the server ends the keep-alive connection after this answer.
pub fn closes(resp: &ClientResponse) -> bool {
    resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Parses a predict answer into `(lo, hi)` per query; `None` unless every
/// one of the `n` results is an interval.
pub fn parse_intervals(body: &[u8], n: usize) -> Option<Vec<(f64, f64)>> {
    let value = serde_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let serde_json::Value::Array(results) = value.field("results").ok()? else {
        return None;
    };
    if results.len() != n {
        return None;
    }
    results
        .iter()
        .map(|r| {
            Some((value_to_f64(r.field("lo").ok()?).ok()?, value_to_f64(r.field("hi").ok()?).ok()?))
        })
        .collect()
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

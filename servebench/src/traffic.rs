//! Seeded traffic: the three workloads' request streams.
//!
//! Everything here is a pure function of `--seed`. The labeled query pool
//! comes from the deployment's own generator, each request is a list of
//! pool indices, and a body is the concatenation of pre-rendered feature
//! fragments, so building one costs a copy and not a float formatter.

use std::collections::{HashMap, HashSet};

use cardest::pipeline::EncodedSet;
use cardest::serve::json_f64;

/// Inclusive query-count range of a `cold` request (optimizer sub-plan
/// batches).
pub const COLD_SIZES: (usize, usize) = (1, 32);
/// Distinct bodies in the `hot` set: half the shard's cache.
pub const HOT_BODIES: usize = 512;
/// Inclusive query-count range of a `hot` request.
pub const HOT_SIZES: (usize, usize) = (1, 4);
/// Zipf exponent over the `hot` set's popularity ranks.
pub const ZIPF_S: f64 = 0.8;
/// Share of `feedback` requests that carry fresh truths.
pub const TRUTH_SHARE: f64 = 0.1;

/// The three traffic mixes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Cold,
    Hot,
    Feedback,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold" => Some(Workload::Cold),
            "hot" => Some(Workload::Hot),
            "feedback" => Some(Workload::Feedback),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Hot => "hot",
            Workload::Feedback => "feedback",
        }
    }
}

/// SplitMix64: a tiny, well-mixed seeded generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the inclusive range.
    pub fn between(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The labeled pool and each query's pre-rendered JSON fragments.
pub struct Pool {
    pub set: EncodedSet,
    /// Each query's first position in the pool: queries that recur across
    /// the pool's workloads share it.
    pub identity: Vec<u32>,
    /// `[f,f,…]`: the query's feature row.
    features: Vec<String>,
    /// The query's truth.
    truths: Vec<String>,
}

impl Pool {
    pub fn new(set: EncodedSet) -> Pool {
        let features = set
            .x
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|v| json_f64(f64::from(*v))).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let truths = set.y.iter().map(|y| json_f64(*y)).collect();
        let mut first = HashMap::new();
        let identity = set
            .x
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                *first.entry(bits).or_insert(i as u32)
            })
            .collect();
        Pool { set, identity, features, truths }
    }

    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// The predict body for `idx`, with truths when asked.
    pub fn body(&self, idx: &[u32], with_truths: bool) -> Vec<u8> {
        let mut body = Vec::with_capacity(32 + idx.len() * 400);
        body.extend_from_slice(b"{\"features\":[");
        for (n, &i) in idx.iter().enumerate() {
            if n > 0 {
                body.push(b',');
            }
            body.extend_from_slice(self.features[i as usize].as_bytes());
        }
        body.push(b']');
        if with_truths {
            body.extend_from_slice(b",\"truths\":[");
            for (n, &i) in idx.iter().enumerate() {
                if n > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(self.truths[i as usize].as_bytes());
            }
            body.push(b']');
        }
        body.push(b'}');
        body
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Req {
    /// Pool indices of the queries, in body order.
    pub idx: Vec<u32>,
    /// The body carries the queries' truths.
    pub truths: bool,
    /// Index into the `hot` set, when the request is one of its bodies.
    pub hot: Option<usize>,
}

/// `n` distinct pool indices drawn uniformly from `0..len`.
fn distinct(rng: &mut Rng, n: usize, len: usize) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(n);
    while out.len() < n {
        let i = rng.below(len) as u32;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// A workload's request stream. Each draw is a pure function of the seed
/// and the draw's position, so the clients send a prefix of one fixed
/// sequence however their requests interleave.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    /// `cold`: every body drawn so far, as its list of query identities.
    seen: HashSet<Vec<u32>>,
    /// The pool's query identities (see [`Pool::identity`]).
    identity: Vec<u32>,
    /// `hot` / `feedback`: the hot set and its Zipf CDF.
    hot_set: Vec<Vec<u32>>,
    zipf_cdf: Vec<f64>,
    /// End of the hot set's queries in the pool.
    hot_end: usize,
    /// `feedback`: next never-posted pool index for fresh truths.
    next_fresh: usize,
    pool_len: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, pool: &Pool) -> Stream {
        let pool_len = pool.len();
        let rng = Rng::new(seed ^ STREAM_TAG);
        let (hot_set, zipf_cdf, next_fresh) = match workload {
            Workload::Cold => (Vec::new(), Vec::new(), pool_len),
            Workload::Hot | Workload::Feedback => {
                // The hot set takes disjoint queries from the front of the
                // pool; the rest is the never-posted supply of fresh truths.
                // Sizes cycle down the popularity ranks, so the mix of
                // sizes at every popularity level is the same for every
                // seed; the seed picks the queries.
                let mut next = 0;
                let span = HOT_SIZES.1 - HOT_SIZES.0 + 1;
                let set: Vec<Vec<u32>> = (0..HOT_BODIES)
                    .map(|rank| {
                        let n = HOT_SIZES.0 + rank % span;
                        next += n;
                        (next - n..next).map(|i| i as u32).collect()
                    })
                    .collect();
                assert!(next < pool_len, "the pool cannot hold the hot set");
                (set, zipf_cdf(HOT_BODIES, ZIPF_S), next)
            }
        };
        let hot_end = next_fresh;
        Stream {
            workload,
            rng,
            seen: HashSet::new(),
            identity: pool.identity.clone(),
            hot_set,
            zipf_cdf,
            hot_end,
            next_fresh,
            pool_len,
        }
    }

    /// The `hot` set, in popularity-rank order.
    pub fn hot_set(&self) -> &[Vec<u32>] {
        &self.hot_set
    }

    /// Fresh truths left before the `feedback` supply wraps to reused ones.
    pub fn fresh_left(&self) -> usize {
        self.pool_len.saturating_sub(self.next_fresh)
    }

    pub fn next(&mut self) -> Req {
        match self.workload {
            Workload::Cold => loop {
                let n = self.rng.between(COLD_SIZES);
                let idx = distinct(&mut self.rng, n, self.pool_len);
                if self.seen.insert(idx.iter().map(|&i| self.identity[i as usize]).collect()) {
                    return Req { idx, truths: false, hot: None };
                }
            },
            Workload::Hot => self.hot_read(),
            Workload::Feedback => {
                if self.rng.unit() < TRUTH_SHARE {
                    let n = self.rng.between(HOT_SIZES);
                    if self.next_fresh + n > self.pool_len {
                        self.next_fresh = self.hot_end;
                    }
                    let idx = (self.next_fresh..self.next_fresh + n).map(|i| i as u32).collect();
                    self.next_fresh += n;
                    Req { idx, truths: true, hot: None }
                } else {
                    self.hot_read()
                }
            }
        }
    }

    fn hot_read(&mut self) -> Req {
        let u = self.rng.unit();
        let rank = self.zipf_cdf.partition_point(|&c| c <= u).min(self.hot_set.len() - 1);
        Req { idx: self.hot_set[rank].clone(), truths: false, hot: Some(rank) }
    }
}

/// Mixed into the seed so the request stream and the query pool draw from
/// unrelated sequences.
const STREAM_TAG: u64 = 0x7a11_c0de_5eed_0001;

/// Cumulative Zipf(`s`) probabilities over ranks `1..=n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

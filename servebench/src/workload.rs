//! One workload against a running deployment: its traffic, warm-up, and
//! the output checks.

use std::sync::Mutex;

use cardest::serve::json_f64;
use cardest::server::{BatcherStats, RouterStats, ServerStats};
use cardest::tenant::CacheStats;

use crate::deploy::{Deployment, Engine, Topology, ALPHA, QUERIES, REPLICAS};
use crate::load::{Expected, Loop, Phase, TruthPost};
use crate::report::{coverage_lower_bound, median};
use crate::traffic::{Pool, Req, Stream, Workload};

/// Closed-loop windows of warm-up before timing: spins up the server,
/// batcher and pool threads.
pub const WARMUP_WINDOWS: usize = 1;

/// Calibration-sized workloads in the labeled traffic pool: enough for
/// `cold`'s distinct bodies, the `hot` set, and `feedback`'s fresh truths
/// over a 20 s run with room to spare.
fn pool_chunks(workload: Workload) -> usize {
    match workload {
        Workload::Cold => 4,
        Workload::Hot => 1,
        Workload::Feedback => 8,
    }
}

/// Mixed into the seed for the labeled pool's generator.
const POOL_TAG: u64 = 0x9001_5eed_0000_0002;

impl Workload {
    pub fn topology(self) -> Topology {
        match self {
            Workload::Cold | Workload::Hot => Topology::Direct,
            Workload::Feedback => Topology::Routed,
        }
    }
}

/// The traffic of one run, made from the seed.
pub struct Traffic {
    pub workload: Workload,
    pub pool: Pool,
    pub stream: Mutex<Stream>,
    pub hot_bodies: Vec<Vec<u8>>,
    /// The reference engine's interval for every pool query.
    pub reference: Vec<(f64, f64)>,
    /// Byte-exact expected answers (`cold` and `hot`, whose traffic never
    /// changes serving state).
    pub expected: Option<Expected>,
}

impl Traffic {
    pub fn new(
        workload: Workload,
        seed: u64,
        deployment: &Deployment,
        reference: &Engine,
    ) -> Traffic {
        let pool = Pool::new(deployment.model.labeled_pool(pool_chunks(workload), seed ^ POOL_TAG));
        let stream = Stream::new(workload, seed, &pool);
        let hot_bodies = stream.hot_set().iter().map(|idx| pool.body(idx, false)).collect();
        let reference: Vec<(f64, f64)> = reference
            .predict_batch(&pool.set.x)
            .into_iter()
            .map(|r| {
                let iv = r.expect("the reference engine serves every pool query");
                (iv.lo, iv.hi)
            })
            .collect();
        let expected = (workload != Workload::Feedback).then(|| Expected {
            fragments: reference
                .iter()
                .map(|&(lo, hi)| {
                    format!("{{\"lo\":{},\"hi\":{}}}", json_f64(lo), json_f64(hi)).into_bytes()
                })
                .collect(),
        });
        Traffic { workload, pool, stream: Mutex::new(stream), hot_bodies, reference, expected }
    }

    pub fn client<'a>(&'a self, deployment: &Deployment, trace: bool) -> Loop<'a> {
        Loop { front: deployment.front, traffic: self, trace }
    }

    /// The body `req` sends.
    pub fn body(&self, req: &Req) -> Vec<u8> {
        match req.hot {
            Some(rank) => self.hot_bodies[rank].clone(),
            None => self.pool.body(&req.idx, req.truths),
        }
    }

    /// Fills the `hot` working set (one pass over it in rank order), then
    /// runs the closed loop for [`WARMUP_WINDOWS`].
    pub fn warm_up(&self, deployment: &Deployment) -> Vec<Phase> {
        let client = self.client(deployment, false);
        let hot: Vec<Req> = {
            let stream = self.stream.lock().expect("stream lock poisoned");
            let set = stream.hot_set();
            (0..set.len())
                .map(|rank| Req { idx: set[rank].clone(), truths: false, hot: Some(rank) })
                .collect()
        };
        let mut phases = Vec::new();
        if !hot.is_empty() {
            phases.push(client.replay(&hot));
        }
        phases.push(client.run(&self.stream, WARMUP_WINDOWS));
        phases
    }
}

/// Coverage and width over a set of served intervals.
pub struct Quality {
    /// Intervals the figures are over.
    pub n: u64,
    pub coverage: f64,
    pub median_width: f64,
    /// The least coverage a one-sided binomial test accepts.
    pub bound: f64,
}

impl Quality {
    fn of(intervals: &[((f64, f64), f64)]) -> Quality {
        let n = intervals.len() as u64;
        assert!(n > 0, "no served intervals to judge");
        let covered = intervals.iter().filter(|((lo, hi), y)| lo <= y && y <= hi).count();
        let widths: Vec<f64> = intervals.iter().map(|((lo, hi), _)| hi - lo).collect();
        // One calibration set sets every interval's threshold, so coverage
        // events are not independent draws: the calibration's own binomial
        // spread, at its size plus two, adds to the test's.
        let calib = (QUERIES / 3 + 2) as f64;
        let n_eff = (1.0 / (1.0 / n as f64 + 1.0 / calib)) as u64;
        Quality {
            n,
            coverage: covered as f64 / n as f64,
            median_width: median(&widths),
            bound: coverage_lower_bound(n_eff, ALPHA),
        }
    }

    pub fn holds(&self) -> bool {
        self.coverage >= self.bound
    }

    /// Quality of what `phases` served. `cold` and `hot` count every
    /// distinct pool query once, with its interval (bit-identical to the
    /// reference by the audit): a cached answer repeats the same interval,
    /// so repeats add nothing to what coverage can tell. `feedback` is
    /// prequential: each truth-carrying request's intervals were served
    /// before the server observed those truths.
    pub fn of_phases(traffic: &Traffic, phases: &[&Phase]) -> Quality {
        let intervals: Vec<_> = match traffic.workload {
            Workload::Cold | Workload::Hot => (0..traffic.pool.len())
                .filter(|&i| phases.iter().any(|p| p.seen[i]))
                .map(|i| (traffic.reference[i], traffic.pool.set.y[i]))
                .collect(),
            Workload::Feedback => phases
                .iter()
                .flat_map(|p| &p.truths)
                .flat_map(|t| t.served.iter().zip(&t.idx))
                .map(|(&iv, &i)| (iv, traffic.pool.set.y[i as usize]))
                .collect(),
        };
        Quality::of(&intervals)
    }
}

/// Counters read from the deployment before and after a stretch of
/// traffic.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub observations: [u64; REPLICAS],
    pub cache: CacheStats,
    pub batcher: BatcherStats,
    pub front: ServerStats,
    pub router: RouterStats,
    pub truth_lag: u64,
}

impl Counters {
    pub fn read(deployment: &Deployment) -> Counters {
        let mut c = Counters::default();
        for (i, shard) in deployment.shards.iter().enumerate() {
            c.observations[i] = shard.engine.observations();
            let cache = shard.registry.cache().stats();
            c.cache.hits += cache.hits;
            c.cache.misses += cache.misses;
            c.cache.evictions += cache.evictions;
            c.cache.invalidations += cache.invalidations;
            c.cache.entries += cache.entries;
            let b = shard.handle.batcher_stats();
            c.batcher.admitted += b.admitted;
            c.batcher.shed += b.shed;
            c.batcher.batches += b.batches;
            c.batcher.max_batch_seen = c.batcher.max_batch_seen.max(b.max_batch_seen);
        }
        match &deployment.router {
            Some(router) => {
                c.front = router.server_stats();
                c.router = router.router_stats();
                c.truth_lag = router.truth_lag().iter().map(|(_, lag)| lag).sum();
            }
            None => c.front = deployment.shards[0].handle.server_stats(),
        }
        c
    }
}

/// `feedback`'s truth ledger: every accepted truth reached every replica of
/// its key, on the predict leg or the backup fan-out. Returns the number of
/// truths (and fan-out legs) unaccounted for.
pub fn truth_loss(
    deployment: &Deployment,
    pool: &Pool,
    before: &Counters,
    after: &Counters,
    posts: &[&TruthPost],
) -> u64 {
    let router = deployment.router.as_ref().expect("feedback runs behind the router");
    let mut expected = [0u64; REPLICAS];
    for post in posts {
        let signature = cardest::router::placement_signature(None, &pool.body(&post.idx, true));
        for (name, _) in router.fleet().replica_set(signature, REPLICAS) {
            let shard: usize = name[1..].parse().expect("shards are named s<index>");
            expected[shard] += post.idx.len() as u64;
        }
    }
    // Each accepted truth post has one leg per backup; each leg either
    // landed or sits in the lag ledger, and a lagged leg is a loss.
    let backup_legs = posts.len() as u64 * (REPLICAS as u64 - 1);
    let replicated = after.router.truth_replicated - before.router.truth_replicated;
    let lag = after.truth_lag - before.truth_lag;
    let mut lost = backup_legs.abs_diff(replicated + lag) + lag;
    for (shard, want) in expected.iter().enumerate() {
        lost += want.abs_diff(after.observations[shard] - before.observations[shard]);
    }
    lost
}

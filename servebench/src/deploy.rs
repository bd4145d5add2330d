//! The deployment under test, built the way an operator builds it: data,
//! a trained MSCN primary, the AVI fallback, conformal calibration, a
//! `ModelRegistry` with the interval cache on behind `HttpServeConfig::default()`,
//! and for the `feedback` topology two such shards behind a replicating router.
//!
//! The deployment is fixed: it is built from [`DEPLOY_SEED`] on every run.
//! The benchmark's `--seed` only shapes the traffic, so two runs differ in
//! the bodies they send and never in the system that answers them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cardest::conformal::{
    AbsoluteResidual, HealConfig, OnlineConformal, PiEstimator, PiServiceConfig, SelfHealingService,
};
use cardest::estimators::{AviModel, Mscn};
use cardest::pipeline::{train_mscn, EncodedSet, SingleTableBench, SplitSpec};
use cardest::query::{generate_workload, GeneratorConfig};
use cardest::router::{start_cluster_router, ClusterRouterConfig, ClusterRouterHandle};
use cardest::serve::{HttpServeConfig, ServeEngine, ServeHandle};
use cardest::server::{HttpClient, RouterConfig};
use cardest::storage::Table;
use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning};

use crate::traffic::{shuffle, Rng};

/// Seed of the data, the training run and the calibration split.
pub const DEPLOY_SEED: u64 = 42;
/// Rows of the synthetic DMV table.
pub const ROWS: usize = 20_000;
/// Labeled queries split into train / calibration / test thirds.
pub const QUERIES: usize = 3_000;
/// MSCN training epochs (the serving experiments' budget).
pub const EPOCHS: usize = 10;
/// Miscoverage target: intervals promise coverage of at least 1 − α.
pub const ALPHA: f64 = 0.1;
/// Interval-cache capacity per shard; the `hot` set is sized well below it.
pub const CACHE_ENTRIES: usize = 1024;
/// Replicas per key behind the router in the `feedback` topology.
pub const REPLICAS: usize = 2;

/// The serving engine every shard runs.
pub type Engine = ServeEngine<Mscn, AbsoluteResidual>;
/// The registry every shard serves.
pub type Registry = ModelRegistry<Mscn, AbsoluteResidual>;

/// Trained state shared by every engine of one set-up: the table, the
/// primary and fallback models and the calibration split.
pub struct Model {
    pub table: Table,
    pub feat: cardest::estimators::SingleTableFeaturizer,
    pub mscn: Mscn,
    pub avi: AviModel,
    pub calib: EncodedSet,
    pub dims: usize,
}

impl Model {
    /// Generates the data and workload and trains the primary.
    pub fn train() -> Model {
        let table = cardest::datagen::dmv(ROWS, DEPLOY_SEED);
        let bench = SingleTableBench::prepare(
            table,
            QUERIES,
            &GeneratorConfig::low_selectivity(),
            SplitSpec::default(),
            DEPLOY_SEED,
        );
        let mscn = train_mscn(&bench.feat, &bench.train, EPOCHS, DEPLOY_SEED);
        let avi = AviModel::build(&bench.table, sel_floor());
        let dims = bench.calib.x[0].len();
        Model { table: bench.table, feat: bench.feat, mscn, avi, calib: bench.calib, dims }
    }

    /// The AVI fallback, calibrated on the same split as the primary.
    pub fn fallback(&self) -> OnlineConformal<AviModel, AbsoluteResidual> {
        OnlineConformal::new(
            self.avi.clone(),
            AbsoluteResidual,
            &self.calib.x,
            &self.calib.y,
            ALPHA,
        )
    }

    /// The self-healing primary service, freshly calibrated.
    pub fn healing(&self) -> SelfHealingService<Mscn, AbsoluteResidual> {
        SelfHealingService::new(
            self.mscn.clone(),
            AbsoluteResidual,
            &self.calib.x,
            &self.calib.y,
            PiServiceConfig { alpha: ALPHA, ..Default::default() },
            HealConfig::default(),
        )
    }

    /// A complete serving engine: self-healing MSCN primary, AVI fallback,
    /// input sanitization and the ±∞ floor.
    pub fn engine(&self) -> Engine {
        let fallbacks: Vec<Box<dyn PiEstimator>> = vec![Box::new(self.fallback())];
        Engine::new(self.healing(), fallbacks, self.dims)
    }

    /// Labeled traffic queries from the traffic seed: `chunks` workloads
    /// made as the calibration split's parent was (the same generator, the
    /// same deduplicated size), each shuffled, so any pool query is
    /// exchangeable with a calibration query. A query can recur across
    /// chunks, as it can across the optimizer sessions they stand for.
    pub fn labeled_pool(&self, chunks: usize, seed: u64) -> EncodedSet {
        let mut rng = Rng::new(seed);
        let mut pool = EncodedSet::default();
        for _ in 0..chunks {
            let w = generate_workload(
                &self.table,
                QUERIES,
                &GeneratorConfig::low_selectivity(),
                rng.next_u64(),
            );
            let part = EncodedSet::from_workload(&self.feat, &w);
            let mut order: Vec<usize> = (0..part.len()).collect();
            shuffle(&mut rng, &mut order);
            pool.x.extend(order.iter().map(|&i| part.x[i].clone()));
            pool.y.extend(order.iter().map(|&i| part.y[i]));
        }
        pool
    }
}

/// Selectivity floor: one tuple.
pub fn sel_floor() -> f64 {
    1.0 / ROWS as f64
}

/// One HTTP shard: a registry holding one engine as the default model.
pub struct Shard {
    pub registry: Arc<Registry>,
    pub engine: Arc<Engine>,
    pub handle: ServeHandle,
}

/// The shard tuning: the interval cache on, everything else the server
/// defaults.
pub fn registry_tuning() -> RegistryTuning {
    RegistryTuning {
        cache_entries: CACHE_ENTRIES,
        ..RegistryTuning::from_http(&HttpServeConfig::default())
    }
}

fn start_shard(model: &Model) -> Shard {
    let registry = Arc::new(Registry::new(registry_tuning()));
    let entry = registry.register(cardest::tenant::DEFAULT_MODEL, model.engine());
    let handle =
        start_registry_server(Arc::clone(&registry), "127.0.0.1:0", HttpServeConfig::default())
            .expect("bind a loopback shard");
    Shard { registry, engine: entry.engine(), handle }
}

/// Which front the clients talk to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// Clients post straight to one shard.
    Direct,
    /// Clients post to a router replicating over two shards.
    Routed,
}

/// A running deployment.
pub struct Deployment {
    pub model: Model,
    pub shards: Vec<Shard>,
    pub router: Option<ClusterRouterHandle>,
    /// Where the clients connect.
    pub front: SocketAddr,
}

impl Deployment {
    /// Builds and starts everything, then waits for the front's first
    /// accepted request. Returns the deployment and its set-up time.
    pub fn start(topology: Topology) -> (Deployment, Duration) {
        let t0 = Instant::now();
        let model = Model::train();
        let (shards, router) = match topology {
            Topology::Direct => (vec![start_shard(&model)], None),
            Topology::Routed => {
                let shards: Vec<Shard> = (0..REPLICAS).map(|_| start_shard(&model)).collect();
                let names: Vec<(String, SocketAddr)> = shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("s{i}"), s.handle.local_addr()))
                    .collect();
                let config = ClusterRouterConfig {
                    router: RouterConfig { replicas: REPLICAS, ..RouterConfig::default() },
                    ..ClusterRouterConfig::default()
                };
                let router = start_cluster_router(&names, "127.0.0.1:0", config)
                    .expect("bind the loopback router");
                (shards, Some(router))
            }
        };
        let front = match &router {
            Some(r) => r.local_addr(),
            None => shards[0].handle.local_addr(),
        };
        wait_ready(front);
        let elapsed = t0.elapsed();
        (Deployment { model, shards, router, front }, elapsed)
    }

    /// Drains the router first, then every shard; hands back the model.
    pub fn stop(self) -> Model {
        if let Some(router) = &self.router {
            router.drain();
        }
        for shard in &self.shards {
            shard.handle.drain();
        }
        self.model
    }
}

/// Blocks until the front answers `GET /readyz` with `200`.
fn wait_ready(front: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ready = HttpClient::connect(front)
            .and_then(|mut c| c.get("/readyz"))
            .is_ok_and(|r| r.status == 200);
        if ready {
            return;
        }
        assert!(Instant::now() < deadline, "front {front} never became ready");
        std::thread::sleep(Duration::from_millis(1));
    }
}

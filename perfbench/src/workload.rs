//! The four workloads and their set-up: data, nets, one session thread
//! per training method, the cluster (coordinators and worker threads) and
//! the gateway.
//!
//! Every setting a figure depends on is fixed here: worker counts,
//! gateway configuration and cluster timeouts. The environment knobs the
//! program reads are cleared before set-up (see `main`).

use crate::serve::{closed_loop, CONNECTIONS};
use crate::session::{Batch, SessionThread, Step};
use skipper_bench::{DataSource, Workload, WorkloadKind};
use skipper_core::{
    run_worker, BackoffConfig, ClusterConfig, Coordinator, InferSession, Method, SkipperError,
    TcpConnector, TrainSession, WorkerOptions, WorkerReport,
};
use skipper_serve::{Gateway, GatewayConfig, ModelPool, PredictRequest, TenantConfig};
use skipper_snn::{custom_net, Adam, LifConfig, ModelConfig, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a workload's training sessions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The default single-session path (one worker).
    Inline,
    /// The sharded engine with two pool workers.
    Pool,
    /// A TCP coordinator on loopback with two worker threads.
    Cluster,
}

/// One workload. A run is a sequence of whole rounds; each round trains
/// every method once on the same batch, then sends `open` requests on an
/// open-loop schedule and `closed` requests over the closed loop.
#[derive(Debug)]
pub struct Spec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The paper pairing whose scaled defaults (T, B, C, p, trW) are used.
    pub kind: WorkloadKind,
    /// Where training runs.
    pub exec: Exec,
    /// Distinct batches, cycled round by round, so the loss of the last
    /// rounds can be compared with the first rounds on the same data.
    pub batches: usize,
    /// Open-loop requests per round.
    pub open: usize,
    /// Open-loop rate, requests per second.
    pub rate: f64,
    /// Closed-loop requests per round.
    pub closed: usize,
    /// Seconds one round takes on the reference machine (2 cores, release
    /// build). A run does a fixed number of rounds derived from
    /// `--seconds`, so every run of a workload does the same operations.
    pub round_s: f64,
}

impl Spec {
    /// Rounds of a run meant to measure for `seconds`: at least two
    /// cycles of the batches, so first and last rounds can be compared.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_s).round() as usize).max(2 * self.batches)
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "train-vgg5-pool",
        kind: WorkloadKind::Vgg5Cifar10,
        exec: Exec::Pool,
        batches: 5,
        open: 6,
        rate: 20.0,
        closed: 8,
        round_s: 1.5,
    },
    Spec {
        name: "train-nmnist-inline",
        kind: WorkloadKind::CustomNetNmnist,
        exec: Exec::Inline,
        batches: 10,
        open: 16,
        rate: 150.0,
        closed: 32,
        round_s: 0.38,
    },
    Spec {
        name: "train-nmnist-cluster",
        kind: WorkloadKind::CustomNetNmnist,
        exec: Exec::Cluster,
        batches: 10,
        open: 16,
        rate: 150.0,
        closed: 32,
        round_s: 0.36,
    },
    Spec {
        name: "serve-nmnist",
        kind: WorkloadKind::CustomNetNmnist,
        exec: Exec::Inline,
        batches: 10,
        open: 45,
        rate: 150.0,
        closed: 90,
        round_s: 0.75,
    },
];

/// Metric-name suffix of each method, in session order.
pub const METHODS: [&str; 4] = ["bptt", "ckpt", "skipper", "tbptt"];

/// The one LIF threshold of the cluster workload's net. The wire spec
/// carries a single threshold, so this net is built from a config with
/// it instead of being calibrated layer by layer. Calibration gives
/// custom-Net spike rates near 0.026 in all three layers on N-MNIST; one
/// threshold of 0.4 gives rates between 0.013 and 0.048.
const CLUSTER_THRESHOLD: f32 = 0.4;

/// The cluster workload's net config: N-MNIST custom-Net with the one
/// threshold the wire spec can carry.
fn cluster_config() -> ModelConfig {
    ModelConfig {
        lif: LifConfig {
            threshold: CLUSTER_THRESHOLD,
            ..LifConfig::default()
        },
        ..nmnist_config()
    }
}

/// Request bodies the gateway load cycles through.
const BODIES: usize = 8;

/// Learning rate of every session's Adam optimizer.
const LR: f32 = 1e-3;

/// The config `Workload::build_for_measurement` builds custom-Net for
/// N-MNIST from (16x16 polarity frames, width 0.25); checked against the
/// built net's weights at set-up.
fn nmnist_config() -> ModelConfig {
    ModelConfig {
        input_hw: 16,
        in_channels: 2,
        num_classes: 10,
        width_mult: 0.25,
        lif: LifConfig::default(),
        ..ModelConfig::default()
    }
}

/// The calibrated net over the cluster, shipped with the config it was
/// built from, beside the same net on the in-process engine; both train
/// on one fixed batch each round and their losses are compared.
pub struct ClusterCheck {
    /// Session over its own loopback cluster.
    pub cluster: SessionThread,
    /// Session on the 2-worker engine.
    pub engine: SessionThread,
    /// The batch; no seed changes it, so the check fails or passes the
    /// same way on every run.
    pub batch: Arc<Batch>,
}

/// Everything a run measures, set up and warmed.
pub struct Env {
    /// The workload.
    pub spec: &'static Spec,
    /// Horizon `T`.
    pub timesteps: usize,
    /// The four methods, in [`METHODS`] order.
    pub methods: Vec<Method>,
    /// The training split the batches come from.
    pub source: DataSource,
    /// Sample indices of each batch.
    pub batch_indices: Vec<Vec<usize>>,
    /// Poisson-encoder seed of each batch.
    pub batch_seeds: Vec<u64>,
    /// The batches, cycled by round.
    pub batches: Vec<Arc<Batch>>,
    /// The net every session starts from and the gateway serves.
    pub net: SpikingNetwork,
    /// Request bodies, and the spike trains they encode.
    pub bodies: Vec<String>,
    /// `[1, C, H, W]` timesteps of each body.
    pub body_inputs: Vec<Vec<Tensor>>,
    /// One session per method.
    pub sessions: Vec<SessionThread>,
    /// Cluster workload only: the threshold check.
    pub check: Option<ClusterCheck>,
    /// The first iteration of each session (the warm-up, on batch 0).
    pub first: Vec<Step>,
    /// The gateway's address.
    pub addr: SocketAddr,
    gateway: Option<Gateway>,
    workers: Vec<JoinHandle<Result<WorkerReport, SkipperError>>>,
}

/// Encoder seed of batch `k` under workload seed `seed`.
fn batch_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64 + 1)
}

impl Env {
    /// Build, start and warm everything `spec` needs, with inputs drawn
    /// from `seed`.
    pub fn setup(spec: &'static Spec, seed: u64) -> Result<Env, String> {
        let w = Workload::build_for_measurement(spec.kind);
        let (t, b) = (w.timesteps, w.batch);
        let methods = w.methods();
        let (net, calibrated) = match spec.exec {
            Exec::Cluster => {
                let reference = custom_net(&nmnist_config());
                let same = reference
                    .params()
                    .iter()
                    .zip(w.net.params().iter())
                    .all(|(a, b)| a.value().data() == b.value().data());
                if !same {
                    return Err("custom-Net config no longer matches the workload's net".into());
                }
                (custom_net(&cluster_config()), Some(w.net))
            }
            Exec::Inline | Exec::Pool => (w.net, None),
        };
        let source = w.train;

        let batch_indices: Vec<Vec<usize>> = source.epoch(b, seed).take(spec.batches).collect();
        if batch_indices.len() < spec.batches {
            return Err(format!(
                "{} has fewer than {} batches",
                w.name, spec.batches
            ));
        }
        let batch_seeds: Vec<u64> = (0..spec.batches).map(|k| batch_seed(seed, k)).collect();
        let batches = batch_indices
            .iter()
            .zip(&batch_seeds)
            .map(|(idx, &s)| {
                let (inputs, labels) = source.batch(idx, t, &mut XorShiftRng::new(s));
                Arc::new(Batch { inputs, labels })
            })
            .collect();

        let (bodies, body_inputs) = request_bodies(&source, t, seed)?;

        let mut workers = Vec::new();
        let mut sessions: Vec<Option<SessionThread>> = (0..methods.len()).map(|_| None).collect();
        let mut check = None;
        if let Some(calibrated) = &calibrated {
            let skipper = &methods[2];
            let idx = source.epoch(b, 0).next().ok_or("empty training split")?;
            let (inputs, labels) = source.batch(&idx, t, &mut XorShiftRng::new(0));
            check = Some(ClusterCheck {
                cluster: cluster_session(
                    "check-cluster",
                    calibrated,
                    nmnist_config(),
                    skipper,
                    t,
                    &mut workers,
                )?,
                engine: local_session("check-engine", calibrated, skipper, t, 2),
                batch: Arc::new(Batch { inputs, labels }),
            });
        }
        // `/cluster` shows the coordinator registered last: start Skipper's
        // last so the table follows the two-phase method.
        for i in [0, 1, 3, 2] {
            let label = METHODS[i];
            sessions[i] = Some(match spec.exec {
                Exec::Inline => local_session(label, &net, &methods[i], t, 1),
                Exec::Pool => local_session(label, &net, &methods[i], t, 2),
                Exec::Cluster => {
                    cluster_session(label, &net, cluster_config(), &methods[i], t, &mut workers)?
                }
            });
        }
        let sessions: Vec<SessionThread> = sessions.into_iter().flatten().collect();

        let cfg = GatewayConfig {
            max_batch: CONNECTIONS,
            max_delay: Duration::from_millis(1),
            queue_cap: 64,
            deadline: Duration::from_secs(1),
            tenants: vec![TenantConfig::new("bench", 1e9, 1e9)],
            skip: None,
            reload_poll: Duration::from_secs(3600),
            slo: None,
        };
        let pool = ModelPool::fixed(InferSession::new(net.share()));
        let mut gateway = Gateway::start(cfg, pool, Arc::new(skipper_obs::Router::new()))
            .map_err(|e| format!("gateway start: {e}"))?;
        let addr = gateway
            .bind("127.0.0.1:0")
            .map_err(|e| format!("gateway bind: {e}"))?;

        let mut env = Env {
            spec,
            timesteps: t,
            methods,
            source,
            batch_indices,
            batch_seeds,
            batches,
            net,
            bodies,
            body_inputs,
            sessions,
            check,
            first: Vec::new(),
            addr,
            gateway: Some(gateway),
            workers,
        };
        // Warm-up: one iteration per session and one request per
        // connection. The iterations are the first the checks compare.
        let batch0 = Arc::clone(&env.batches[0]);
        env.first = env.sessions.iter().map(|s| s.train(&batch0)).collect();
        if let Some(c) = &env.check {
            c.cluster.train(&c.batch);
            c.engine.train(&c.batch);
        }
        let (warm, _) = closed_loop(env.addr, &env.bodies, 0, CONNECTIONS);
        if let Some(bad) = warm.iter().find(|s| s.status != 200) {
            return Err(format!(
                "warm-up request: HTTP {} {}",
                bad.status, bad.response
            ));
        }
        Ok(env)
    }

    /// Stop the sessions, the cluster and the gateway; returns the worker
    /// threads' total reconnects.
    pub fn stop(&mut self) -> Result<u64, String> {
        self.sessions.clear();
        self.check = None;
        self.gateway = None;
        let mut reconnects = 0;
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(Ok(report)) => reconnects += report.reconnects,
                Ok(Err(e)) => return Err(format!("cluster worker: {e}")),
                Err(_) => return Err("cluster worker panicked".into()),
            }
        }
        Ok(reconnects)
    }

    /// The metric-name suffix and method of each session.
    pub fn method_labels(&self) -> impl Iterator<Item = (&'static str, &Method)> {
        METHODS.iter().copied().zip(self.methods.iter())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A session on the in-process path: inline for one worker, the sharded
/// engine for more.
pub fn local_session(
    label: &'static str,
    net: &SpikingNetwork,
    method: &Method,
    timesteps: usize,
    workers: usize,
) -> SessionThread {
    let (net, method) = (net.share(), method.clone());
    SessionThread::spawn(label, move || {
        TrainSession::builder(net, method, timesteps)
            .optimizer(Box::new(Adam::new(LR)))
            .workers(workers)
            .build()
            .expect("the workload's methods are valid for its net")
    })
}

/// A session over a loopback TCP coordinator with two worker threads.
fn cluster_session(
    label: &'static str,
    net: &SpikingNetwork,
    model: ModelConfig,
    method: &Method,
    timesteps: usize,
    workers: &mut Vec<JoinHandle<Result<WorkerReport, SkipperError>>>,
) -> Result<SessionThread, String> {
    let cfg = ClusterConfig {
        model,
        expected_workers: 2,
        min_workers: 2,
        heartbeat_timeout: Duration::from_secs(3),
        work_timeout: Duration::from_secs(60),
        connect_timeout: Duration::from_secs(10),
        max_attempts: 5,
        chaos: None,
    };
    let coordinator =
        Coordinator::listen_tcp("127.0.0.1:0", cfg).map_err(|e| format!("coordinator: {e}"))?;
    let addr = coordinator.addr();
    for id in 1..=2u64 {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            run_worker(
                &mut TcpConnector::new(addr, None),
                &WorkerOptions {
                    id,
                    chaos: None,
                    backoff: BackoffConfig::default(),
                    heartbeat_interval: Duration::from_millis(150),
                },
            )
        }));
    }
    let (net, method) = (net.share(), method.clone());
    Ok(SessionThread::spawn(label, move || {
        TrainSession::builder(net, method, timesteps)
            .optimizer(Box::new(Adam::new(LR)))
            .cluster(coordinator)
            .build()
            .expect("the workload's methods are valid over the cluster")
    }))
}

/// `BODIES` single-sample spike trains from the training split, as JSON
/// request bodies and as `[1, C, H, W]` timesteps.
fn request_bodies(
    source: &DataSource,
    timesteps: usize,
    seed: u64,
) -> Result<(Vec<String>, Vec<Vec<Tensor>>), String> {
    let picks: Vec<usize> = source
        .epoch(1, seed ^ 0x5E5E_5E5E)
        .take(BODIES)
        .flatten()
        .collect();
    let mut bodies = Vec::with_capacity(picks.len());
    let mut inputs = Vec::with_capacity(picks.len());
    for (k, &idx) in picks.iter().enumerate() {
        let mut rng = XorShiftRng::new(batch_seed(seed ^ 0x5E5E_5E5E, k));
        let (steps, _) = source.batch(&[idx], timesteps, &mut rng);
        let shape = steps[0].shape().dims()[1..].to_vec();
        let flat: Vec<f32> = steps
            .iter()
            .flat_map(|s| s.data().iter().copied())
            .collect();
        let body = serde_json::to_string(&PredictRequest {
            tenant: "bench".into(),
            timesteps,
            shape,
            inputs: flat,
            deadline_ms: None,
        })
        .map_err(|e| format!("request body: {e}"))?;
        bodies.push(body);
        inputs.push(steps);
    }
    Ok((bodies, inputs))
}

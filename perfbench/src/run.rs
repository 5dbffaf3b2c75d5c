//! The measured rounds and the checks on what the program returned.

use crate::serve::{closed_loop, open_loop, Sample};
use crate::session::{Batch, Step};
use crate::skips::skipped_steps;
use crate::workload::{local_session, Env, Exec};
use skipper_core::{InferSession, Method};
use skipper_memprof::{Category, DeviceModel, LatencyModel};
use skipper_serve::PredictResponse;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// What the run keeps of one `train_batch` call.
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Wall time around the call, ms.
    pub wall_ms: f64,
    /// Process CPU time over the call, ms.
    pub cpu_ms: f64,
    /// Mean loss.
    pub loss: f64,
    /// Timesteps whose backward ran.
    pub recomputed: usize,
    /// Timesteps skipped.
    pub skipped: usize,
    /// Skips derived from the SAM record (Skipper only).
    pub derived_skipped: Option<usize>,
    /// `BatchStats::peak_bytes()`.
    pub peak_bytes: u64,
    /// Peak activation bytes.
    pub activation_bytes: u64,
    /// Kernel GFLOP.
    pub gflop: f64,
    /// Kernel calls.
    pub kernel_calls: usize,
    /// A100 latency model over the op log, ms.
    pub modeled_ms: f64,
}

impl StepSummary {
    /// Summarize `step` of `method`; drops the op log.
    pub fn of(step: &Step, method: &Method, model: &LatencyModel) -> StepSummary {
        let s = &step.stats;
        let derived_skipped = match method {
            Method::Skipper {
                checkpoints,
                percentile,
            } if !step.sam_sums.is_empty() => Some(skipped_steps(
                &step.sam_sums,
                *checkpoints,
                f64::from(*percentile),
            )),
            _ => None,
        };
        StepSummary {
            wall_ms: step.wall.as_secs_f64() * 1e3,
            cpu_ms: step.cpu_ms,
            loss: s.loss,
            recomputed: s.recomputed_steps,
            skipped: s.skipped_steps,
            derived_skipped,
            peak_bytes: s.peak_bytes(),
            activation_bytes: s.mem.peak(Category::Activations),
            gflop: s.ops.total_flops() / 1e9,
            kernel_calls: s.ops.len(),
            modeled_ms: s.modeled_time_s(model) * 1e3,
        }
    }

    /// `peak_bytes` in MiB.
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / MIB
    }
}

/// Everything the measured rounds produced.
pub struct RunData {
    /// Per method, the first iteration (warm-up) then every timed one.
    pub first: Vec<StepSummary>,
    /// Per method, the timed iterations in round order.
    pub timed: Vec<Vec<StepSummary>>,
    /// Whole rounds completed.
    pub rounds: usize,
    /// Cluster check: loss bits over the cluster and on the engine.
    pub check: Vec<(u64, u64)>,
    /// Open-loop requests.
    pub open: Vec<Sample>,
    /// Closed-loop requests.
    pub closed: Vec<Sample>,
    /// Summed wall time of the closed-loop bursts.
    pub closed_wall: Duration,
    /// Process CPU time over the closed-loop bursts, ms.
    pub closed_cpu_ms: f64,
    /// Wall time of all rounds.
    pub wall: Duration,
    /// Operations attempted: `train_batch` calls and HTTP requests.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Run `rounds` whole rounds.
pub fn measure(env: &Env, rounds: usize) -> RunData {
    let model = LatencyModel::new(DeviceModel::a100_80gb());
    let spec = env.spec;
    let first = env
        .first
        .iter()
        .zip(&env.methods)
        .map(|(s, m)| StepSummary::of(s, m, &model))
        .collect();
    let mut data = RunData {
        first,
        timed: vec![Vec::new(); env.sessions.len()],
        rounds: 0,
        check: Vec::new(),
        open: Vec::new(),
        closed: Vec::new(),
        closed_wall: Duration::ZERO,
        closed_cpu_ms: 0.0,
        wall: Duration::ZERO,
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();
    while data.rounds < rounds {
        let r = data.rounds;
        let batch = &env.batches[r % env.batches.len()];
        for ((session, method), timed) in env.sessions.iter().zip(&env.methods).zip(&mut data.timed)
        {
            timed.push(StepSummary::of(&session.train(batch), method, &model));
            data.attempted += 1;
        }
        if let Some(c) = &env.check {
            let a = c.cluster.train(&c.batch).stats.loss.to_bits();
            let b = c.engine.train(&c.batch).stats.loss.to_bits();
            data.check.push((a, b));
            data.attempted += 1;
            data.failed += u64::from(a != b);
        }
        let open = {
            let _span = skipper_obs::span!("bench.open_loop");
            open_loop(env.addr, &env.bodies, r * spec.open, spec.open, spec.rate)
        };
        let cpu = crate::cpu::process_cpu_ms();
        let (closed, wall) = {
            let _span = skipper_obs::span!("bench.closed_loop");
            closed_loop(env.addr, &env.bodies, r * spec.closed, spec.closed)
        };
        data.closed_cpu_ms += crate::cpu::process_cpu_ms() - cpu;
        for s in open.iter().chain(&closed) {
            data.attempted += 1;
            data.failed += u64::from(s.status != 200);
        }
        data.open.extend(open);
        data.closed.extend(closed);
        data.closed_wall += wall;
        data.rounds += 1;
    }
    data.wall = started.elapsed();
    data
}

/// Checks the program's outputs against properties of each method and
/// against computations made apart from the measured sessions. Returns
/// one line per violation.
pub fn check(env: &Env, data: &RunData) -> Vec<String> {
    let mut bad = Vec::new();
    let t = env.timesteps;
    let k = env.batches.len();
    let labels: Vec<&str> = env.method_labels().map(|(l, _)| l).collect();
    let all = |i: usize| std::iter::once(&data.first[i]).chain(&data.timed[i]);

    for (i, label) in labels.iter().enumerate() {
        if let Some(s) = all(i).find(|s| !s.loss.is_finite()) {
            bad.push(format!("{label}: non-finite loss {}", s.loss));
        }
        let mean = |xs: &[StepSummary]| xs.iter().map(|s| s.loss).sum::<f64>() / xs.len() as f64;
        let timed = &data.timed[i];
        let (early, late) = (mean(&timed[..k]), mean(&timed[timed.len() - k..]));
        if late >= early {
            bad.push(format!(
                "{label}: mean loss of the last {k} rounds {late} is not below the first {k} {early}"
            ));
        }
        for (n, s) in all(i).enumerate() {
            if s.recomputed + s.skipped != t {
                bad.push(format!(
                    "{label} iteration {n}: recomputed {} + skipped {} != T {t}",
                    s.recomputed, s.skipped
                ));
            }
            let is_skipper = matches!(env.methods[i], Method::Skipper { .. });
            if !is_skipper && s.skipped != 0 {
                bad.push(format!(
                    "{label} iteration {n}: skipped {} steps",
                    s.skipped
                ));
            }
            if is_skipper {
                if s.skipped == 0 {
                    bad.push(format!("{label} iteration {n}: Skipper skipped nothing"));
                }
                if s.derived_skipped != Some(s.skipped) {
                    bad.push(format!(
                        "{label} iteration {n}: skipped {} but the SAM record gives {:?}",
                        s.skipped, s.derived_skipped
                    ));
                }
            }
        }
    }
    // From identical weights checkpointing recomputes the same forward
    // pass, so the first losses are equal bit for bit. Later iterations
    // are not compared bitwise: the segment-wise backward sums weight
    // gradients in another order, so they agree with BPTT's only to
    // rounding, and the two sessions' weights drift apart.
    if data.first[0].loss.to_bits() != data.first[1].loss.to_bits() {
        bad.push(format!(
            "first iteration: checkpointed loss {} differs from BPTT {}",
            data.first[1].loss, data.first[0].loss
        ));
    }
    if env.spec.exec == Exec::Inline {
        let peak = |i: usize| all(i).map(|s| s.peak_bytes).max().unwrap_or(0);
        let (bptt, ckpt, skipper, tbptt) = (peak(0), peak(1), peak(2), peak(3));
        if !(bptt > ckpt && ckpt > skipper && tbptt < bptt) {
            bad.push(format!(
                "peak bytes out of order: bptt {bptt} ckpt {ckpt} skipper {skipper} tbptt {tbptt}"
            ));
        }
    }
    if env.spec.exec != Exec::Inline {
        bad.extend(check_against_local(env, data));
    }
    bad.extend(check_responses(env, data));
    bad
}

/// Sharded and distributed runs against in-process references: the
/// first iteration against one worker, and for the cluster, the whole
/// loss sequence against the two-worker engine.
fn check_against_local(env: &Env, data: &RunData) -> Vec<String> {
    let mut bad = Vec::new();
    let replay: Vec<Arc<Batch>> = (0..data.rounds)
        .map(|r| Arc::clone(&env.batches[r % env.batches.len()]))
        .collect();
    for (i, (label, method)) in env.method_labels().enumerate() {
        let one = local_session("ref-1", &env.net, method, env.timesteps, 1);
        let got = one.train(&env.batches[0]).stats;
        let want = &data.first[i];
        if got.loss.to_bits() != want.loss.to_bits() || got.skipped_steps != want.skipped {
            bad.push(format!(
                "{label}: first iteration loss {} skipped {} but one worker gives {} and {}",
                want.loss, want.skipped, got.loss, got.skipped_steps
            ));
        }
        if env.spec.exec == Exec::Cluster {
            let two = local_session("ref-2", &env.net, method, env.timesteps, 2);
            let _ = two.train(&env.batches[0]);
            for (r, batch) in replay.iter().enumerate() {
                let got = two.train(batch).stats.loss;
                let want = data.timed[i][r].loss;
                if got.to_bits() != want.to_bits() {
                    bad.push(format!(
                        "{label} round {r}: cluster loss {want} but the engine replay gives {got}"
                    ));
                    break;
                }
            }
        }
    }
    bad
}

/// Every response is a 200 whose logits are bit-identical to a solo
/// forward pass of the same sample.
fn check_responses(env: &Env, data: &RunData) -> Vec<String> {
    let solo = InferSession::new(env.net.share());
    let want: Vec<Vec<f32>> = env
        .body_inputs
        .iter()
        .map(|x| match solo.predict(x) {
            Ok(p) => p.logits.data().to_vec(),
            Err(e) => panic!("reference forward pass failed: {e}"),
        })
        .collect();
    let mut bad = Vec::new();
    for s in data.open.iter().chain(&data.closed) {
        if s.status != 200 {
            bad.push(format!(
                "request {}: HTTP {} {}",
                s.body, s.status, s.response
            ));
            continue;
        }
        let resp: PredictResponse = match serde_json::from_str(&s.response) {
            Ok(r) => r,
            Err(e) => {
                bad.push(format!("request {}: undecodable response: {e}", s.body));
                continue;
            }
        };
        let logits = &want[s.body];
        let same = resp.logits.len() == logits.len()
            && resp
                .logits
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let argmax = logits
            .iter()
            .enumerate()
            .fold(0, |best, (i, &v)| if v > logits[best] { i } else { best });
        if !same
            || resp.class != argmax
            || resp.evaluated_steps != env.timesteps
            || resp.skipped_steps != 0
        {
            bad.push(format!(
                "request {}: class {} evaluated {} skipped {}, logits {}",
                s.body,
                resp.class,
                resp.evaluated_steps,
                resp.skipped_steps,
                if same {
                    "match"
                } else {
                    "differ from a solo forward pass"
                }
            ));
        }
        if bad.len() > 20 {
            break;
        }
    }
    bad
}

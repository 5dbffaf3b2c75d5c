//! Per-layer probes of a traced run: each times one public entry point of
//! a layer in isolation, inside a span of its own.

use crate::session::Batch;
use crate::stats::median;
use crate::workload::{local_session, Env, Exec};
use skipper_core::InferSession;
use skipper_serve::PredictRequest;
use skipper_snn::{Adam, Module, NetworkState, Optimizer, SpikingNetwork, StepCtx};
use skipper_tensor::{concat0, Tensor, XorShiftRng};
use std::sync::Barrier;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    median(&ms)
}

/// Mean spike rate of the input and of every LIF population (by state
/// index) over `batch`.
pub fn spike_densities(net: &SpikingNetwork, batch: &Batch) -> (f64, Vec<f64>) {
    let b = batch.inputs[0].shape()[0];
    let mut state: NetworkState = net.init_state(b);
    let mut sums = vec![0.0f64; state.spikes.len()];
    let mut counts = vec![0.0f64; state.spikes.len()];
    let (mut input_sum, mut input_n) = (0.0, 0.0);
    for (t, x) in batch.inputs.iter().enumerate() {
        input_sum += x.sum();
        input_n += x.numel() as f64;
        let _ = net.step_infer(x, &mut state, &StepCtx::eval(t));
        for (i, s) in state.spikes.iter().enumerate() {
            sums[i] += s.sum();
            counts[i] += s.numel() as f64;
        }
    }
    let rates = sums.iter().zip(&counts).map(|(s, n)| s / n).collect();
    (input_sum / input_n, rates)
}

/// A `[dims]` spike tensor with each element set with probability `p`.
fn spikes(dims: &[usize], p: f64, rng: &mut XorShiftRng) -> Tensor {
    Tensor::rand(dims.to_vec(), rng).map(|x| f32::from(u8::from(f64::from(x) < p)))
}

/// The largest conv and the largest linear forward of `net` at batch
/// `b` by FLOPs, each with the spike rate of its input.
struct Largest<'a> {
    conv: Option<(&'a skipper_snn::Conv2dLayer, [usize; 4], f64, f64)>,
    linear: Option<(&'a skipper_snn::LinearLayer, [usize; 2], f64, f64)>,
}

impl<'a> Largest<'a> {
    fn offer_linear(&mut self, lin: &'a skipper_snn::LinearLayer, b: usize, rate: f64) {
        let flops = (lin.in_features() * lin.out_features()) as f64;
        if self.linear.is_none_or(|l| l.3 < flops) {
            self.linear = Some((lin, [b, lin.in_features()], rate, flops));
        }
    }
}

fn largest_layers<'a>(
    net: &'a SpikingNetwork,
    b: usize,
    input_rate: f64,
    rates: &[f64],
) -> Largest<'a> {
    let shape = net.input_shape();
    let (mut c, mut h, mut w) = (shape[0], shape[1], shape[2]);
    let mut rate = input_rate;
    let mut out = Largest {
        conv: None,
        linear: None,
    };
    for m in net.modules() {
        match m {
            Module::ConvLif { conv, lif, pool } => {
                let (oh, ow) = conv.out_hw(h, w);
                let flops =
                    (conv.out_channels() * c * conv.kernel() * conv.kernel() * oh * ow) as f64;
                if out.conv.is_none_or(|l| l.3 < flops) {
                    out.conv = Some((conv, [b, c, h, w], rate, flops));
                }
                (c, h, w) = (conv.out_channels(), oh, ow);
                if let Some(p) = pool {
                    (h, w) = (h / p, w / p);
                }
                rate = rates[lif.state_id];
            }
            Module::LinearLif { lin, lif, .. } => {
                out.offer_linear(lin, b, rate);
                rate = rates[lif.state_id];
            }
            Module::Output(lin) => out.offer_linear(lin, b, rate),
            Module::Pool(p) => (h, w) = (h / p, w / p),
            Module::Residual { .. } | Module::Flatten => {}
        }
    }
    out
}

/// The per-layer figures only a probe gives; the rest come from the
/// measured rounds.
pub fn run(env: &Env, seed: u64, toggle_tracing: &mut dyn FnMut(bool)) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let net = &env.net;
    let batch0 = &env.batches[0];
    let b = batch0.inputs[0].shape()[0];
    let mut rng = XorShiftRng::new(seed ^ 0x0BE5);

    {
        let _span = skipper_obs::span!("probe.data_batch");
        let ms = time_ms(3 * env.batch_indices.len(), {
            let mut k = 0;
            move || {
                let i = k % env.batch_indices.len();
                let mut enc = XorShiftRng::new(env.batch_seeds[i]);
                std::hint::black_box(env.source.batch(
                    &env.batch_indices[i],
                    env.timesteps,
                    &mut enc,
                ));
                k += 1;
            }
        });
        out.push(("data.batch_ms".into(), ms));
    }

    let (input_rate, rates) = spike_densities(net, batch0);
    let largest = largest_layers(net, b, input_rate, &rates);
    let (conv_ms, conv_x2_ms) = match largest.conv {
        Some((conv, dims, rate, _)) => {
            let _span = skipper_obs::span!("probe.conv2d");
            let x = spikes(&dims, rate, &mut rng);
            let solo = time_ms(20, || {
                std::hint::black_box(conv.forward_infer(net.params(), &x));
            });
            let barrier = Barrier::new(2);
            let pair: Vec<f64> = std::thread::scope(|scope| {
                let runs: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            (0..20)
                                .map(|_| {
                                    barrier.wait();
                                    time_ms(1, || {
                                        std::hint::black_box(conv.forward_infer(net.params(), &x));
                                    })
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                runs.into_iter()
                    .flat_map(|r| r.join().expect("conv probe thread panicked"))
                    .collect()
            });
            (solo, median(&pair))
        }
        None => (0.0, 0.0),
    };
    out.push(("tensor.conv2d_ms".into(), conv_ms));
    out.push(("tensor.conv2d_ms.x2".into(), conv_x2_ms));
    let matmul_ms = match largest.linear {
        Some((lin, dims, rate, _)) => {
            let _span = skipper_obs::span!("probe.linear");
            let x = spikes(&dims, rate, &mut rng);
            time_ms(50, || {
                std::hint::black_box(lin.forward_infer(net.params(), &x));
            })
        }
        None => 0.0,
    };
    out.push(("tensor.matmul_ms".into(), matmul_ms));

    let solo = InferSession::new(net.share());
    {
        let _span = skipper_obs::span!("probe.forward");
        let ms = time_ms(5, || {
            std::hint::black_box(solo.predict(&batch0.inputs).expect("forward pass"));
        });
        out.push(("snn.forward_ms".into(), ms));
    }
    {
        let _span = skipper_obs::span!("probe.optimizer");
        let mut copy = net.share();
        let mut adam = Adam::new(1e-3);
        adam.step(copy.params_mut());
        let ms = time_ms(20, || adam.step(copy.params_mut()));
        out.push(("snn.optimizer_ms".into(), ms));
    }

    for (label, method) in env.method_labels() {
        for (workers, name) in [(2, "engine.iter_ms"), (1, "engine.inline_iter_ms")] {
            let _span = skipper_obs::span!("probe.engine", workers = workers as u64);
            let session = local_session("probe", net, method, env.timesteps, workers);
            let _ = session.train(batch0);
            let walls: Vec<f64> = (0..2)
                .map(|_| session.train(batch0).stats.wall.as_secs_f64() * 1e3)
                .collect();
            out.push((format!("{name}.{label}"), median(&walls)));
        }
    }

    {
        let _span = skipper_obs::span!("probe.decode");
        let mut k = 0;
        let ms = time_ms(3 * env.bodies.len(), || {
            let req: PredictRequest =
                serde_json::from_str(&env.bodies[k % env.bodies.len()]).expect("body decodes");
            std::hint::black_box(req.to_timestep_tensors().expect("body unflattens"));
            k += 1;
        });
        out.push(("serve.decode_ms".into(), ms));
    }
    {
        let _span = skipper_obs::span!("probe.predict");
        let one = &env.body_inputs[0];
        let two: Vec<Tensor> = one
            .iter()
            .zip(&env.body_inputs[1])
            .map(|(a, b)| concat0(&[a, b]))
            .collect();
        let b1 = time_ms(10, || {
            std::hint::black_box(solo.predict(one).expect("forward pass"));
        });
        let b2 = time_ms(10, || {
            std::hint::black_box(solo.predict(&two).expect("forward pass"));
        });
        out.push(("serve.predict_ms.b1".into(), b1));
        out.push(("serve.predict_ms.b2".into(), b2));
    }

    // Tracing on against off, alternating on a fresh BPTT session of the
    // workload's worker count, in CPU time. A fresh session: after the
    // probes' pause an idle cluster session would first evict its workers.
    let workers = if env.spec.exec == Exec::Pool { 2 } else { 1 };
    let bptt = local_session("overhead", net, &env.methods[0], env.timesteps, workers);
    let _ = bptt.train(batch0);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..8 {
        let traced = i % 2 == 1;
        toggle_tracing(traced);
        let ms = bptt.train(batch0).cpu_ms;
        if traced { &mut on } else { &mut off }.push(ms);
    }
    toggle_tracing(true);
    out.push((
        "obs.enabled_overhead_pct".into(),
        (median(&on) / median(&off) - 1.0) * 100.0,
    ));
    skipper_memprof::take_op_log();
    out
}

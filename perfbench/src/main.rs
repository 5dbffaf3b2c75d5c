//! perfbench: the end-to-end and per-layer benchmark of the Skipper
//! training methods and the serving gateway.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-nmnist-inline --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One run sets the workload up several times (set-up time is the median),
//! runs whole rounds for `--seconds`, checks every output, prints a report
//! and, as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run also
//! writes a Perfetto trace and the per-layer table to `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod cpu;
mod probes;
mod run;
mod serve;
mod session;
mod skips;
mod stats;
mod workload;

use run::RunData;
use stats::{median, tail};
use std::path::PathBuf;
use workload::{Env, Exec, Spec, METHODS, SPECS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Events a traced run keeps in memory.
const TRACE_EVENTS: usize = 1 << 17;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's output directory (traces, per-layer tables and any
/// flight-recorder dump).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Clear every knob the program reads from the environment (workers,
/// tracing, profiling, chaos, gateway and SLO settings), so the figures
/// depend only on the settings fixed in this benchmark.
fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("SKIPPER_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("SKIPPER_BLACKBOX_DIR", out_dir().join("blackbox"));
}

/// The process's peak resident set (`VmHWM`), MiB.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Frames and bytes in both directions over the `/cluster` table.
fn cluster_totals() -> (f64, f64) {
    let req = skipper_obs::Request {
        method: "GET".into(),
        path: "/cluster".into(),
        query: String::new(),
        body: Vec::new(),
    };
    let resp = skipper_obs::global_router().dispatch(&req);
    let Ok(table) = serde_json::from_str::<serde_json::Value>(&resp.body) else {
        return (0.0, 0.0);
    };
    let field = |w: &serde_json::Value, k: &str| w[k].as_f64().unwrap_or(0.0);
    table["workers"].as_array().map_or((0.0, 0.0), |ws| {
        ws.iter().fold((0.0, 0.0), |(f, b), w| {
            (
                f + field(w, "frames_sent") + field(w, "frames_received"),
                b + field(w, "bytes_sent") + field(w, "bytes_received"),
            )
        })
    })
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Column of one per-method figure over the timed rounds.
fn per_method(data: &RunData, f: impl Fn(&run::StepSummary) -> f64) -> Vec<f64> {
    data.timed
        .iter()
        .map(|steps| median(&steps.iter().map(&f).collect::<Vec<_>>()))
        .collect()
}

fn peak_mib(data: &RunData) -> Vec<f64> {
    data.timed
        .iter()
        .map(|steps| {
            steps
                .iter()
                .map(run::StepSummary::peak_mib)
                .fold(0.0, f64::max)
        })
        .collect()
}

fn open_latencies(data: &RunData) -> Vec<f64> {
    data.open.iter().map(|s| ms(s.latency())).collect()
}

fn end_to_end(setups: &[f64], data: &RunData) -> Vec<(String, f64, &'static str)> {
    let mut m = vec![("setup_s".to_string(), median(setups), "s")];
    for (label, v) in METHODS.iter().zip(per_method(data, |s| s.cpu_ms)) {
        m.push((format!("{label}_cpu_ms"), v, "ms"));
    }
    for (label, v) in METHODS.iter().zip(peak_mib(data)) {
        m.push((format!("{label}_peak_mib"), v, "MiB"));
    }
    m.push(("rss_peak_mib".into(), rss_peak_mib(), "MiB"));
    m.push((
        "req_cpu_ms".into(),
        data.closed_cpu_ms / data.closed.len() as f64,
        "ms",
    ));
    m
}

fn per_layer(
    data: &RunData,
    probes: Vec<(String, f64)>,
    cluster: (f64, f64, u64),
) -> Vec<(String, f64, &'static str)> {
    let unit = |name: &str| -> &'static str {
        if name.ends_with("_pct") {
            "%"
        } else if name.contains("_ms") {
            "ms"
        } else if name.ends_with(".rps") {
            "1/s"
        } else if name.contains("_mib") {
            "MiB"
        } else if name.starts_with("tensor.gflop") {
            "GFLOP"
        } else if name.contains("bytes") {
            "B"
        } else {
            "count"
        }
    };
    let mut m: Vec<(String, f64)> = probes;
    let columns: [(&str, Vec<f64>); 6] = [
        ("core.iter_ms", per_method(data, |s| s.wall_ms)),
        ("tensor.gflop", per_method(data, |s| s.gflop)),
        (
            "tensor.kernel_calls",
            per_method(data, |s| s.kernel_calls as f64),
        ),
        (
            "core.recomputed_steps",
            per_method(data, |s| s.recomputed as f64),
        ),
        (
            "memprof.modeled_iter_ms",
            per_method(data, |s| s.modeled_ms),
        ),
        (
            "memprof.activations_peak_mib",
            data.timed
                .iter()
                .map(|steps| {
                    steps
                        .iter()
                        .map(|s| s.activation_bytes as f64 / (1u64 << 20) as f64)
                        .fold(0.0, f64::max)
                })
                .collect(),
        ),
    ];
    for (name, values) in columns {
        for (label, v) in METHODS.iter().zip(values) {
            m.push((format!("{name}.{label}"), v));
        }
    }
    m.push((
        "core.skipped_steps.skipper".into(),
        per_method(data, |s| s.skipped as f64)[2],
    ));
    let rounds = data.rounds as f64;
    m.push(("cluster.frames_per_iter".into(), cluster.0 / rounds));
    m.push(("cluster.bytes_per_iter".into(), cluster.1 / rounds));
    m.push(("cluster.reconnects".into(), cluster.2 as f64));
    let all: Vec<&serve::Sample> = data.open.iter().chain(&data.closed).collect();
    m.push((
        "serve.connect_ms".into(),
        median(&all.iter().map(|s| ms(s.connect_write)).collect::<Vec<_>>()),
    ));
    let sizes: Vec<f64> = all
        .iter()
        .filter_map(|s| serde_json::from_str::<skipper_serve::PredictResponse>(&s.response).ok())
        .map(|r| r.batch_size as f64)
        .collect();
    m.push((
        "serve.batch_size_mean".into(),
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    ));
    m.push((
        "serve.rps".into(),
        data.closed.len() as f64 / data.closed_wall.as_secs_f64(),
    ));
    let open = open_latencies(data);
    m.push(("serve.req_ms_p50".into(), median(&open)));
    m.push((
        "serve.req_ms_tail".into(),
        tail(&open).map_or_else(|| median(&open), |(_, v)| v),
    ));
    m.push((
        "serve.send_late_ms".into(),
        median(
            &data
                .open
                .iter()
                .map(|s| ms(s.lateness()))
                .collect::<Vec<_>>(),
        ),
    ));
    m.into_iter()
        .map(|(n, v)| {
            let u = unit(&n);
            (n, v, u)
        })
        .collect()
}

/// The human-readable report printed before the JSON line.
fn report(args: &Args, env: &Env, data: &RunData, setups: &[f64], failures: &[String]) {
    let spec = args.spec;
    println!(
        "workload {} seed {}: {} rounds in {:.1} s; operations attempted {} failed {}",
        spec.name,
        args.seed,
        data.rounds,
        data.wall.as_secs_f64(),
        data.attempted,
        data.failed
    );
    println!(
        "set-up (s, {} reps): {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let wall = per_method(data, |s| s.wall_ms);
    let modeled = per_method(data, |s| s.modeled_ms);
    let peaks = peak_mib(data);
    let cpu = per_method(data, |s| s.cpu_ms);
    let skipped = per_method(data, |s| s.skipped as f64);
    println!(
        "method   wall_ms(p50)  cpu_ms(p50)  peak_MiB  skipped(p50)  modeled_A100_ms  (n={})",
        data.rounds
    );
    for i in 0..METHODS.len() {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>9.3} {:>13} {:>16.4}",
            METHODS[i], wall[i], cpu[i], peaks[i], skipped[i], modeled[i]
        );
    }
    let exec = match spec.exec {
        Exec::Inline => "inline",
        Exec::Pool => "pool",
        Exec::Cluster => "cluster",
    };
    println!("Fig. 10, change against BPTT on {exec} ({}):", spec.name);
    println!("method   measured_wall  measured_cpu  modeled_A100");
    let change = |v: &[f64], i: usize| (v[i] / v[0] - 1.0) * 100.0;
    for i in [1, 2] {
        println!(
            "{:<8} {:>+13.1}% {:>+12.1}% {:>+12.1}%",
            METHODS[i],
            change(&wall, i),
            change(&cpu, i),
            change(&modeled, i)
        );
    }
    let open = open_latencies(data);
    let late: Vec<f64> = data.open.iter().map(|s| ms(s.lateness())).collect();
    print!(
        "serving: body {} B; open loop {}/s: {} requests, p50 {:.3} ms",
        env.bodies[0].len(),
        spec.rate,
        open.len(),
        median(&open)
    );
    if let Some((p, v)) = tail(&open) {
        let beyond = open.iter().filter(|&&x| x > v).count();
        print!(", p{p} {v:.3} ms ({beyond} beyond)");
    }
    println!(
        ", send late p50 {:.3} max {:.3} ms; closed loop {} connections: {} requests, {:.1}/s",
        median(&late),
        late.iter().copied().fold(0.0, f64::max),
        serve::CONNECTIONS,
        data.closed.len(),
        data.closed.len() as f64 / data.closed_wall.as_secs_f64()
    );
    if !data.check.is_empty() {
        let (a, b) = data.check[0];
        println!(
            "cluster check (calibrated net, fixed batch): cluster loss {:.10} engine loss {:.10}; {} of {} differ",
            f64::from_bits(a),
            f64::from_bits(b),
            data.check.iter().filter(|(a, b)| a != b).count(),
            data.check.len()
        );
    }
    for f in failures {
        println!("CHECK FAILED: {f}");
    }
}

fn json_line(correct: bool, data: &RunData, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        data.attempted,
        data.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let out = out_dir();
    std::fs::create_dir_all(out.join("blackbox")).map_err(|e| format!("{}: {e}", out.display()))?;
    let ring = args.trace.then(|| {
        let (sink, handle) = skipper_obs::RingBufferSink::new(TRACE_EVENTS);
        (skipper_obs::add_sink(Box::new(sink)), handle)
    });

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        // Set-up time is CPU time: on a shared host wall time also counts
        // the time the hypervisor gives to other guests. The first set-up
        // counts from process start.
        let started = if rep == 0 { 0.0 } else { cpu::process_cpu_ms() };
        let e = {
            let _span = skipper_obs::span!("bench.setup", rep = rep as u64);
            Env::setup(args.spec, args.seed)?
        };
        setups.push((cpu::process_cpu_ms() - started) / 1e3);
        env = Some(e);
    }
    let mut env = env.expect("at least one set-up");

    let before = cluster_totals();
    let data = run::measure(&env, args.spec.rounds(args.seconds as f64));
    let after = cluster_totals();
    let failures = run::check(&env, &data);

    let metrics = if let Some((id, handle)) = ring {
        let mut sink_id = Some(id);
        let mut parked = None;
        let mut toggle = |on: bool| {
            if on {
                if let Some(sink) = parked.take() {
                    sink_id = Some(skipper_obs::add_sink(sink));
                }
            } else if let Some(id) = sink_id.take() {
                parked = skipper_obs::remove_sink(id);
            }
        };
        let probes = probes::run(&env, args.seed, &mut toggle);
        let (input_rate, rates) = probes::spike_densities(&env.net, &env.batches[0]);
        println!(
            "spike rate: input {:.4}, LIF populations {}",
            input_rate,
            rates
                .iter()
                .map(|r| format!("{r:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let reconnects = env.stop()?;
        let metrics = per_layer(
            &data,
            probes,
            (after.0 - before.0, after.1 - before.1, reconnects),
        );
        let stem = format!("{}-seed{}", args.spec.name, args.seed);
        let trace = out.join(format!("{stem}.trace.json"));
        skipper_obs::write_chrome_trace(&handle.snapshot(), &trace)
            .map_err(|e| format!("{}: {e}", trace.display()))?;
        let table: String = metrics
            .iter()
            .map(|(n, v, u)| format!("{n:<36} {v:>14.6} {u}\n"))
            .collect();
        let path = out.join(format!("{stem}.layers.txt"));
        std::fs::write(&path, table).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {}\nper-layer table: {}",
            trace.display(),
            path.display()
        );
        metrics
    } else {
        env.stop()?;
        end_to_end(&setups, &data)
    };
    report(args, &env, &data, &setups, &failures);
    Ok(json_line(failures.is_empty(), &data, &metrics))
}

fn main() {
    scrub_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

//! A training session on a thread of its own. The memory tracker counts
//! per thread, so each method's peak holds its own weights, gradients,
//! optimizer state and activations and nothing of the other sessions.

use skipper_core::{BatchStats, TrainSession};
use skipper_tensor::Tensor;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One batch of spike input, shared by every session of a round.
pub struct Batch {
    /// `T` timesteps of `[B, C, H, W]` spikes.
    pub inputs: Vec<Tensor>,
    /// One class per sample.
    pub labels: Vec<usize>,
}

/// What one `train_batch` call returned, with its wall time measured
/// around the call.
pub struct Step {
    /// Wall time of the call.
    pub wall: Duration,
    /// Process CPU time over the call, ms.
    pub cpu_ms: f64,
    /// The program's own record of the iteration.
    pub stats: BatchStats,
    /// `last_sam_sums()` after the call.
    pub sam_sums: Vec<f64>,
}

/// Handle to a session thread.
pub struct SessionThread {
    jobs: Option<Sender<Arc<Batch>>>,
    steps: Receiver<Step>,
    thread: Option<JoinHandle<()>>,
}

impl SessionThread {
    /// Start a thread that builds its session with `build` and then trains
    /// on every batch it is sent. `label` names the spans of a traced run.
    pub fn spawn(
        label: &'static str,
        build: impl FnOnce() -> TrainSession + Send + 'static,
    ) -> SessionThread {
        let (jobs, job_rx) = channel::<Arc<Batch>>();
        let (step_tx, steps) = channel();
        let thread = std::thread::Builder::new()
            .name(format!("perfbench-{label}"))
            .spawn(move || {
                let mut session = build();
                for batch in job_rx {
                    let _span = skipper_obs::span!("bench.train_batch", method = label);
                    let cpu = crate::cpu::process_cpu_ms();
                    let started = Instant::now();
                    let stats = session.train_batch(&batch.inputs, &batch.labels);
                    let wall = started.elapsed();
                    let cpu_ms = crate::cpu::process_cpu_ms() - cpu;
                    let step = Step {
                        wall,
                        cpu_ms,
                        stats,
                        sam_sums: session.last_sam_sums().to_vec(),
                    };
                    if step_tx.send(step).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn session thread");
        SessionThread {
            jobs: Some(jobs),
            steps,
            thread: Some(thread),
        }
    }

    /// Train on `batch` and wait for the result.
    pub fn train(&self, batch: &Arc<Batch>) -> Step {
        self.jobs
            .as_ref()
            .expect("session is running")
            .send(Arc::clone(batch))
            .expect("session thread ended early");
        self.steps.recv().expect("session thread panicked")
    }
}

impl Drop for SessionThread {
    fn drop(&mut self) {
        self.jobs.take();
        // A panic on the thread already surfaced in `train` as a closed
        // channel; joining only waits for the session to be torn down.
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

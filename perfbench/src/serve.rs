//! Loopback HTTP load for the gateway: an open-loop generator that times
//! each request from when it was due, and a closed-loop burst.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections (and client threads) the load uses: one per core of the
/// 2-core reference machine, fixed so the load does not depend on the host.
pub const CONNECTIONS: usize = 2;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request body that was sent.
    pub body: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When the client started to connect.
    pub sent: Instant,
    /// Connect plus write of the whole request.
    pub connect_write: Duration,
    /// When the response had been read in full.
    pub done: Instant,
    /// HTTP status, 0 when the exchange failed.
    pub status: u16,
    /// Response body.
    pub response: String,
}

impl Sample {
    /// Latency from the due time: a request sent late because the client
    /// was still busy with an earlier one is charged for the wait.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// POST `body` to `/v1/predict` on a fresh connection.
fn post(addr: SocketAddr, body: &str) -> (u16, String, Duration) {
    let started = Instant::now();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (0, String::new(), started.elapsed());
    };
    let head = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let written = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
    let connect_write = started.elapsed();
    let mut raw = String::new();
    if written.is_err() || stream.read_to_string(&mut raw).is_err() {
        return (0, raw, connect_write);
    }
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let response = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, response, connect_write)
}

fn exchange(addr: SocketAddr, bodies: &[String], body: usize, due: Instant) -> Sample {
    let sent = Instant::now();
    let (status, response, connect_write) = post(addr, &bodies[body]);
    Sample {
        body,
        due,
        sent,
        connect_write,
        done: Instant::now(),
        status,
        response,
    }
}

/// Due time of the `i`-th request of an open-loop schedule at `rate`
/// requests per second starting at `start`.
pub fn due(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Send `n` requests on a fixed schedule of `rate` per second, whatever
/// the replies do. Request `i` goes out on client `i % CONNECTIONS`; a
/// client still busy at a due time sends as soon as it is free, and the
/// wait counts in that request's latency. Bodies are used round-robin
/// from `first`.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    first: usize,
    n: usize,
    rate: f64,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(1);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    (c..n)
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            let at = due(start, i, rate);
                            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            exchange(addr, bodies, (first + i) % bodies.len(), at)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("open-loop client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.due);
    samples
}

/// Send `n` requests over `CONNECTIONS` clients that each wait for a
/// reply before sending again. Returns the samples and the burst's wall
/// time.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    first: usize,
    n: usize,
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    (c..n)
                        .step_by(CONNECTIONS)
                        .map(|i| exchange(addr, bodies, (first + i) % bodies.len(), Instant::now()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    (samples, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due: Instant, sent_ms: u64, done_ms: u64) -> Sample {
        Sample {
            body: 0,
            due,
            sent: due + Duration::from_millis(sent_ms),
            connect_write: Duration::ZERO,
            done: due + Duration::from_millis(done_ms),
            status: 200,
            response: String::new(),
        }
    }

    #[test]
    fn late_send_is_charged_from_the_due_time() {
        let t0 = Instant::now();
        // Sent 7 ms late, answered 3 ms after sending.
        let s = sample(t0, 7, 10);
        assert_eq!(s.lateness(), Duration::from_millis(7));
        assert_eq!(s.latency(), Duration::from_millis(10));
        // On time: latency is the service time alone.
        let s = sample(t0, 0, 3);
        assert_eq!(s.lateness(), Duration::ZERO);
        assert_eq!(s.latency(), Duration::from_millis(3));
    }

    #[test]
    fn schedule_is_fixed_by_rate_not_by_replies() {
        let t0 = Instant::now();
        assert_eq!(due(t0, 0, 150.0), t0);
        assert_eq!(due(t0, 150, 150.0), t0 + Duration::from_secs(1));
        assert_eq!(due(t0, 3, 1000.0), t0 + Duration::from_millis(3));
    }
}

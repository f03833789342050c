//! The open-loop load generator: seeded Poisson arrivals written as wire
//! frames over a few TCP connections, each request timed from the moment
//! it was due, so a stall is charged to every request queued behind it.
//!
//! Wire protocol v2 as the server speaks it: a request is a `u32` feature
//! count and that many `f64`s; a reply is a status byte (`0` score, `1`
//! error, `2` shed) followed by an `f64`, or by a `u32` length and a
//! message.

use crate::trace::Tracer;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// A seed derived from `seed` for the stream named by `salt`, so each
/// input of a run draws from its own stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Arrival times (ns from the start, ascending) of a Poisson process at
/// `rate` per second over `duration`, drawn from `seed` and conditioned on
/// its expected count: `rate · duration` points placed uniformly at
/// random, which is exactly a Poisson process given its count. Fixing the
/// count keeps the offered load identical across seeds.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let horizon = duration.as_nanos() as f64;
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let mut due: Vec<u64> = (0..count)
        .map(|_| ((1.0 - rng.unit()) * horizon) as u64)
        .collect();
    due.sort_unstable();
    due
}

/// One decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Status 0: the score.
    Score(f64),
    /// Status 1: a request or scoring error.
    Error(String),
    /// Status 2: the server shed the request.
    Shed(String),
}

/// Appends a score-request frame for `row` to `buf`.
pub fn encode_request(row: &[f64], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes the reply frame at the head of `buf`, returning it with the
/// bytes it used; `Ok(None)` while the frame is incomplete.
///
/// # Errors
///
/// An unknown status byte: the stream cannot be resynchronised.
pub fn decode_reply(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(&status) = buf.first() else {
        return Ok(None);
    };
    match status {
        0 => Ok(buf.get(1..9).map(|b| {
            let score = f64::from_le_bytes(b.try_into().expect("eight bytes"));
            (Reply::Score(score), 9)
        })),
        1 | 2 => {
            let Some(len) = buf.get(1..5) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
            Ok(buf.get(5..5 + len).map(|msg| {
                let msg = String::from_utf8_lossy(msg).into_owned();
                let reply = if status == 1 {
                    Reply::Error(msg)
                } else {
                    Reply::Shed(msg)
                };
                (reply, 5 + len)
            }))
        }
        other => Err(format!("unknown reply status {other}")),
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The stream row it carried.
    pub row: usize,
    /// When it was due, ns from the start.
    pub due: u64,
    /// When its frame was written, ns from the start.
    pub sent: u64,
    /// When its reply was decoded, ns from the start (`None`: no reply).
    pub done: Option<u64>,
    /// The reply, if one came.
    pub reply: Option<Reply>,
}

/// One connection's share of the open loop.
pub struct ConnectionPlan {
    /// Due times, ns from the start, ascending.
    pub due: Vec<u64>,
    /// Stream row sent with each request.
    pub rows: Vec<usize>,
}

/// How long the generator waits for stragglers once the schedule ends.
const DRAIN: Duration = Duration::from_secs(10);
/// How often a connection with requests in flight checks for replies.
/// Socket read timeouts are rounded to scheduler ticks, which would make
/// the generator late by up to a tick; sleeps are precise, so the
/// generator polls a non-blocking socket between sleeps instead.
const POLL: Duration = Duration::from_micros(100);

/// Drives one connection open-loop: writes each frame when it falls due,
/// whether or not earlier replies have arrived, and reads replies in
/// between. When `tracer` is on, each request records a `loadgen.request`
/// span (due to reply) with a `loadgen.write` child.
///
/// # Errors
///
/// Transport failures and undecodable replies.
pub fn drive_connection(
    addr: SocketAddr,
    stream_rows: &[Vec<f64>],
    plan: &ConnectionPlan,
    start: Instant,
    tracer: &mut Tracer,
    first_request: u64,
) -> Result<Vec<Outcome>, String> {
    let io = |e: std::io::Error| format!("loadgen connection: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_nonblocking(true).map_err(io)?;
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let now = || start.elapsed().as_nanos() as u64;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(plan.due.len());
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut write_spans: Vec<usize> = Vec::new();
    let (mut outbox, mut inbox): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
    let mut chunk = [0u8; 4096];
    let end = plan.due.last().copied().unwrap_or(0) + DRAIN.as_nanos() as u64;
    let mut next = 0;
    while next < plan.due.len() || !in_flight.is_empty() {
        while next < plan.due.len() && plan.due[next] <= now() {
            let row = plan.rows[next];
            encode_request(&stream_rows[row], &mut outbox);
            let sent = now();
            flush(&mut stream, &mut outbox).map_err(io)?;
            write_spans.push(tracer.record(
                "loadgen.write",
                first_request + next as u64,
                at(sent),
                Instant::now(),
                None,
            ));
            outcomes.push(Outcome {
                row,
                due: plan.due[next],
                sent,
                done: None,
                reply: None,
            });
            in_flight.push_back(next);
            next += 1;
        }
        flush(&mut stream, &mut outbox).map_err(io)?;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => inbox.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        let mut used = 0;
        while let Some((reply, len)) = decode_reply(&inbox[used..])? {
            used += len;
            let done = now();
            let k = in_flight
                .pop_front()
                .ok_or("reply with no request in flight")?;
            outcomes[k].done = Some(done);
            outcomes[k].reply = Some(reply);
            let req = tracer.record(
                "loadgen.request",
                first_request + k as u64,
                at(plan.due[k]),
                at(done),
                None,
            );
            // The write span was recorded before its request ended.
            tracer.set_parent(write_spans[k], req);
        }
        inbox.drain(..used);
        let t = now();
        if t > end {
            break;
        }
        let until_due = plan
            .due
            .get(next)
            .map_or(u64::MAX, |&d| d.saturating_sub(t));
        let nap = if in_flight.is_empty() && outbox.is_empty() {
            until_due
        } else {
            until_due.min(POLL.as_nanos() as u64)
        };
        if nap > 0 && nap != u64::MAX {
            std::thread::sleep(Duration::from_nanos(nap));
        }
    }
    Ok(outcomes)
}

/// Writes as much of `outbox` as the non-blocking socket takes now.
fn flush(stream: &mut TcpStream, outbox: &mut Vec<u8>) -> std::io::Result<()> {
    let mut written = 0;
    while written < outbox.len() {
        match stream.write(&outbox[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => written += k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    outbox.drain(..written);
    Ok(())
}

/// Closed-loop saturation: `connections` clients each sending their next
/// request as soon as the previous reply arrives, for `duration`.
/// Returns answered requests per second.
///
/// # Errors
///
/// Transport failures and non-score replies.
pub fn saturation_rate(
    addr: SocketAddr,
    stream_rows: &[Vec<f64>],
    connections: usize,
    duration: Duration,
) -> Result<f64, String> {
    let start = Instant::now();
    let counts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || -> Result<u64, String> {
                    let io = |e: std::io::Error| format!("saturation connection: {e}");
                    let mut stream = TcpStream::connect(addr).map_err(io)?;
                    stream.set_nodelay(true).map_err(io)?;
                    let mut frame = Vec::new();
                    let mut inbox = Vec::new();
                    let mut chunk = [0u8; 64];
                    let mut answered = 0u64;
                    while start.elapsed() < duration {
                        let row =
                            &stream_rows[(c + connections * answered as usize) % stream_rows.len()];
                        frame.clear();
                        encode_request(row, &mut frame);
                        stream.write_all(&frame).map_err(io)?;
                        loop {
                            if let Some((reply, len)) = decode_reply(&inbox)? {
                                inbox.drain(..len);
                                match reply {
                                    Reply::Score(_) => break,
                                    other => return Err(format!("saturation probe got {other:?}")),
                                }
                            }
                            let k = stream.read(&mut chunk).map_err(io)?;
                            if k == 0 {
                                return Err("server closed the connection".into());
                            }
                            inbox.extend_from_slice(&chunk[..k]);
                        }
                        answered += 1;
                    }
                    Ok(answered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect::<Result<Vec<u64>, String>>()
    })?;
    Ok(counts.iter().sum::<u64>() as f64 / start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(42, 500.0, Duration::from_secs(4));
        let b = poisson_schedule(42, 500.0, Duration::from_secs(4));
        let c = poisson_schedule(43, 500.0, Duration::from_secs(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
        assert_eq!(a.len(), 2000);
        // Uniform placement: about half the arrivals in each half.
        let early = a.iter().filter(|&&t| t < 2_000_000_000).count();
        assert!(
            (early as f64 - 1000.0).abs() < 120.0,
            "{early} in the first half"
        );
    }

    #[test]
    fn derived_seeds_differ_per_salt() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    fn reply_frames_decode_incrementally() {
        let mut buf = vec![0u8];
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        buf.extend_from_slice(&[2, 3, 0, 0, 0]);
        buf.extend_from_slice(b"ful");
        assert_eq!(decode_reply(&buf[..5]), Ok(None));
        assert_eq!(decode_reply(&buf), Ok(Some((Reply::Score(1.5), 9))));
        assert_eq!(decode_reply(&buf[9..16]), Ok(None));
        assert_eq!(
            decode_reply(&buf[9..]),
            Ok(Some((Reply::Shed("ful".into()), 8)))
        );
        assert!(decode_reply(&[9]).is_err());

        let mut req = Vec::new();
        encode_request(&[1.0, -2.0], &mut req);
        assert_eq!(req.len(), 4 + 16);
        assert_eq!(&req[..4], &2u32.to_le_bytes());
    }
}

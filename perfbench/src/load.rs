//! serve-mixed's load generator: an open loop, then closed bursts.
//!
//! In the open loop (phase 0) requests are released at their scheduled due
//! times regardless of how fast replies come back, onto at most `conns`
//! keep-alive connections. Latency is timed from the due time, so a stall
//! also charges the wait it imposes on later requests; `sent - due` is the
//! generator's own lag. Each burst (phase k > 0) releases all its requests
//! at once onto the same number of connections; its wall time, from release
//! to the last reply, is the time the daemon needs to clear that backlog.
//!
//! Prints one `req <phase> <kind> <id> <due_ns> <sent_ns> <done_ns> <status>
//! <ok>` line per request (times from the start of its phase), one `burst
//! <phase> <wall_ns>` line per burst, then `stat <name> <delta>` lines: the
//! change in the daemon's `GET /stats` counters over the open loop.

use crate::workload::{Entry, Manifest};
use dds_cli::serve::client::{self, verify_body, Conn};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A keep-alive connection that reconnects after the daemon closes it,
/// retrying once when a reused connection turns out to be closed.
struct Link<'a> {
    addr: &'a SocketAddr,
    conn: Option<Conn>,
}

impl Link<'_> {
    fn request(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        let reused = self.conn.is_some();
        let result = match &mut self.conn {
            Some(conn) => conn.request("POST", path, body),
            None => Conn::connect(self.addr)
                .and_then(|conn| self.conn.insert(conn).request("POST", path, body)),
        };
        match result {
            Ok(r) => {
                if r.closed {
                    self.conn = None;
                }
                Ok((r.status, r.body))
            }
            Err(_) if reused => {
                self.conn = None;
                self.request(path, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// The integer after `"key": ` in a `/stats` document.
fn stat(doc: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

const STATS: [&str; 9] = [
    "requests",
    "connections",
    "engine_runs",
    "cache_hits",
    "spec_errors",
    "timeouts",
    "rejected",
    "search_ns",
    "certify_ns",
];

struct Sample {
    idx: usize,
    sent: Duration,
    done: Duration,
    status: u16,
    body: String,
}

/// Sends `plan` (`(due_us, entry index)`, in due order) over `conns`
/// connections, each request at its due time from the start; returns the
/// samples in plan order.
fn drive(addr: &SocketAddr, plan: &[(u64, usize)], bodies: &[String], conns: usize) -> Vec<Sample> {
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut link = Link { addr, conn: None };
                    let mut out = Vec::new();
                    loop {
                        let next = rx
                            .lock()
                            .expect("no worker panics holding the queue")
                            .recv();
                        let Ok(n) = next else { break };
                        let idx = plan[n].1;
                        let sent = t0.elapsed();
                        let (status, body) = link
                            .request("/verify", &bodies[idx])
                            .unwrap_or_else(|e| (0, e.to_string()));
                        out.push(Sample {
                            idx: n,
                            sent,
                            done: t0.elapsed(),
                            status,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        for (n, &(due_us, _)) in plan.iter().enumerate() {
            if let Some(wait) = Duration::from_micros(due_us).checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            tx.send(n).expect("workers outlive the schedule");
        }
        drop(tx);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.idx);
    samples
}

/// Warms the hot set, drives the open loop over the phase-0 requests due
/// before `until_us`, then (with `bursts`) each burst in turn, and prints
/// the samples, burst times and `/stats` deltas. Returns the number of
/// failed requests.
pub fn run(
    addr: &SocketAddr,
    m: &Manifest,
    conns: usize,
    until_us: u64,
    bursts: bool,
) -> Result<usize, String> {
    let bodies: Vec<String> = m
        .entries
        .iter()
        .map(|e| match e {
            Entry::Serve { id, src, .. } => verify_body(src, Some(id), None),
            _ => String::new(),
        })
        .collect();
    let mut failed = 0;

    // Warm-up: every hot spec once, so the loop's repeats are cache hits;
    // these replies are the references later hits must match byte for byte.
    // Control connections are dropped straight after use: an idle
    // keep-alive connection would pin one of the daemon's workers.
    let mut warm = Link { addr, conn: None };
    let mut reference: Vec<Option<String>> = vec![None; m.entries.len()];
    for (i, e) in m.entries.iter().enumerate() {
        let Entry::Serve {
            id, kind, expect, ..
        } = e
        else {
            continue;
        };
        if kind != "hot" {
            continue;
        }
        let (status, body) = warm
            .request("/verify", &bodies[i])
            .map_err(|e| format!("warm-up {id}: {e}"))?;
        if status != 200 || !body.contains(&format!("\"outcome\":\"{expect}\"")) {
            return Err(format!(
                "warm-up {id}: status {status}, expected outcome `{expect}`"
            ));
        }
        reference[i] = Some(dds_cli::render::normalize_wall_ns(&body));
    }

    drop(warm);
    let stats = || -> Result<String, String> {
        client::stats(addr)
            .map(|r| r.body)
            .map_err(|e| format!("GET /stats: {e}"))
    };
    let phase_plan = |phase: u32| -> Vec<(u64, usize)> {
        m.schedule
            .iter()
            .filter(|&&(p, due, _)| p == phase && (phase > 0 || due < until_us))
            .map(|&(_, due, idx)| (due, idx))
            .collect()
    };
    let before = stats()?;
    let open = phase_plan(0);
    let mut phases = vec![(0, drive(addr, &open, &bodies, conns), open)];
    let after = stats()?;
    let last = m.schedule.iter().map(|&(p, _, _)| p).max().unwrap_or(0);
    for phase in (1..=last).filter(|_| bursts) {
        let plan = phase_plan(phase);
        phases.push((phase, drive(addr, &plan, &bodies, conns), plan));
    }

    let mut out = String::new();
    for (phase, samples, plan) in &phases {
        for s in samples {
            let (due_us, idx) = plan[s.idx];
            let Entry::Serve {
                id, kind, expect, ..
            } = &m.entries[idx]
            else {
                unreachable!("the schedule names serve entries only");
            };
            let ok = match kind.as_str() {
                "hot" => {
                    s.status == 200
                        && reference[idx].as_deref()
                            == Some(dds_cli::render::normalize_wall_ns(&s.body).as_str())
                }
                "cold" => s.status == 200 && s.body.contains(&format!("\"outcome\":\"{expect}\"")),
                _ => s.status == 422,
            };
            if !ok {
                failed += 1;
                eprintln!("serve request {id} ({kind}) failed: status {}", s.status);
            }
            out.push_str(&format!(
                "req {phase} {kind} {id} {} {} {} {} {}\n",
                due_us * 1000,
                s.sent.as_nanos(),
                s.done.as_nanos(),
                s.status,
                u8::from(ok)
            ));
        }
        if *phase > 0 {
            let wall = samples.iter().map(|s| s.done).max().unwrap_or_default();
            out.push_str(&format!("burst {phase} {}\n", wall.as_nanos()));
        }
    }
    for key in STATS {
        let delta = stat(&after, key)
            .zip(stat(&before, key))
            .map(|(a, b)| a.saturating_sub(b))
            .ok_or_else(|| format!("GET /stats lacks `{key}`"))?;
        out.push_str(&format!("stat {key} {delta}\n"));
    }
    print!("{out}");
    Ok(failed)
}

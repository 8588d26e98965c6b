//! The service path: the shipped `semisortd` on loopback, fed over at most
//! `nproc` connections with requests of one key distribution, cycling
//! Semisort / GroupBy / CountByKey.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use semisortd::{Client, Op, Request, Response, RetryPolicy};
use workloads::Distribution;

use crate::check::{reply_is_sound, Expected};
use crate::report::Report;

/// Distinct request bodies; request `j` carries body `j % BODIES` and op
/// `OPS[j % 3]`, so all 24 pairings recur.
const BODIES: usize = 8;
const OPS: [Op; 3] = [Op::Semisort, Op::GroupBy, Op::CountByKey];
/// A reply slower than this (from when its request was due) is a failed
/// request.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Open-loop arrival rate, requests/s: fixed, and below the daemon's
/// capacity on every workload even while the host is busy.
pub const OPEN_RATE: f64 = 40.0;

pub struct Service<'a> {
    pub dist: Distribution,
    /// Records per request.
    pub req_n: usize,
    pub seed: u64,
    /// Open-loop phase length (traced run only).
    pub open_secs: f64,
    /// Closed-loop phase length.
    pub closed_secs: f64,
    pub threads: usize,
    pub semisortd: &'a Path,
}

/// The requests, with what their replies must contain.
pub struct Corpus {
    /// Per request body: the reply's expected per-key counts.
    expected: Vec<Expected>,
    pub requests: Vec<Request>,
}

impl Corpus {
    pub fn new(dist: Distribution, req_n: usize, seed: u64) -> Corpus {
        let bodies: Vec<Vec<(u64, u64)>> = (0..BODIES as u64)
            .map(|b| workloads::generate(dist, req_n, seed.wrapping_mul(1_000_003).wrapping_add(b)))
            .collect();
        let expected = bodies.iter().map(|b| Expected::of(b)).collect();
        let requests = (0..BODIES * OPS.len())
            .map(|j| Request {
                op: OPS[j % OPS.len()],
                deadline_ms: 0,
                records: bodies[j % BODIES].clone(),
            })
            .collect();
        Corpus { expected, requests }
    }

    pub fn request(&self, j: usize) -> &Request {
        &self.requests[j % self.requests.len()]
    }

    pub fn check(&self, j: usize, reply: &Response) -> Result<(), String> {
        reply_is_sound(&self.request(j).records, &self.expected[j % BODIES], reply)
    }
}

/// A running `semisortd --port 0`.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(bin: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .env("RAYON_NUM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let port = line
            .split("\"port\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u16>().ok());
        let Some(port) = port.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("semisortd did not report a port: {line:?}"));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr: format!("127.0.0.1:{port}"),
        })
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone(), RetryPolicy::none())
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// The daemon's `semisort-stats-v2` JSON (service counters included).
    pub fn stats(&self) -> Result<semisort::Json, String> {
        let text = self
            .client()
            .stats()
            .map_err(|e| format!("stats request: {e}"))?;
        semisort::Json::parse(&text).map_err(|e| format!("stats JSON: {e:?}"))
    }

    /// Drain and shut the daemon down, waiting for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let ack = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && ack.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("semisortd exited with {status}, ack {ack:?}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("semisortd did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was not stopped cleanly; never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Replies one connection keeps to check after its phase ends, so checking
/// takes no CPU from the daemon while it is measured; past this many, each
/// further reply is checked as it arrives.
const DEFERRED_PER_CONN: usize = 250;

/// The outcomes of one connection's requests, in send order.
struct Outcomes<'c> {
    corpus: &'c Corpus,
    pool: &'c rayon::ThreadPool,
    results: Vec<Result<(), String>>,
    /// `(index into results, request number, reply)` still to check.
    deferred: Vec<(usize, usize, Response)>,
}

impl<'c> Outcomes<'c> {
    fn new(corpus: &'c Corpus, pool: &'c rayon::ThreadPool) -> Self {
        Outcomes {
            corpus,
            pool,
            results: Vec::new(),
            deferred: Vec::new(),
        }
    }

    fn record(&mut self, j: usize, reply: Result<Response, semisortd::ClientError>) {
        let result = match reply {
            Ok(r) if self.deferred.len() < DEFERRED_PER_CONN => {
                self.deferred.push((self.results.len(), j, r));
                Ok(())
            }
            Ok(r) => self.pool.install(|| self.corpus.check(j, &r)),
            Err(e) => Err(format!("request failed: {e}")),
        };
        self.results.push(result);
    }

    fn finish(mut self) -> Vec<Result<(), String>> {
        for (slot, j, r) in std::mem::take(&mut self.deferred) {
            self.results[slot] = self.pool.install(|| self.corpus.check(j, &r));
        }
        self.results
    }
}

/// Run `body` on `conns` client threads, each with its own connection and
/// outcome list. Deferred replies are checked only after every thread has
/// joined, so no check overlaps a measured request.
fn per_connection<T, F>(
    d: &Daemon,
    corpus: &Corpus,
    conns: usize,
    pool: &rayon::ThreadPool,
    body: F,
) -> Vec<(T, Vec<Result<(), String>>)>
where
    T: Send,
    F: Fn(usize, &mut Client, &mut Outcomes) -> T + Sync,
{
    std::thread::scope(|s| {
        let body = &body;
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = d.client();
                    let mut outcomes = Outcomes::new(corpus, pool);
                    let t = body(c, &mut client, &mut outcomes);
                    (t, outcomes)
                })
            })
            .collect();
        let joined: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect();
        joined
            .into_iter()
            .map(|(t, outcomes)| (t, outcomes.finish()))
            .collect()
    })
}

/// One request of the open-loop phase.
pub struct Sample {
    /// From when the request was due to when its reply arrived.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    pub result: Result<(), String>,
}

/// Send request `i` at `start + i / OPEN_RATE` over `conns` connections
/// until `secs` have passed, timing each from when it was due.
pub fn open_loop(
    d: &Daemon,
    corpus: &Corpus,
    secs: f64,
    conns: usize,
    pool: &rayon::ThreadPool,
) -> Vec<Sample> {
    let next = Mutex::new(0usize);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(secs);
    let per_conn = per_connection(d, corpus, conns, pool, |_, client, outcomes| {
        let mut times = Vec::new();
        loop {
            let i = {
                let mut g = next.lock().expect("no holder panics");
                *g += 1;
                *g - 1
            };
            let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
            if due >= end {
                return times;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = client.request(corpus.request(i));
            let done = Instant::now();
            outcomes.record(i, reply);
            times.push(((done - due).as_secs_f64(), (sent - due).as_secs_f64()));
        }
    });
    per_conn
        .into_iter()
        .flat_map(|(times, results)| {
            times
                .into_iter()
                .zip(results)
                .map(|((lat, late), result)| Sample {
                    latency_ms: lat * 1e3,
                    late_ms: late * 1e3,
                    result,
                })
        })
        .collect()
}

/// Keep `conns` requests outstanding for `secs`; returns every request's
/// outcome and the wall seconds until the last reply.
pub fn closed_loop(
    d: &Daemon,
    corpus: &Corpus,
    secs: f64,
    conns: usize,
    pool: &rayon::ThreadPool,
) -> (Vec<Result<(), String>>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_conn = per_connection(d, corpus, conns, pool, |c, client, outcomes| {
        let mut j = c;
        let mut last = start;
        while last < end {
            let reply = client.request(corpus.request(j));
            let ms = last.elapsed().as_secs_f64() * 1e3;
            last = Instant::now();
            if ms > LATENCY_LIMIT_MS {
                outcomes.results.push(Err(format!(
                    "{ms:.1} ms is over the {LATENCY_LIMIT_MS} ms limit"
                )));
            } else {
                outcomes.record(j, reply);
            }
            j += conns;
        }
        last
    });
    let last = per_conn.iter().map(|(t, _)| *t).max().unwrap_or(start);
    let results = per_conn.into_iter().flat_map(|(_, r)| r).collect();
    (results, (last - start).as_secs_f64())
}

/// Start the daemon and wait for its first (cold) reply; returns the
/// daemon and the seconds from spawn to that reply.
pub fn start(
    sv: &Service,
    corpus: &Corpus,
    rep: &mut Report,
    pool: &rayon::ThreadPool,
) -> Option<(Daemon, f64)> {
    let t = Instant::now();
    let d = match Daemon::spawn(sv.semisortd, sv.threads) {
        Ok(d) => d,
        Err(e) => {
            rep.check("semisortd start", Err(e));
            return None;
        }
    };
    let reply = d.client().request(corpus.request(0));
    let secs = t.elapsed().as_secs_f64();
    let result = match reply {
        Ok(r) => pool.install(|| corpus.check(0, &r)),
        Err(e) => Err(format!("request failed: {e}")),
    };
    rep.check("semisortd first reply", result);
    Some((d, secs))
}

/// Send every distinct request over every connection once, untimed, so
/// each shard's engine has served each operation and request body before
/// anything is measured (their first calls grow pooled scratch).
pub fn warm_up(
    d: &Daemon,
    corpus: &Corpus,
    conns: usize,
    rep: &mut Report,
    pool: &rayon::ThreadPool,
) {
    let per_conn = per_connection(d, corpus, conns, pool, |_, client, outcomes| {
        for j in 0..corpus.requests.len() {
            outcomes.record(j, client.request(corpus.request(j)));
        }
    });
    for r in per_conn.into_iter().flat_map(|(_, r)| r) {
        rep.check("warm-up request", r);
    }
}

/// Record the open-loop samples as operations; returns latencies and
/// generator lateness of the successful requests.
pub fn tally_open(rep: &mut Report, samples: Vec<Sample>) -> (Vec<f64>, Vec<f64>) {
    let mut lat = Vec::new();
    let mut late = Vec::new();
    for s in samples {
        let result = s.result.and_then(|()| {
            if s.latency_ms > LATENCY_LIMIT_MS {
                Err(format!(
                    "{:.1} ms is over the {LATENCY_LIMIT_MS} ms limit",
                    s.latency_ms
                ))
            } else {
                Ok(())
            }
        });
        if result.is_ok() {
            lat.push(s.latency_ms);
            late.push(s.late_ms);
        }
        rep.check("open-loop request", result);
    }
    (lat, late)
}

/// The `p`-quantile (0..1) of `v` by nearest rank.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// What one round of the untraced service part measured.
pub struct Round {
    /// Spawn to the first (cold) reply.
    pub setup_s: f64,
    /// Closed-loop requests that succeeded, and the loop's wall seconds.
    pub ok: usize,
    pub wall_s: f64,
    pub peak_rss_mb: Option<f64>,
}

/// One round of the untraced service part: start the daemon (set-up), warm
/// it up, run the closed loop for `secs` and shut it down. Every round
/// starts a fresh daemon, so `setup_s` and `svc_req_per_s` take their
/// samples across the whole run.
pub fn round(
    sv: &Service,
    corpus: &Corpus,
    secs: f64,
    rep: &mut Report,
    pool: &rayon::ThreadPool,
) -> Option<Round> {
    let (d, setup_s) = start(sv, corpus, rep, pool)?;
    let conns = sv.threads;
    warm_up(&d, corpus, conns, rep, pool);
    let (results, wall_s) = closed_loop(&d, corpus, secs, conns, pool);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    for r in results {
        rep.check("closed-loop request", r);
    }
    let peak_rss_mb = d.peak_rss_mib();
    rep.check("semisortd shutdown", Daemon::stop(d));
    Some(Round {
        setup_s,
        ok,
        wall_s,
        peak_rss_mb,
    })
}

//! The traced run: the per-layer numbers, from one separate run on the
//! same inputs as the timed runs. Engines run with
//! `TelemetryLevel::Counters`, scheduler capture and the scheduler's event
//! rings on; the phase times, spans, counters and scheduler deltas come
//! from the returned `SemisortStats`, and timers placed around public
//! calls supply the rest. One Chrome trace per backend is written to the
//! work directory.

use std::time::Instant;

use rayon::trace::{SchedulerStats, TraceEventKind};
use semisort::{SemisortConfig, SemisortStats, Semisorter, TelemetryLevel};
use semisortd::{Op, Request, Response};

use crate::batch::{cli_runs, engine_config, timed_call, Batch, CliInput, BACKENDS};
use crate::ceil;
use crate::check::{is_semisort_of, Input};
use crate::report::{median, Report};
use crate::service::{self, Corpus, Daemon, Service};

/// Warm traced calls per backend at `nproc` threads (each paired with an
/// untraced call on an untraced engine, for the overhead).
const TRACED_CALLS: usize = 3;
/// Warm calls per backend on a one-thread pool.
const ONE_THREAD_CALLS: usize = 2;
/// In-process cold calls, the baseline of `cli.io_s`.
const COLD_CALLS: usize = 2;
/// CLI runs, at least, for `cli.io_s`.
const CLI_REPS: usize = 2;

fn traced_config(strategy: semisort::ScatterStrategy) -> SemisortConfig {
    engine_config(strategy)
        .to_builder()
        .telemetry(TelemetryLevel::Counters)
        .capture_scheduler(true)
        .build()
        .expect("telemetry and scheduler capture keep a valid config valid")
}

/// Microseconds of `[lo, hi)` covered by parks in the scheduler delta's
/// event rings, summed over workers.
fn parked_us(sched: &SchedulerStats, lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    for w in &sched.workers {
        for ev in &w.events {
            if ev.kind == TraceEventKind::Park {
                let (s, e) = (ev.start_us.max(lo), (ev.start_us + ev.dur_us).min(hi));
                total += e.saturating_sub(s);
            }
        }
    }
    total
}

/// Share of the workers' time inside the named span (or the whole call,
/// for `None`) that they spent parked.
fn parked_frac(stats: &SemisortStats, span: Option<&str>) -> Option<f64> {
    let sched = stats.scheduler.as_ref()?;
    let spans: Vec<_> = stats
        .spans
        .iter()
        .filter(|s| span.is_none_or(|name| s.name == name))
        .collect();
    let lo = spans.iter().map(|s| s.start_us).min()?;
    let hi = spans.iter().map(|s| s.end_us).max()?;
    let workers = sched.workers.len().max(1) as f64;
    if span.is_none() {
        // The park-time counter is exact even when a ring wrapped.
        return Some(sched.total_park_time_us() as f64 / (workers * (hi - lo).max(1) as f64));
    }
    let parked = parked_us(sched, lo, hi);
    Some(parked as f64 / (workers * (hi - lo).max(1) as f64))
}

/// The in-process batch layers, the machine ceilings and the comparator;
/// returns the median in-process cold call for [`cli_layer`].
pub fn batch_layers(b: &Batch, input: &Input, pool: &rayon::ThreadPool, rep: &mut Report) -> f64 {
    let n = input.records.len() as f64;
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool shim never fails to build");
    let mut traced_walls = [0.0f64; 2];
    let mut plain_walls = [0.0f64; 2];
    let mut scatter_secs = [0.0f64; 2];
    let mut steals = Vec::new();
    let mut setup_batch = 0.0;

    for (i, (strategy, prefix)) in BACKENDS.iter().enumerate() {
        let mut traced_stats: Vec<SemisortStats> = Vec::new();
        let mut traced_wall = Vec::new();
        let mut plain_stats: Vec<SemisortStats> = Vec::new();
        let mut plain_wall = Vec::new();
        pool.install(|| {
            let mut plain = Semisorter::new(engine_config(*strategy)).expect("valid config");
            let t = Instant::now();
            let cold = plain.sort_pairs(input.records);
            setup_batch += t.elapsed().as_secs_f64();
            rep.check(
                &format!("{prefix} cold call"),
                cold.map_err(|e| e.to_string())
                    .and_then(|out| is_semisort_of(input, &out)),
            );
            let mut traced = Semisorter::new(traced_config(*strategy)).expect("valid config");
            rayon::trace::set_events_enabled(true);
            let cold = traced.sort_pairs(input.records);
            rayon::trace::set_events_enabled(false);
            rep.check(
                &format!("{prefix} traced cold call"),
                cold.map_err(|e| e.to_string())
                    .and_then(|out| is_semisort_of(input, &out)),
            );
            for _ in 0..TRACED_CALLS {
                rayon::trace::set_events_enabled(true);
                let call = timed_call(&mut traced, input.records);
                rayon::trace::set_events_enabled(false);
                rep.check(
                    &format!("{prefix} traced call"),
                    call.as_ref()
                        .map_err(Clone::clone)
                        .and_then(|c| is_semisort_of(input, &c.out)),
                );
                if let Ok(c) = call {
                    traced_wall.push(c.secs);
                    traced_stats.push(c.stats);
                }
                let call = timed_call(&mut plain, input.records);
                rep.check(
                    &format!("{prefix} untraced call"),
                    call.as_ref()
                        .map_err(Clone::clone)
                        .and_then(|c| is_semisort_of(input, &c.out)),
                );
                if let Ok(c) = call {
                    plain_wall.push(c.secs);
                    plain_stats.push(c.stats);
                }
            }
        });
        if traced_stats.is_empty() || plain_stats.is_empty() {
            continue;
        }
        traced_walls[i] = median(&traced_wall);
        plain_walls[i] = median(&plain_wall);

        let phase = |f: fn(&SemisortStats) -> std::time::Duration| -> Vec<f64> {
            traced_stats.iter().map(|s| f(s).as_secs_f64()).collect()
        };
        rep.median(
            &format!("{prefix}.sample_sort_s"),
            "s",
            &phase(|s| s.t_sample_sort),
        );
        rep.median(
            &format!("{prefix}.construct_buckets_s"),
            "s",
            &phase(|s| s.t_construct_buckets),
        );
        rep.median(&format!("{prefix}.scatter_s"), "s", &phase(|s| s.t_scatter));
        rep.median(
            &format!("{prefix}.local_sort_s"),
            "s",
            &phase(|s| s.t_local_sort),
        );
        if *prefix == "cas" {
            rep.median("cas.pack_s", "s", &phase(|s| s.t_pack));
        }
        let fracs = |span: Option<&str>| -> Vec<f64> {
            traced_stats
                .iter()
                .filter_map(|s| parked_frac(s, span))
                .collect()
        };
        for (name, span) in [("scatter", Some("scatter")), ("call", None)] {
            let v = fracs(span);
            if !v.is_empty() {
                rep.median(&format!("{prefix}.parked_frac.{name}"), "ratio", &v);
            }
        }
        steals.extend(
            traced_stats
                .iter()
                .filter_map(|s| s.scheduler.as_ref())
                .map(|s| s.total_steals() as f64),
        );
        let warm_grows: Vec<f64> = traced_stats
            .iter()
            .chain(&plain_stats)
            .map(|s| f64::from(s.scratch_grows))
            .collect();
        rep.value(
            &format!("{prefix}.scratch_grows"),
            "count",
            warm_grows.iter().sum(),
            warm_grows.len(),
        );
        let last = traced_stats.last().expect("non-empty");
        if *prefix == "cas" {
            let retries: Vec<f64> = traced_stats.iter().map(|s| f64::from(s.retries)).collect();
            let mean_retries = retries.iter().sum::<f64>() / retries.len() as f64;
            rep.value("cas.retries", "count", mean_retries, retries.len());
            rep.value(
                "cas.useful_attempt_frac",
                "ratio",
                1.0 / (1.0 + mean_retries),
                retries.len(),
            );
            let (att, fail) = traced_stats.iter().fold((0u64, 0u64), |(a, f), s| {
                (a + s.telemetry.cas_attempts, f + s.telemetry.cas_failures)
            });
            rep.value(
                "cas.cas_fail_frac",
                "ratio",
                fail as f64 / att.max(1) as f64,
                traced_stats.len(),
            );
            let calls = traced_stats.len() as f64;
            rep.value(
                "cas.cas_per_record",
                "ratio",
                att as f64 / (n * calls),
                traced_stats.len(),
            );
            rep.value(
                "cas.slots_per_record",
                "ratio",
                last.total_slots as f64 / n,
                1,
            );
            rep.value(
                "engine.heavy_frac",
                "ratio",
                last.heavy_records as f64 / n,
                1,
            );
        } else {
            let v = |f: fn(&SemisortStats) -> usize| -> Vec<f64> {
                traced_stats.iter().map(|s| f(s) as f64).collect()
            };
            rep.median("inplace.cycles", "count", &v(|s| s.inplace_cycles));
            rep.median(
                "inplace.swap_flushes",
                "count",
                &v(|s| s.swap_buffer_flushes),
            );
        }
        let path = b.work_dir.join(format!("trace-{prefix}.json"));
        match std::fs::write(&path, semisort::chrome_trace(last).to_string()) {
            Ok(()) => eprintln!("chrome trace: {}", path.display()),
            Err(e) => rep.check("write chrome trace", Err(e.to_string())),
        }

        // The same backend on one thread.
        let nt_scatter: Vec<f64> = plain_stats
            .iter()
            .map(|s| s.t_scatter.as_secs_f64())
            .collect();
        scatter_secs[i] = median(&nt_scatter);
        let mut wall_1t = Vec::new();
        let mut scatter_1t = Vec::new();
        one.install(|| {
            let mut engine = Semisorter::new(engine_config(*strategy)).expect("valid config");
            let cold = engine.sort_pairs(input.records);
            rep.check(
                &format!("{prefix} 1-thread cold call"),
                cold.map_err(|e| e.to_string())
                    .and_then(|out| is_semisort_of(input, &out)),
            );
            for _ in 0..ONE_THREAD_CALLS {
                let call = timed_call(&mut engine, input.records);
                rep.check(
                    &format!("{prefix} 1-thread call"),
                    call.as_ref()
                        .map_err(Clone::clone)
                        .and_then(|c| is_semisort_of(input, &c.out)),
                );
                if let Ok(c) = call {
                    wall_1t.push(c.secs);
                    scatter_1t.push(c.stats.t_scatter.as_secs_f64());
                }
            }
        });
        if !wall_1t.is_empty() {
            rep.median(&format!("{prefix}.call_s_1t"), "s", &wall_1t);
            rep.value(
                &format!("{prefix}.speedup"),
                "ratio",
                median(&wall_1t) / plain_walls[i],
                wall_1t.len(),
            );
            rep.value(
                &format!("{prefix}.scatter_speedup"),
                "ratio",
                median(&scatter_1t) / scatter_secs[i],
                scatter_1t.len(),
            );
        }
    }
    if !steals.is_empty() {
        rep.median("sched.steals_per_call", "count", &steals);
    }
    if traced_walls.iter().all(|&w| w > 0.0) {
        let overhead = traced_walls.iter().sum::<f64>() / plain_walls.iter().sum::<f64>() - 1.0;
        rep.value("trace.overhead_frac", "ratio", overhead, 2 * TRACED_CALLS);
    }
    rep.value("setup.batch_s", "s", setup_batch, 1);

    // Machine ceilings, and achieved rates against them.
    let c = pool.install(|| ceil::measure(b.threads));
    eprintln!(
        "ceilings: LLC {} MiB, buffer {} MiB",
        c.llc_bytes >> 20,
        c.buffer_bytes >> 20
    );
    rep.value("ceil.copy_gbps", "GB/s", c.copy_gbps, 1);
    rep.value("ceil.rand16_mops", "Mop/s", c.rand16_mops, 1);
    rep.value("ceil.buffer_mb", "MiB", (c.buffer_bytes >> 20) as f64, 1);
    if scatter_secs[0] > 0.0 {
        // RandomCas places each record with one random 16-byte write.
        rep.value(
            "cas.scatter_vs_rand16",
            "ratio",
            n / scatter_secs[0] / 1e6 / c.rand16_mops,
            1,
        );
    }
    if scatter_secs[1] > 0.0 {
        // Computed bytes for InPlace's scatter: copy-in (read + write),
        // counting pass (read), permutation (read + write): 5 × 16 B/record.
        let gbps = 80.0 * n / scatter_secs[1] / 1e9;
        rep.value("inplace.scatter_vs_copy", "ratio", gbps / c.copy_gbps, 1);
    }

    // The paper's comparator on the same input.
    let mut radix = Vec::new();
    for _ in 0..2 {
        let mut v = input.records.to_vec();
        let t = Instant::now();
        pool.install(|| parlay::radix_sort::radix_sort_pairs(&mut v));
        radix.push(t.elapsed().as_secs_f64());
        let sorted = v.windows(2).all(|w| w[0].0 <= w[1].0);
        rep.check(
            "radix sort",
            if sorted {
                pool.install(|| is_semisort_of(input, &v))
            } else {
                Err("not sorted".into())
            },
        );
    }
    rep.median("ref.radix_sort_s", "s", &radix);

    // In-process cold calls with the CLI's (default) configuration, the
    // baseline `cli_layer` subtracts.
    let mut cold = Vec::new();
    for _ in 0..COLD_CALLS {
        let t = Instant::now();
        let out = pool.install(|| {
            Semisorter::new(SemisortConfig::default()).and_then(|mut e| e.sort_pairs(input.records))
        });
        cold.push(t.elapsed().as_secs_f64());
        rep.check(
            "in-process cold call",
            out.map_err(|e| e.to_string())
                .and_then(|o| pool.install(|| is_semisort_of(input, &o))),
        );
    }
    median(&cold)
}

/// `cli.io_s`: the CLI's spawn-to-exit time less an in-process cold call on
/// the same input with the same configuration (`cold_s`).
pub fn cli_layer(
    b: &Batch,
    input: &Input,
    cold_s: f64,
    checker: &rayon::ThreadPool,
    rep: &mut Report,
) {
    let Some(file) = CliInput::write(b, input, rep) else {
        return;
    };
    let cli = cli_runs(b, &file, input, CLI_REPS, b.cli_seconds, checker, rep);
    if !cli.is_empty() {
        rep.value("cli.io_s", "s", median(&cli) - cold_s, cli.len());
    }
}

/// The response `semisortd` sends for `req`, computed in-process with the
/// same engine calls its shards make.
fn engine_reply(engine: &mut Semisorter, req: &Request) -> Result<Response, String> {
    let err = |e: semisort::SemisortError| e.to_string();
    Ok(match req.op {
        Op::Semisort => Response::Records(engine.sort_by_key(&req.records, |p| p.0).map_err(err)?),
        Op::GroupBy => {
            let sorted = engine.sort_by_key(&req.records, |p| p.0).map_err(err)?;
            let mut starts: Vec<u32> = vec![0];
            for i in 1..sorted.len() {
                if sorted[i].0 != sorted[i - 1].0 {
                    starts.push(u32::try_from(i).map_err(|e| e.to_string())?);
                }
            }
            starts.push(u32::try_from(sorted.len()).map_err(|e| e.to_string())?);
            Response::Groups {
                records: sorted,
                starts,
            }
        }
        _ => Response::Counts(
            engine
                .count_by_key(&req.records, |p| p.0)
                .map_err(err)?
                .into_iter()
                .map(|(k, c)| (k, c as u64))
                .collect(),
        ),
    })
}

/// The service layers: the engine and the codec in-process on an
/// `nproc`-worker pool that is dropped before the daemon starts, then the
/// daemon, its replies checked on `checker`.
pub fn service_layers(
    sv: &Service,
    corpus: &Corpus,
    checker: &rayon::ThreadPool,
    rep: &mut Report,
) {
    let count = corpus.requests.len();

    let mut engine_ms = Vec::new();
    let mut codec_ms = Vec::new();
    let mut heavy = Vec::new();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(sv.threads)
        .build()
        .expect("the pool shim never fails to build");
    pool.install(|| {
        let mut engine = Semisorter::new(SemisortConfig::default()).expect("valid config");
        for j in 0..2 * count {
            let req = corpus.request(j);
            let t = Instant::now();
            let reply = engine_reply(&mut engine, req);
            let dt = t.elapsed().as_secs_f64() * 1e3;
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    rep.check("in-process service call", Err(e));
                    continue;
                }
            };
            rep.check("in-process service call", corpus.check(j, &reply));
            if j < count {
                continue; // the first pass warms the engine
            }
            engine_ms.push(dt);
            if req.op == Op::Semisort {
                heavy.push(engine.last_stats().heavy_records as f64 / sv.req_n as f64);
            }
            let t = Instant::now();
            let frame = req.encode();
            let decoded = Request::decode(&frame[4..]);
            let out = reply.encode();
            let back = Response::decode(&out[4..]);
            codec_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let round_trip = decoded.as_ref() == Some(req) && back.as_ref() == Some(&reply);
            rep.check(
                "codec round trip",
                if round_trip {
                    Ok(())
                } else {
                    Err("codec round trip differs".into())
                },
            );
        }
    });
    // Idle pool workers poll for work; none may compete with the daemon.
    drop(pool);
    if engine_ms.is_empty() {
        return;
    }
    rep.median("svc.engine_ms", "ms", &engine_ms);
    rep.median("svc.codec_ms", "ms", &codec_ms);
    if !heavy.is_empty() {
        rep.median("svc.heavy_frac", "ratio", &heavy);
    }

    // The daemon, over loopback.
    let Some((d, setup)) = service::start(sv, corpus, rep, checker) else {
        return;
    };
    rep.value("setup.svc_s", "s", setup, 1);
    service::warm_up(&d, corpus, sv.threads, rep, checker);
    let samples = service::open_loop(&d, corpus, sv.open_secs, sv.threads, checker);
    let (lat, late) = service::tally_open(rep, samples);
    if !lat.is_empty() {
        let p50 = median(&lat);
        rep.value("svc.p50_ms", "ms", p50, lat.len());
        rep.value(
            "svc.p99_ms",
            "ms",
            service::percentile(&lat, 0.99),
            lat.len(),
        );
        rep.value(
            "svc.residual_ms",
            "ms",
            p50 - median(&engine_ms) - median(&codec_ms),
            lat.len(),
        );
        rep.value(
            "svc.gen_late_ms",
            "ms",
            service::percentile(&late, 0.99),
            late.len(),
        );
    }
    match d.stats() {
        Ok(json) => {
            let counter = |k: &str| {
                json.get("service")
                    .and_then(|s| s.get(k))
                    .and_then(semisort::Json::as_f64)
            };
            match (counter("shed_overload"), counter("deadline_exceeded")) {
                (Some(shed), Some(late)) => {
                    rep.value("svc.shed", "count", shed, 1);
                    rep.value("svc.deadline_exceeded", "count", late, 1);
                }
                _ => rep.check("semisortd stats", Err("no service counters".into())),
            }
        }
        Err(e) => rep.check("semisortd stats", Err(e)),
    }
    if let Some(rss) = d.peak_rss_mib() {
        rep.value("svc.peak_rss_mb", "MiB", rss, 1);
    }
    rep.check("semisortd shutdown", Daemon::stop(d));
}

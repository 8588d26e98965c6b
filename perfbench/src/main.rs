//! `perfbench` — the repository benchmark's measuring binary.
//!
//! ```sh
//! perfbench --workload <uniform-light|exp-heavy> --seed <n> \
//!           --seconds <s> --trace <0|1> --cli <semisort-cli> \
//!           --semisortd <semisortd> --work-dir <dir> [--smoke]
//! ```
//!
//! `perfbench/run.py` builds this binary and the shipped binaries it
//! drives, then calls it. Prints one detail record (fingerprint, every
//! metric with its sample count and quartiles) and, as the last line, the
//! result object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `perfbench/README.md` for what each metric means.

use std::path::PathBuf;

use bench::alloc_track::TrackingAllocator;
use workloads::Distribution;

mod batch;
mod ceil;
mod check;
mod report;
mod service;
mod traced;

use report::Report;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// The workload seed when `--seed` is not given. Seed 20150613 is held out:
/// it is never used while tuning a change and is kept for confirming a
/// claim (see README.md).
const DEFAULT_SEED: u64 = 1;

/// Records per batch input: the paper's representative inputs at
/// n = 2×10⁶, where a warm call takes ~0.2 s, so a run holds many of them
/// (at 10⁷ a call takes ~1.5 s and run medians followed the shared host's
/// drift, see README.md).
const BATCH_N: usize = 2_000_000;
/// Records per service request.
const REQUEST_N: usize = 50_000;
const SMOKE_BATCH_N: usize = 20_000;
const SMOKE_REQUEST_N: usize = 2_000;
/// How `--seconds` is split: warm engine calls, CLI runs and the service's
/// closed loop, each spread evenly over the rounds. The traced run's open
/// loop lasts `OPEN_SHARE`.
const BATCH_SHARE: f64 = 0.4;
const CLI_SHARE: f64 = 0.3;
const CLOSED_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.5;
/// Rounds per untraced run; `setup_s` takes one batch and one daemon
/// set-up from each. The shared host's speed drifts over tens of seconds,
/// so samples taken in rounds across the run vary less from run to run
/// than the same samples taken in one block.
const ROUNDS: usize = 5;

/// Each workload is one key distribution, scaled to the input size the way
/// the paper defines its representative inputs: uniform over `[size]`
/// (all light) and exponential with mean `size/10³` (mostly heavy).
fn workload_distribution(name: &str) -> Option<fn(usize) -> Distribution> {
    match name {
        "uniform-light" => Some(|size| Distribution::Uniform { n: size as u64 }),
        "exp-heavy" => Some(|size| Distribution::Exponential {
            lambda: size as f64 / 1_000.0,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    cli: PathBuf,
    semisortd: PathBuf,
    work_dir: PathBuf,
    metrics: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <uniform-light|exp-heavy> [--seed <n>] \
         [--seconds <s>] [--trace <0|1>] --cli <path> --semisortd <path> --work-dir <dir> \
         [--metrics <name,...>] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        cli: PathBuf::new(),
        semisortd: PathBuf::new(),
        work_dir: PathBuf::new(),
        metrics: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--cli" => args.cli = value.into(),
            "--semisortd" => args.semisortd = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            "--metrics" => args.metrics = value.split(',').map(str::to_string).collect(),
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds < 0.0 {
        usage();
    }
    args
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// What makes two results comparable: the machine and the configuration.
fn fingerprint(args: &Args, threads: usize, inputs: &str) -> Vec<(&'static str, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", args.workload.clone()),
        ("nproc", threads.to_string()),
        (
            "cpu_model",
            first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("kernel", kernel),
        (
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
        ("seed", args.seed.to_string()),
        ("inputs", inputs.to_string()),
        ("backends", "random-cas,inplace".into()),
        ("threads", threads.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("open_rate", service::OPEN_RATE.to_string()),
        ("smoke", args.smoke.to_string()),
    ]
}

fn main() {
    let args = parse_args();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create work dir {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let Some(dist_at) = workload_distribution(&args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let (n, req_n) = if args.smoke {
        (SMOKE_BATCH_N, SMOKE_REQUEST_N)
    } else {
        (BATCH_N, REQUEST_N)
    };
    let b = batch::Batch {
        seconds: args.seconds * BATCH_SHARE,
        cli_seconds: args.seconds * CLI_SHARE,
        threads,
        cli: &args.cli,
        work_dir: &args.work_dir,
    };
    let sv = service::Service {
        dist: dist_at(req_n),
        req_n,
        seed: args.seed,
        open_secs: args.seconds * OPEN_SHARE,
        closed_secs: args.seconds * CLOSED_SHARE,
        threads,
        semisortd: &args.semisortd,
    };
    let dist = dist_at(n);
    let steal_before = host_cpu();

    // Output checks outside the in-process part run inline on this thread.
    let checker = pool(1);
    let mut report = Report::default();
    // Input generation is outside every timer and outside set-up, on a pool
    // that is gone before anything is measured: idle workers of the pool
    // shim keep polling for work.
    let gen = pool(threads);
    let records = gen.install(|| workloads::generate(dist, n, args.seed));
    let input = gen.install(|| check::Input::new(&records));
    let corpus = gen.install(|| service::Corpus::new(sv.dist, sv.req_n, sv.seed));
    drop(gen);
    if args.trace {
        let engine_pool = pool(threads);
        let cold_s = traced::batch_layers(&b, &input, &engine_pool, &mut report);
        drop(engine_pool);
        traced::cli_layer(&b, &input, cold_s, &checker, &mut report);
        traced::service_layers(&sv, &corpus, &checker, &mut report);
    } else {
        timed(&b, &sv, &input, &corpus, &checker, &mut report);
    }
    let desc = format!(
        "{} x{n}; requests {} x{req_n}",
        dist.label(),
        sv.dist.label()
    );
    let steal = match (steal_before, host_cpu()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    finish(&args, threads, report, &desc, steal);
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool shim never fails to build")
}

/// The untraced run: [`ROUNDS`] rounds, each of which builds fresh engines
/// (set-up) and times warm calls on them, runs the CLI, and starts a fresh
/// daemon (set-up) and drives its closed loop. Every end-to-end metric
/// thus takes its samples across the whole run rather than from one block
/// of it.
fn timed(
    b: &batch::Batch,
    sv: &service::Service,
    input: &check::Input,
    corpus: &service::Corpus,
    checker: &rayon::ThreadPool,
    rep: &mut Report,
) {
    let Some(file) = batch::CliInput::write(b, input, rep) else {
        return;
    };
    let share = |secs: f64| secs / ROUNDS as f64;
    let mut warm: [batch::WarmSamples; 2] = Default::default();
    let mut turn = 0;
    let (mut batch_setup, mut svc_setup, mut cli) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut rss: Option<f64> = None;
    for _ in 0..ROUNDS {
        // The engine pool lives only for the in-process part: its idle
        // workers keep polling for work, and must not compete with the CLI
        // or the daemon.
        let engine_pool = pool(b.threads);
        batch_setup.push(
            engine_pool.install(|| {
                batch::engine_round(input, share(b.seconds), &mut turn, &mut warm, rep)
            }),
        );
        drop(engine_pool);
        cli.extend(batch::cli_runs(
            b,
            &file,
            input,
            1,
            share(b.cli_seconds),
            checker,
            rep,
        ));
        if let Some(r) = service::round(sv, corpus, share(sv.closed_secs), rep, checker) {
            svc_setup.push(r.setup_s);
            if r.wall_s > 0.0 {
                rates.push(r.ok as f64 / r.wall_s);
            }
            rss = rss.into_iter().chain(r.peak_rss_mb).reduce(f64::max);
        }
    }
    batch::report_warm(&warm, rep);
    if !cli.is_empty() {
        rep.median("cli_file_s", "s", &cli);
    }
    if !rates.is_empty() {
        // A median over rounds, so a stall of the host during one round's
        // loop moves the figure less than it would move a pooled rate.
        rep.median("svc_req_per_s", "1/s", &rates);
    }
    // The run's set-up: the batch engines' and the daemon's.
    if !batch_setup.is_empty() && !svc_setup.is_empty() {
        let setup = report::median(&batch_setup) + report::median(&svc_setup);
        rep.value("setup_s", "s", setup, batch_setup.len() + svc_setup.len());
    }
    if let Some(rss) = rss {
        rep.value("svc.peak_rss_mb", "MiB", rss, ROUNDS);
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share of
/// time the host ran something else on this guest's CPUs.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn finish(args: &Args, threads: usize, report: Report, desc: &str, steal: f64) {
    let fp = fingerprint(args, threads, desc);
    println!("{}", report::detail_json(&report, &fp, steal));
    for f in &report.failures {
        eprintln!("failed: {f}");
    }
    let wanted: Vec<String> = if args.metrics.is_empty() {
        report.metrics.iter().map(|m| m.name.clone()).collect()
    } else {
        args.metrics.clone()
    };
    // A metric the run could not produce leaves the result incomplete,
    // which is itself a failure: report it rather than drop it silently.
    let missing: Vec<&String> = wanted.iter().filter(|w| report.get(w).is_none()).collect();
    if !missing.is_empty() {
        eprintln!("missing metrics: {missing:?}");
    }
    let mut report = report;
    for m in &missing {
        report.check(&format!("metric {m}"), Err("not produced".into()));
    }
    println!("{}", report::result_json(&report, &wanted));
}

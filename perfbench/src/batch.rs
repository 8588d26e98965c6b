//! The batch part of every workload: one large input, semisorted by warm
//! `Semisorter` engines of both scatter backends and by the shipped
//! `semisort-cli` from file to file.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use bench::alloc_track;
use semisort::{ScatterConfig, ScatterStrategy, SemisortConfig, SemisortStats, Semisorter};

use crate::check::{is_semisort_of, Input};
use crate::report::Report;

/// The two backends every batch workload runs; the prefix names their
/// metrics (`sort_s` / `sort_s.inplace`, `cas.*` / `inplace.*`).
pub const BACKENDS: [(ScatterStrategy, &str); 2] = [
    (ScatterStrategy::RandomCas, "cas"),
    (ScatterStrategy::InPlace, "inplace"),
];

/// Warm calls per backend after each set-up, at least, however short the
/// window.
const MIN_WARM_PER_SETUP: usize = 2;
/// `semisort-cli sort` runs per [`cli_runs`] call, at most.
const CLI_MAX_REPS: usize = 20;

pub struct Batch<'a> {
    /// Length of the warm-call window, over the whole run.
    pub seconds: f64,
    /// Wall time the CLI runs should add up to, over the whole run.
    pub cli_seconds: f64,
    pub threads: usize,
    pub cli: &'a Path,
    pub work_dir: &'a Path,
}

/// The engine configuration for one backend: the default configuration
/// with only the scatter strategy chosen.
pub fn engine_config(strategy: ScatterStrategy) -> SemisortConfig {
    SemisortConfig::builder()
        .scatter(ScatterConfig {
            strategy,
            ..ScatterConfig::default()
        })
        .build()
        .expect("the default configuration with a built-in strategy is valid")
}

pub fn metric_name(base: &str, prefix: &str) -> String {
    if prefix == "cas" {
        base.to_string()
    } else {
        format!("{base}.{prefix}")
    }
}

/// One timed engine call: wall seconds, the heap it added above what was
/// live at its start, the output and its stats.
pub struct Call {
    pub secs: f64,
    pub peak_bytes: usize,
    pub out: Vec<(u64, u64)>,
    pub stats: SemisortStats,
}

pub fn timed_call(engine: &mut Semisorter, input: &[(u64, u64)]) -> Result<Call, String> {
    let start = Instant::now();
    let (result, peak_bytes) = alloc_track::measure_peak(|| engine.sort_pairs(input));
    let secs = start.elapsed().as_secs_f64();
    let out = result.map_err(|e| format!("engine error: {e}"))?;
    Ok(Call {
        secs,
        peak_bytes,
        out,
        stats: engine.last_stats().clone(),
    })
}

pub fn write_records(path: &Path, records: &[(u64, u64)]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(records.len() * 16);
    for &(k, v) in records {
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes)
}

pub fn read_records(path: &Path) -> std::io::Result<Vec<(u64, u64)>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % 16 != 0 {
        return Err(std::io::Error::other("file is not whole 16-byte records"));
    }
    Ok(bytes
        .chunks_exact(16)
        .map(|c| {
            let k = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let v = u64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
            (k, v)
        })
        .collect())
}

/// Run `semisort-cli sort` from `input` to `output` with the engine's
/// default configuration and `threads` workers; returns spawn-to-exit
/// seconds.
pub fn run_cli(cli: &Path, input: &Path, output: &Path, threads: usize) -> Result<f64, String> {
    let _ = std::fs::remove_file(output);
    let start = Instant::now();
    let status = Command::new(cli)
        .arg("sort")
        .arg("--input")
        .arg(input)
        .arg("--out")
        .arg(output)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let secs = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("semisort-cli sort exited with {status}"));
    }
    Ok(secs)
}

/// The CLI's input file: the batch input, written once (untimed) and
/// removed when dropped.
pub struct CliInput {
    pub path: std::path::PathBuf,
}

impl CliInput {
    pub fn write(b: &Batch, input: &Input, rep: &mut Report) -> Option<CliInput> {
        let path = b.work_dir.join("input.bin");
        match write_records(&path, input.records) {
            Ok(()) => Some(CliInput { path }),
            Err(e) => {
                rep.check("write CLI input", Err(e.to_string()));
                None
            }
        }
    }
}

impl Drop for CliInput {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Run `semisort-cli sort` on `file` from file to file, at least `min_reps`
/// times and until the runs add up to `secs`, checking each output file
/// with `checker`; returns the wall seconds of the runs that succeeded.
/// Short runs (small inputs) are the noisiest, and get the most
/// repetitions.
pub fn cli_runs(
    b: &Batch,
    file: &CliInput,
    input: &Input,
    min_reps: usize,
    secs: f64,
    checker: &rayon::ThreadPool,
    rep: &mut Report,
) -> Vec<f64> {
    let out_path = b.work_dir.join("output.bin");
    let mut times = Vec::new();
    let mut total = 0.0;
    for i in 0..CLI_MAX_REPS {
        if i >= min_reps && total >= secs {
            break;
        }
        let r = run_cli(b.cli, &file.path, &out_path, b.threads).and_then(|s| {
            let out = read_records(&out_path).map_err(|e| format!("cannot read output: {e}"))?;
            checker.install(|| is_semisort_of(input, &out))?;
            Ok(s)
        });
        let _ = std::fs::remove_file(&out_path);
        if let Ok(s) = r {
            times.push(s);
            total += s;
        }
        rep.check("semisort-cli sort", r.map(|_| ()));
    }
    times
}

/// Warm-call samples of one backend: wall seconds and peak added heap.
#[derive(Default)]
pub struct WarmSamples {
    pub secs: Vec<f64>,
    pub peak_mb: Vec<f64>,
}

/// The in-process part of one round, inside the `threads`-worker pool:
/// builds both backends' engines and makes their first (cold) call, which
/// is set-up, then times warm calls on them until `secs` of calls and at
/// least [`MIN_WARM_PER_SETUP`] per backend. The engines are dropped at the
/// end, so every round starts from unmapped memory and the warm samples
/// span several arena placements rather than one. Calls alternate the
/// backends, and which goes first alternates over `turn`, so both see the
/// same machine state; outputs are checked untimed. Returns the set-up
/// seconds.
pub fn engine_round(
    input: &Input,
    secs: f64,
    turn: &mut usize,
    samples: &mut [WarmSamples; 2],
    rep: &mut Report,
) -> f64 {
    let mut engines: Vec<Semisorter> = Vec::new();
    let mut setup_secs = 0.0;
    for (strategy, name) in BACKENDS {
        let start = Instant::now();
        let mut engine = Semisorter::new(engine_config(strategy)).expect("valid config");
        let result = engine.sort_pairs(input.records);
        setup_secs += start.elapsed().as_secs_f64();
        let check = result
            .map_err(|e| format!("engine error: {e}"))
            .and_then(|out| is_semisort_of(input, &out));
        rep.check(&format!("{name} cold call"), check);
        engines.push(engine);
    }

    let mut measured = 0.0;
    let mut rounds = 0;
    while measured < secs || rounds < MIN_WARM_PER_SETUP {
        for k in 0..2 {
            let i = (k + *turn) % 2;
            let name = BACKENDS[i].1;
            match timed_call(&mut engines[i], input.records) {
                Ok(call) => {
                    measured += call.secs;
                    let check = is_semisort_of(input, &call.out);
                    let ok = check.is_ok();
                    rep.check(&format!("{name} warm call"), check);
                    if ok {
                        samples[i].secs.push(call.secs);
                        samples[i]
                            .peak_mb
                            .push(call.peak_bytes as f64 / (1 << 20) as f64);
                    }
                }
                Err(e) => rep.check(&format!("{name} warm call"), Err(e)),
            }
        }
        *turn += 1;
        rounds += 1;
    }
    setup_secs
}

/// Report `sort_s[.inplace]` and `peak_mb[.inplace]` from the warm calls of
/// every round.
pub fn report_warm(samples: &[WarmSamples; 2], rep: &mut Report) {
    for (i, (_, prefix)) in BACKENDS.iter().enumerate() {
        if !samples[i].secs.is_empty() {
            rep.median(&metric_name("sort_s", prefix), "s", &samples[i].secs);
            rep.median(&metric_name("peak_mb", prefix), "MiB", &samples[i].peak_mb);
        }
    }
}

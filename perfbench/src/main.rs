//! End-to-end and per-layer benchmark of the DynamicC serving stack.
//!
//! ```text
//! dc-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!              --work-dir <dir> [--trace-out <file>]
//! ```
//!
//! Runs jobs of one workload (see `spec.rs`) until `--seconds` of serving
//! have been measured, checks every job's outcome, and prints one JSON
//! result line last on stdout.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced jobs and reports the per-layer
//! metrics.  `perfbench/README.md` documents the workloads and metrics.

mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use dc_telemetry::clock;
use serve::{Job, SetupTimes};
use spec::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Every `SETUP_EVERY`-th job, from the first, builds its engine state in
/// full; the others open an untimed copy.  Spreading the set-ups over the
/// run keeps one slow minute of the machine from deciding `setup_s`.
const SETUP_EVERY: usize = 3;

/// Full set-ups a run makes, at least, even when `--seconds` is already
/// used up; `setup_s` is the median over them.
const MIN_SETUPS: usize = 5;

/// No job starts once the run has lasted this long, so a run ends well
/// within its 180-second allowance.
const START_CUTOFF: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25;
    let mut trace = false;
    let mut work_dir = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(spec::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        seed: seed.unwrap_or(workload.default_seed),
        workload,
        seconds,
        trace,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        trace_out,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn required(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

fn job_ops_per_s(job: &Job) -> f64 {
    job.submitted.saturating_sub(job_failures(job)) as f64 / secs(job.serve_wall)
}

fn end_to_end(
    jobs: &[Job],
    setups: &[SetupTimes],
    round_pool: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let setup: Vec<f64> = setups.iter().map(|s| secs(s.total())).collect();
    let ops_per_s: Vec<f64> = jobs.iter().map(job_ops_per_s).collect();
    let recovery: Vec<f64> = jobs.iter().map(|j| secs(j.recovery)).collect();
    let f1: Vec<f64> = jobs.iter().map(|j| j.f1).collect();
    // Per-op percentiles are taken per job and reported as the median over
    // jobs, so one job caught in a burst of machine noise cannot move them.
    let per_job = |pct: Option<f64>| -> Vec<f64> {
        jobs.iter()
            .filter_map(|j| match pct {
                None => stats::median(&j.commit_ms),
                Some(p) => stats::tail(&j.commit_ms, p),
            })
            .collect()
    };
    let commit_ops: usize = jobs.iter().map(|j| j.commit_ms.len()).sum();
    let pooled_rounds = |jobs: &[Job]| -> Vec<f64> {
        jobs.iter()
            .flat_map(|j| j.round_ms.iter().copied())
            .collect()
    };
    let round = pooled_rounds(jobs);
    // The round tail is read per pool of `round_pool` jobs, a sample count
    // the workload fixes, and reported as the median over the pools.
    let round_tails: Vec<f64> = jobs
        .chunks_exact(round_pool)
        .filter_map(|pool| stats::tail(&pooled_rounds(pool), 90.0))
        .collect();
    let attempted: u64 = jobs.iter().map(|j| j.submitted).sum();
    let failed: u64 = jobs.iter().map(job_failures).sum();
    eprintln!(
        "samples: {} set-ups, {} jobs, {} ops, {} rounds in {} pools of {} jobs (a tail percentile keeps {}+ samples beyond it)",
        setups.len(),
        jobs.len(),
        commit_ops,
        round.len(),
        round_tails.len(),
        round_pool,
        stats::MIN_BEYOND,
    );
    let mut m = BTreeMap::new();
    m.insert("setup_s", required(stats::median(&setup), "setup")?);
    m.insert("ops_per_s", required(stats::median(&ops_per_s), "ops/s")?);
    m.insert(
        "commit_p50_ms",
        required(stats::median(&per_job(None)), "commit latency")?,
    );
    m.insert(
        "commit_p99_ms",
        required(stats::median(&per_job(Some(99.0))), "commit latency")?,
    );
    m.insert(
        "round_p50_ms",
        required(stats::median(&round), "round latency")?,
    );
    m.insert(
        "round_p90_ms",
        required(stats::median(&round_tails), "round latency")?,
    );
    m.insert("f1_vs_truth", required(stats::median(&f1), "F1")?);
    m.insert(
        "op_success_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    m.insert(
        "recovery_s",
        required(stats::median(&recovery), "recovery")?,
    );
    m.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(m)
}

/// A job that failed a correctness check counts all of its operations as
/// failed.
fn job_failures(job: &Job) -> u64 {
    if job.check_failures.is_empty() {
        job.failed
    } else {
        job.submitted
    }
}

/// The seed of job `k`'s stream within a run seeded `seed`.
fn job_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let workload = args.workload;
    let origin = clock::now();
    eprintln!(
        "{} seed {} (default {}, held-out {}): {} shards",
        workload.name, args.seed, workload.default_seed, workload.held_out_seed, workload.shards
    );

    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let reg = dc_telemetry::registry();
    let mut tracer = trace::Tracer::new(origin);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut template: Option<serve::Trained> = None;
    let mut jobs: Vec<(Job, bool)> = Vec::new();
    let mut layers: Option<BTreeMap<&'static str, f64>> = None;
    let mut measured = Duration::ZERO;
    let budget = Duration::from_secs(args.seconds);
    while setups.len() < MIN_SETUPS
        || !jobs.len().is_multiple_of(workload.round_pool)
        || (measured < budget && clock::now() - origin < START_CUTOFF)
    {
        let k = jobs.len();
        // Traced runs alternate untraced and traced jobs, untraced first.
        let traced = args.trace && k % 2 == 1;
        tracer.start_job(k, traced);
        reg.reset();
        reg.set_enabled(traced);
        // Each job serves its own draw of the stream, so a run pools several.
        let inputs = workload.generate(job_seed(args.seed, k));
        let rounds = Workload::served_rounds(&inputs);
        let final_dataset = inputs.final_dataset();
        let truth = dc_datagen::ground_truth(&final_dataset);
        // Every SETUP_EVERY-th job builds its state in full; the others
        // open an untimed copy of it (it is the same on every seed).
        let (trained, setup) = match &template {
            Some(t) if !k.is_multiple_of(SETUP_EVERY) => (t.clone(), None),
            _ => {
                let (trained, times) = serve::train(&workload, &inputs, &mut tracer);
                template = Some(trained.clone());
                (trained, Some(times))
            }
        };
        let dir = args.work_dir.join(format!("job-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut clones = Vec::new();
        let replay_this = traced && layers.is_none();
        let job = serve::run_job(
            &workload,
            trained,
            &rounds,
            &final_dataset,
            &truth,
            &dir,
            &mut tracer,
            replay_this.then_some(&mut clones),
        )?;
        reg.set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(times) = setup {
            setups.push(SetupTimes {
                open: job.open,
                ..times
            });
        }
        eprintln!(
            "job {k}{}: {} ops, {}serve {:.3}s ({:.1} ops/s, {} rounds, commit p50 {:.2} ms, tail {:.2} ms), recovery {:.3}s, F1 {:.4}",
            if traced { " (traced)" } else { "" },
            job.submitted,
            setup.map_or(String::new(), |t| format!(
                "set-up {:.3}s (graph {:.3} batch {:.3} train {:.3} open {:.3}), ",
                secs(t.total() + job.open),
                secs(t.graph_build),
                secs(t.batch_cluster),
                secs(t.train),
                secs(job.open)
            )),
            secs(job.serve_wall),
            job_ops_per_s(&job),
            job.rounds,
            stats::median(&job.commit_ms).unwrap_or_default(),
            stats::tail(&job.commit_ms, 99.0).unwrap_or_default(),
            secs(job.recovery),
            job.f1
        );
        for failure in &job.check_failures {
            eprintln!("job {k}: CHECK FAILED: {failure}");
        }
        if replay_this {
            let router =
                dc_similarity::ShardRouter::for_config(workload.shards, &workload.graph_config());
            let round_ops = (job.submitted / job.rounds.max(1)) as usize;
            let ops: Vec<dc_types::Operation> = rounds.iter().flatten().cloned().collect();
            let replay = layers::replay_components(clones, &router, &ops, round_ops, &mut tracer);
            layers = Some(layers::job_layers(&job, &replay));
        }
        measured += job.serve_wall;
        jobs.push((job, traced));
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);

    let attempted: u64 = jobs.iter().map(|(j, _)| j.submitted).sum();
    let failed: u64 = jobs.iter().map(|(j, _)| job_failures(j)).sum();
    let correct = failed == 0;
    let (table, metrics): (&[(&str, &str)], BTreeMap<&str, f64>) = if args.trace {
        let mut m = layers.ok_or("no traced job ran")?;
        let ops_per_s = |want: bool| {
            let v: Vec<f64> = jobs
                .iter()
                .filter(|(_, traced)| *traced == want)
                .map(|(j, _)| job_ops_per_s(j))
                .collect();
            stats::median(&v)
        };
        let (on, off) = (
            required(ops_per_s(true), "traced ops/s")?,
            required(ops_per_s(false), "ops/s")?,
        );
        m.insert("trace.overhead_share", 1.0 - on / off);
        for (name, phase) in [
            (
                "setup.graph_build_ns",
                (|s: &SetupTimes| s.graph_build) as fn(&SetupTimes) -> Duration,
            ),
            ("setup.batch_cluster_ns", |s| s.batch_cluster),
            ("setup.train_ns", |s| s.train),
            ("setup.open_ns", |s| s.open),
        ] {
            let v: Vec<f64> = setups.iter().map(|s| phase(s).as_nanos() as f64).collect();
            m.insert(name, required(stats::median(&v), name)?);
        }
        if let Some(path) = &args.trace_out {
            tracer
                .write(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
        }
        (&report::PER_LAYER, m)
    } else {
        let all: Vec<Job> = jobs.into_iter().map(|(j, _)| j).collect();
        (
            &report::END_TO_END,
            end_to_end(&all, &setups, workload.round_pool)?,
        )
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, table, &metrics)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

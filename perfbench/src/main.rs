//! End-to-end and per-layer benchmark of the MeRLiN reproduction.
//!
//! ```text
//! perfbench --workload <study|comprehensive>
//!           --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//!           [--commit <id>] [--source-hash <hash>]
//! ```
//!
//! One process, one client: each campaign is submitted after the previous
//! one returned (a closed loop), on one worker thread.  Only calls into
//! the repository's public API are timed.  With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it runs an untraced, a
//! traced and another untraced round of the workload, then times each
//! layer on its own, and reports the per-layer metrics and
//! the tracing overhead.  Every line but the last is for people; the last
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/run.py` builds this binary and runs it.

mod common;
mod comprehensive;
mod digests;
mod layers;
mod report;
mod study;
mod trace;
mod util;

use common::Ctx;
use report::Report;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    commit: String,
    source_hash: String,
}

/// Worker threads of every session.  One, whatever the host offers: on a
/// shared 2-vCPU host, two threads of identical CPU-bound work took 1.7x
/// as long as one and spiked to 4x, so a second worker measured the host's
/// scheduler more than the program.
const THREADS: usize = 1;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench-out"),
        commit: "unknown".into(),
        source_hash: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--source-hash" => args.source_hash = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["study", "comprehensive"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn untraced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match ctx.workload.as_str() {
        "study" => {
            let run = study::run(ctx, report, false, false)?;
            study::metrics(report, &run);
            // The peak is read before the validation pass below, whose
            // sessions are not part of the study.
            peak_rss(report);
            let err = comprehensive::validation_error(ctx, report)?;
            report.metric("avf_err_pp", err, "pp");
            report.note(
                "max |AVF_MeRLiN - AVF_comprehensive| over the validation heads, untimed".into(),
            );
        }
        _ => {
            let run = comprehensive::run(ctx, report, false, false)?;
            comprehensive::metrics(report, &run);
            digests::check(ctx, report, &run);
            peak_rss(report);
        }
    }
    Ok(())
}

fn peak_rss(report: &mut Report) {
    match util::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.problem("cannot read VmHWM from /proc/self/status".into()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads: THREADS,
        out_dir: args.out_dir.clone(),
        source_hash: args.source_hash.clone(),
    };
    let mut report = Report::default();
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("trace", u8::from(args.trace));
    report.fact("nproc", nproc);
    report.fact("threads", ctx.threads);
    report.fact(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.fact("commit", &args.commit);
    report.fact("source_hash", &args.source_hash);

    let outcome = if args.trace {
        layers::traced(&ctx, &mut report)
    } else {
        untraced(&ctx, &mut report)
    };
    if let Err(e) = outcome {
        report.fail(format!("error: {e}"));
    }
    print!("{}", report.text());
    println!("{}", report.json());
}

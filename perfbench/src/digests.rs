//! Outcome-digest checks of the comprehensive workload.
//!
//! Every run prints one digest per (program, structure) campaign and checks
//! it against two references: the table recorded with the benchmark
//! (`digests.txt`, for the seeds it holds), and the digests an earlier run
//! built from the same sources left in the output directory for the same
//! seed.

use crate::common::{short, Ctx, STRUCTURES};
use crate::comprehensive::{CompRun, PROGRAMS};
use crate::report::Report;
use std::collections::BTreeMap;

/// Recorded digests: lines of `seed program structure faults digest`.
const RECORDED: &str = include_str!("../digests.txt");

type Key = (u64, String, String, usize);

fn parse(text: &str) -> BTreeMap<Key, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [seed, program, structure, n, digest] => Some((
                    (
                        seed.parse().ok()?,
                        program.to_string(),
                        structure.to_string(),
                        n.parse().ok()?,
                    ),
                    digest.to_string(),
                )),
                _ => None,
            }
        })
        .collect()
}

fn line(key: &Key, digest: &str) -> String {
    format!("{} {} {} {} {digest}", key.0, key.1, key.2, key.3)
}

pub fn check(ctx: &Ctx, report: &mut Report, run: &CompRun) {
    let ours: BTreeMap<Key, String> = run
        .cells
        .iter()
        .map(|(cell, c)| {
            (
                (
                    ctx.seed,
                    PROGRAMS[cell.0].to_string(),
                    short(STRUCTURES[cell.1]).to_string(),
                    c.list.len(),
                ),
                format!("{:016x}", c.digest),
            )
        })
        .collect();
    for (key, digest) in &ours {
        report.fact("digest", line(key, digest));
    }

    let recorded = parse(RECORDED);
    let mut matched = 0;
    for (key, digest) in &ours {
        if let Some(want) = recorded.get(key) {
            matched += 1;
            if want != digest {
                report.fail(format!(
                    "digest {} differs from the recorded {want}",
                    line(key, digest)
                ));
            }
        }
    }
    report.fact("recorded_digests_checked", matched);

    // One file per seed and source hash: the first run writes it, every
    // later run built from the same sources compares against it.
    let Some(dir) = ctx.shared_dir() else {
        report.fact("earlier_run_digests_checked", "0 (sources unknown)");
        return;
    };
    let dir = dir.join("digests");
    let path = dir.join(format!("seed-{}.txt", ctx.seed));
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let sibling = parse(&text);
            let mut compared = 0;
            for (key, digest) in &ours {
                if let Some(want) = sibling.get(key) {
                    compared += 1;
                    if want != digest {
                        report.fail(format!(
                            "digest {} differs from {want} left by an earlier run in {}",
                            line(key, digest),
                            path.display()
                        ));
                    }
                }
            }
            report.fact("earlier_run_digests_checked", compared);
        }
        Err(_) => {
            let text: String = ours.iter().map(|(k, d)| line(k, d) + "\n").collect();
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text))
            {
                report.fact("digest_file_error", e);
            }
            report.fact("earlier_run_digests_checked", 0);
        }
    }
}

//! The `comprehensive` workload: the Figs 14–15 validation on warm
//! sessions.
//!
//! Before the run proper, each program's golden run is simulated once and
//! saved as a `.golden` artifact (`SessionBuilder::persist_to`).  Set-up
//! then loads that artifact and builds the ACE profile, several times per
//! program before every round, which runs on the last of these sessions,
//! so the set-up time is a median over the whole run rather than over one
//! moment of it.  Each (program,
//! structure) list is injected in full with `Session::campaign`, one
//! campaign after another, until the run's seconds are spent (at least one
//! full round), and MeRLiN runs once on the validation part of each list.
//!
//! Each list is a validation head drawn with a fixed seed followed by a
//! short tail drawn from the benchmark seed.  The head makes the accuracy
//! figure (`avf_err_pp`) a property of the code rather than of the seed,
//! and holds the work per list steady across seeds: the cost of a fault
//! varies by orders of magnitude, and with a third of each list seeded the
//! simulated cycles of a structure's lists moved by ±10% from seed to
//! seed, as much as the host noise.  The tail is what the seed varies.

use crate::common::{
    self, set_up, short, Ctx, MerlinRun, RepeatCheck, SetUp, TimedCampaign, STRUCTURES,
};
use crate::report::Report;
use crate::trace::span;
use crate::util::{mean, median, mix_seed};
use merlin_cpu::CpuConfig;
use merlin_inject::{CheckpointPolicy, FaultSpec, Session};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const PROGRAMS: [&str; 2] = ["stringsearch", "mcf"];
/// Faults per structure (RF, SQ, L1D) in the fixed validation head.  SQ
/// faults on stringsearch never re-converge and cost ~25k cycles each, so
/// the SQ lists are shorter.
pub const HEAD: [usize; 3] = [600, 60, 600];
/// Faults per structure in the seeded tail, 5% of each list.
pub const TAIL: [usize; 3] = [30, 3, 30];
/// Seed of the validation heads; the same for every run.
pub const VALIDATION_SEED: u64 = 2017;
/// Set-ups per program before every round, the last of which the round
/// uses; `setup_s` is the median over all of a run's set-ups.
pub const SETUP_REPS: usize = 6;

/// One (program, structure) cell: `(program index, structure index)`.
pub type Cell = (usize, usize);

fn cell_salt(cell: Cell) -> u64 {
    (cell.0 * STRUCTURES.len() + cell.1) as u64 + 101
}

/// The lists of one program's session: validation head, then seeded tail.
pub fn lists(session: &Session, p: usize, seed: u64) -> Result<Vec<Vec<FaultSpec>>, String> {
    let _s = span("core.fault_list");
    STRUCTURES
        .iter()
        .enumerate()
        .map(|(s, &structure)| {
            let draw = |n, seed| {
                session
                    .fault_list(structure, n, seed)
                    .map_err(|e| format!("{}/{}: fault list: {e}", PROGRAMS[p], short(structure)))
            };
            let mut list = draw(HEAD[s], mix_seed(VALIDATION_SEED, cell_salt((p, s))))?;
            list.extend(draw(TAIL[s], mix_seed(seed, cell_salt((p, s))))?);
            Ok(list)
        })
        .collect()
}

pub struct CellRun {
    pub list: Vec<FaultSpec>,
    pub wall_s: Vec<f64>,
    /// The first campaign of the cell (later ones must repeat its outcomes
    /// and exact counters).
    pub first: TimedCampaign,
    pub digest: u64,
    pub merlin: Option<MerlinRun>,
    pub merlin_s: Vec<f64>,
    pub avf_err_pp: f64,
}

pub struct CompRun {
    pub wall_s: f64,
    pub setup: BTreeMap<usize, Vec<SetUp>>,
    pub cells: BTreeMap<Cell, CellRun>,
    pub sessions: Vec<Session>,
}

/// Simulates and saves each program's golden run; returns the artifact
/// paths.  Not part of the measured set-up.
pub fn save_artifacts(ctx: &Ctx, dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    PROGRAMS
        .iter()
        .map(|&name| {
            let path = dir.join(format!("{name}.golden"));
            let session = ctx
                .builder(
                    &common::program(name)?,
                    &CpuConfig::spec_experiment(),
                    CheckpointPolicy::default(),
                )
                .persist_to(&path)
                .build()
                .map_err(|e| format!("{name}: build: {e}"))?;
            session
                .golden()
                .map_err(|e| format!("{name}: golden: {e}"))?;
            if !path.exists() {
                return Err(format!("{name}: no artifact written to {}", path.display()));
            }
            Ok(path)
        })
        .collect()
}

/// Runs the workload: for `seconds` when `one_round` is false, otherwise
/// one campaign per cell; MeRLiN goes through its public steps when
/// `steps` is set.
pub fn run(
    ctx: &Ctx,
    report: &mut Report,
    one_round: bool,
    steps: bool,
) -> Result<CompRun, String> {
    let dir = ctx
        .out_dir
        .join(format!("golden-{}-{}", ctx.workload, std::process::id()));
    let artifacts = save_artifacts(ctx, &dir)?;
    let programs: Vec<_> = PROGRAMS
        .iter()
        .map(|n| common::program(n))
        .collect::<Result<_, _>>()?;

    let _round = span("bench.round");
    let mut setup: BTreeMap<usize, Vec<SetUp>> = BTreeMap::new();
    let mut fresh_sessions = |report: &mut Report| -> Result<Vec<Session>, String> {
        let mut sessions = Vec::new();
        for _ in 0..SETUP_REPS {
            sessions.clear();
            for (p, &name) in PROGRAMS.iter().enumerate() {
                let builder = ctx
                    .builder(
                        &programs[p],
                        &CpuConfig::spec_experiment(),
                        CheckpointPolicy::default(),
                    )
                    .persist_to(&artifacts[p]);
                let (session, times) = set_up(builder, name)?;
                if session.golden_builds() != 0 || session.artifact_rejects() != 0 {
                    report.fail(format!(
                        "{name}: set-up simulated instead of loading its artifact"
                    ));
                }
                setup.entry(p).or_default().push(times);
                sessions.push(session);
            }
        }
        Ok(sessions)
    };
    let mut sessions = fresh_sessions(report)?;

    let mut pending: Vec<(Cell, Vec<FaultSpec>)> = Vec::new();
    for (p, session) in sessions.iter().enumerate() {
        for (s, list) in lists(session, p, ctx.seed)?.into_iter().enumerate() {
            pending.push(((p, s), list));
        }
    }
    // A round is every list's campaign, then MeRLiN on every validation
    // head; rounds repeat job by job until the seconds are spent.
    let jobs: Vec<(usize, bool)> = (0..pending.len())
        .map(|k| (k, false))
        .chain((0..pending.len()).map(|k| (k, true)))
        .collect();
    let mut cells: BTreeMap<Cell, CellRun> = BTreeMap::new();
    let mut repeats = RepeatCheck::default();
    let start = Instant::now();
    for i in 0.. {
        if i >= jobs.len() && (one_round || start.elapsed().as_secs_f64() >= ctx.seconds) {
            break;
        }
        if i > 0 && i % jobs.len() == 0 {
            // Every later round runs on sessions set up afresh; the old
            // ones go first, so the peak memory holds one set.
            drop(std::mem::take(&mut sessions));
            sessions = fresh_sessions(report)?;
        }
        let (k, is_merlin) = jobs[i % jobs.len()];
        let (cell, list) = &pending[k];
        let session = &sessions[cell.0];
        let structure = STRUCTURES[cell.1];
        let what = format!("{}/{}", PROGRAMS[cell.0], short(structure));
        if is_merlin {
            let run = cells
                .get_mut(cell)
                .expect("a round runs every campaign before MeRLiN");
            let head = &list[..HEAD[cell.1]];
            let t = Instant::now();
            let m = if steps {
                common::merlin_steps(session, structure, head)
            } else {
                common::merlin(session, structure, head)
            }
            .map_err(|e| format!("{what}: MeRLiN: {e}"))?;
            run.merlin_s.push(t.elapsed().as_secs_f64());
            report.attempted += head.len() as u64;
            repeats.check(
                report,
                &format!("{what} MeRLiN"),
                vec![("digest", m.digest), ("injections", m.injections as u64)],
            );
            let comprehensive = common::avf_pct(
                run.first.result.outcomes[..head.len()]
                    .iter()
                    .map(|o| o.effect),
            );
            run.avf_err_pp = (100.0 * m.classification.avf() - comprehensive).abs();
            run.merlin = Some(m);
            continue;
        }
        let c = common::campaign(session, list).map_err(|e| format!("{what}: {e}"))?;
        report.attempted += list.len() as u64;
        for _ in 0..c.result.schedule.asserts {
            report.fail(format!("{what}: containment assert"));
        }
        let digest = common::campaign_digest(&c.result);
        let mut counters = vec![("digest", digest)];
        counters.extend(common::exact_counters(&c.result.schedule));
        counters.push(("early_exits", c.result.early_exits));
        repeats.check(report, &what, counters);
        match cells.get_mut(cell) {
            Some(run) => run.wall_s.push(c.wall_s),
            None => {
                cells.insert(
                    *cell,
                    CellRun {
                        list: list.clone(),
                        wall_s: vec![c.wall_s],
                        first: c,
                        digest,
                        merlin: None,
                        merlin_s: Vec::new(),
                        avf_err_pp: 0.0,
                    },
                );
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(_round);
    // The artifacts are per run; failing to delete them only leaves files
    // inside the output directory.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CompRun {
        wall_s,
        setup,
        cells,
        sessions,
    })
}

/// The end-to-end metrics of an untraced run.
pub fn metrics(report: &mut Report, run: &CompRun) {
    report.metric(
        "setup_s",
        common::setup_seconds(&run.setup, |t| t.total_s, median),
        "s",
    );
    report.note(format!(
        "{} programs, .golden load + ACE profile, median of {} set-ups each",
        run.setup.len(),
        run.setup.values().map(Vec::len).min().unwrap_or(0)
    ));
    let heads: usize = run.cells.keys().map(|c| HEAD[c.1]).sum();
    let merlin_s: f64 = run.cells.values().map(|c| mean(&c.merlin_s)).sum();
    report.metric("merlin_faults_per_s", heads as f64 / merlin_s, "faults/s");
    report.note(format!(
        "{heads} validation-head faults, warm sessions, mean of {} runs each",
        run.cells
            .values()
            .map(|c| c.merlin_s.len())
            .min()
            .unwrap_or(0)
    ));
    for (s, &structure) in STRUCTURES.iter().enumerate() {
        let cells: Vec<&CellRun> = run
            .cells
            .iter()
            .filter(|(c, _)| c.1 == s)
            .map(|(_, r)| r)
            .collect();
        let faults: usize = cells.iter().map(|c| c.list.len()).sum();
        let t: f64 = cells.iter().map(|c| mean(&c.wall_s)).sum();
        report.metric(
            &format!("{}_faults_per_s", short(structure)),
            faults as f64 / t,
            "faults/s",
        );
        report.note(format!(
            "{faults} faults over {} programs, mean of {} campaigns each",
            cells.len(),
            cells.iter().map(|c| c.wall_s.len()).min().unwrap_or(0)
        ));
    }
    let cycles: u64 = run
        .cells
        .values()
        .map(|c| {
            c.first.result.schedule.suffix_cycles + c.first.result.schedule.golden_replay_cycles
        })
        .sum();
    let t: f64 = run.cells.values().map(|c| mean(&c.wall_s)).sum();
    report.metric("sim_mcyc_per_s", cycles as f64 / t / 1e6, "Mcyc/s");
    report.note(format!(
        "{cycles} campaign cycles (faulty suffixes + golden replay)"
    ));
    let err = run.cells.values().map(|c| c.avf_err_pp).fold(0.0, f64::max);
    report.metric("avf_err_pp", err, "pp");
    report.note("max |AVF_MeRLiN - AVF_comprehensive| over validation heads".to_string());
}

/// `avf_err_pp` for workloads that run no comprehensive campaign of their
/// own: the validation heads of the comprehensive workload, on fresh
/// sessions (not timed).
pub fn validation_error(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let mut err = 0.0f64;
    for (p, &name) in PROGRAMS.iter().enumerate() {
        let builder = ctx.builder(
            &common::program(name)?,
            &CpuConfig::spec_experiment(),
            CheckpointPolicy::default(),
        );
        let (session, _) = set_up(builder, name)?;
        for (s, list) in lists(&session, p, ctx.seed)?.into_iter().enumerate() {
            let structure = STRUCTURES[s];
            let what = format!("{name}/{} validation", short(structure));
            let head = &list[..HEAD[s]];
            let c = common::campaign(&session, head).map_err(|e| format!("{what}: {e}"))?;
            let m =
                common::merlin(&session, structure, head).map_err(|e| format!("{what}: {e}"))?;
            report.attempted += 2 * head.len() as u64;
            for _ in 0..c.result.schedule.asserts {
                report.fail(format!("{what}: containment assert"));
            }
            let comprehensive = common::avf_pct(c.result.outcomes.iter().map(|o| o.effect));
            err = err.max((100.0 * m.classification.avf() - comprehensive).abs());
        }
    }
    Ok(err)
}

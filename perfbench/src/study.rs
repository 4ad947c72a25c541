//! The `study` workload: a cold MeRLiN study at paper scale.
//!
//! Each program visit builds a fresh session (golden run, checkpoint
//! store, ACE profile: the set-up), then draws a 60,000-fault list for the
//! register file, the store queue and the L1D and classifies it with
//! MeRLiN.  Programs are visited round-robin, one client, each call
//! submitted after the previous one returned, until the run's seconds are
//! spent (at least one full round).  Modelled caches start empty: every
//! golden run starts from reset.
//!
//! 95% of each list is drawn with a fixed seed and the rest with the
//! benchmark seed.  MeRLiN injects only a few dozen representatives per
//! cell, so a wholly seeded list would let the seed alone move the
//! injection cost by a fifth; the fixed part holds the groups in place
//! and the seeded part still varies the input.

use crate::common::{self, set_up, short, Ctx, MerlinRun, RepeatCheck, SetUp, STRUCTURES};
use crate::report::Report;
use crate::trace::span;
use crate::util::{mean, median, mix_seed};
use merlin_cpu::CpuConfig;
use merlin_inject::{CheckpointPolicy, FaultSpec, Session};
use std::collections::BTreeMap;
use std::time::Instant;

pub const PROGRAMS: [&str; 4] = ["stringsearch", "qsort", "mcf", "h264ref"];
/// Initial fault-list size per (program, structure), as in Figs 8–10.
pub const FAULTS: usize = 60_000;
/// Faults of each list drawn with the fixed seed; the rest are seeded.
const FIXED_FAULTS: usize = 57_000;
const FIXED_SEED: u64 = 2017;
/// Set-ups per program visit; the last one's session is used.  Each
/// golden run takes only tens of milliseconds, so `sim_mcyc_per_s` needs
/// many of them.
const SETUP_REPS: usize = 6;

/// One (program, structure) cell: `(program index, structure index)`.
pub type Cell = (usize, usize);

#[derive(Default)]
pub struct StudyRun {
    pub wall_s: f64,
    /// Set-up times per program visit, and each program's golden cycles.
    pub setup: BTreeMap<usize, Vec<SetUp>>,
    pub golden_cycles: BTreeMap<usize, u64>,
    /// Fault-list generation plus MeRLiN, seconds per visit of a cell.
    pub cell_s: BTreeMap<Cell, Vec<f64>>,
    pub merlin: BTreeMap<Cell, MerlinRun>,
    /// Kept from a single-round run for the traced run's layer timings.
    pub sessions: Vec<Session>,
    pub lists: BTreeMap<Cell, Vec<FaultSpec>>,
}

fn list(
    session: &Session,
    structure: merlin_inject::Structure,
    cell: Cell,
    seed: u64,
) -> Result<Vec<FaultSpec>, String> {
    let salt = (cell.0 * STRUCTURES.len() + cell.1) as u64 + 1;
    let mut list = session
        .fault_list(structure, FIXED_FAULTS, mix_seed(FIXED_SEED, salt))
        .map_err(|e| e.to_string())?;
    list.extend(
        session
            .fault_list(structure, FAULTS - FIXED_FAULTS, mix_seed(seed, salt))
            .map_err(|e| e.to_string())?,
    );
    Ok(list)
}

/// Runs the study: for `seconds` when `one_round` is false, otherwise
/// exactly one round, through MeRLiN's public steps when `steps` is set.
pub fn run(
    ctx: &Ctx,
    report: &mut Report,
    one_round: bool,
    steps: bool,
) -> Result<StudyRun, String> {
    let programs: Vec<_> = PROGRAMS
        .iter()
        .map(|n| common::program(n))
        .collect::<Result<_, _>>()?;
    let mut out = StudyRun::default();
    let mut repeats = RepeatCheck::default();
    let start = Instant::now();
    let _round = span("bench.round");
    for visit in 0.. {
        let p = visit % PROGRAMS.len();
        let round_done = visit >= PROGRAMS.len();
        if round_done && (one_round || start.elapsed().as_secs_f64() >= ctx.seconds) {
            break;
        }
        let name = PROGRAMS[p];
        let _visit = span("bench.program");
        let mut session = None;
        for _ in 0..SETUP_REPS {
            let builder = ctx.builder(
                &programs[p],
                &CpuConfig::default(),
                CheckpointPolicy::default(),
            );
            let (s, times) = set_up(builder, name)?;
            out.setup.entry(p).or_default().push(times);
            session = Some(s);
        }
        let session = session.expect("at least one set-up");
        out.golden_cycles.insert(
            p,
            session.golden().map_err(|e| e.to_string())?.result.cycles,
        );
        for (s, &structure) in STRUCTURES.iter().enumerate() {
            let cell = (p, s);
            let what = format!("{name}/{}", short(structure));
            let t = Instant::now();
            let list = {
                let _s = span("core.fault_list");
                list(&session, structure, cell, ctx.seed)
                    .map_err(|e| format!("{what}: fault list: {e}"))?
            };
            let m = if steps {
                common::merlin_steps(&session, structure, &list)
            } else {
                common::merlin(&session, structure, &list)
            }
            .map_err(|e| format!("{what}: MeRLiN: {e}"))?;
            out.cell_s
                .entry(cell)
                .or_default()
                .push(t.elapsed().as_secs_f64());
            check_cell(report, &mut repeats, &what, &list, &m);
            if one_round {
                out.lists.insert(cell, list);
            }
            out.merlin.insert(cell, m);
        }
        if one_round {
            out.sessions.push(session);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

fn check_cell(
    report: &mut Report,
    repeats: &mut RepeatCheck,
    what: &str,
    list: &[FaultSpec],
    m: &MerlinRun,
) {
    report.attempted += list.len() as u64;
    if m.classification.total() as usize != list.len() {
        report.fail(format!(
            "{what}: MeRLiN classified {} of {} faults",
            m.classification.total(),
            list.len()
        ));
    }
    repeats.check(
        report,
        what,
        vec![("digest", m.digest), ("injections", m.injections as u64)],
    );
}

/// The end-to-end metrics of an untraced study run.
pub fn metrics(report: &mut Report, run: &StudyRun) {
    report.metric(
        "setup_s",
        common::setup_seconds(&run.setup, |t| t.total_s, median),
        "s",
    );
    report.note(format!(
        "{} programs, sum of per-program medians over {} set-ups",
        run.setup.len(),
        run.setup.values().map(Vec::len).sum::<usize>()
    ));
    let cell_mean = |c: &Cell| mean(&run.cell_s[c]);
    let total_time: f64 = run.cell_s.keys().map(cell_mean).sum();
    let faults = (run.cell_s.len() * FAULTS) as f64;
    report.metric("merlin_faults_per_s", faults / total_time, "faults/s");
    report.note(format!(
        "{faults} initial faults over {} cells, each cell's mean time over its visits",
        run.cell_s.len()
    ));
    for (s, &structure) in STRUCTURES.iter().enumerate() {
        let cells: Vec<&Cell> = run.cell_s.keys().filter(|c| c.1 == s).collect();
        let t: f64 = cells.iter().map(|c| cell_mean(c)).sum();
        report.metric(
            &format!("{}_faults_per_s", short(structure)),
            (cells.len() * FAULTS) as f64 / t,
            "faults/s",
        );
        report.note("MeRLiN-classified initial faults of this structure".to_string());
    }
    let cycles: u64 = run.golden_cycles.values().sum();
    let golden = common::setup_seconds(&run.setup, |t| t.golden_s, mean);
    report.metric("sim_mcyc_per_s", cycles as f64 / golden / 1e6, "Mcyc/s");
    report.note(format!("{cycles} golden cycles, single thread"));
}

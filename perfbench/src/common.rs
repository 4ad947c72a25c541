//! Pieces every workload shares: session construction, timed campaigns,
//! MeRLiN through the library call or through its public steps, digests
//! and counter bookkeeping.

use crate::report::{Report, Stability};
use crate::trace::span;
use crate::util::{outcome_digest, process_cpu_seconds};
use merlin_ace::SessionAce;
use merlin_core::{reduce_fault_list, MerlinConfig, SessionMethodology};
use merlin_cpu::CpuConfig;
use merlin_inject::{
    CampaignResult, CheckpointPolicy, Classification, FaultEffect, FaultSpec, ScheduleStats,
    Session, SessionBuilder, Structure,
};
use merlin_isa::Program;
use std::collections::HashMap;
use std::time::Instant;

pub const STRUCTURES: [Structure; 3] = [
    Structure::RegisterFile,
    Structure::StoreQueue,
    Structure::L1DCache,
];

/// Short name of a structure as used in metric names.
pub fn short(structure: Structure) -> &'static str {
    match structure {
        Structure::RegisterFile => "rf",
        Structure::StoreQueue => "sq",
        Structure::L1DCache => "l1d",
    }
}

/// Settings shared by every part of one benchmark run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub out_dir: std::path::PathBuf,
    /// Hash of the sources the benchmark was built from, or `unknown`.
    pub source_hash: String,
}

impl Ctx {
    /// Where runs of the same sources leave results for later runs to
    /// compare against; `None` when the sources are unknown, because a
    /// file left by other code must never be taken as a reference.
    pub fn shared_dir(&self) -> Option<std::path::PathBuf> {
        (self.source_hash != "unknown")
            .then(|| self.out_dir.join(format!("source-{}", self.source_hash)))
    }

    /// A session builder the way users get one: from a `MerlinConfig`.
    pub fn builder(
        &self,
        program: &Program,
        cfg: &CpuConfig,
        checkpoints: CheckpointPolicy,
    ) -> SessionBuilder {
        MerlinConfig {
            threads: self.threads,
            seed: self.seed,
            checkpoints,
            ..Default::default()
        }
        .session_builder(program, cfg)
    }
}

pub fn program(name: &str) -> Result<Program, String> {
    merlin_workloads::workload_by_name(name)
        .map(|w| w.program)
        .ok_or_else(|| format!("no workload named {name}"))
}

/// Seconds one set-up took, whole and by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUp {
    pub total_s: f64,
    pub golden_s: f64,
    pub ace_s: f64,
}

/// Builds a session, runs (or loads) its golden run and profiles it: the
/// set-up a study pays before its first campaign.
pub fn set_up(builder: SessionBuilder, what: &str) -> Result<(Session, SetUp), String> {
    let t = Instant::now();
    let session = {
        let _s = span("inject.session_build");
        builder.build().map_err(|e| format!("{what}: build: {e}"))?
    };
    let tg = Instant::now();
    {
        let _s = span("inject.golden");
        session
            .golden()
            .map_err(|e| format!("{what}: golden: {e}"))?;
    }
    let golden_s = tg.elapsed().as_secs_f64();
    let ta = Instant::now();
    {
        let _s = span("ace.profile");
        session
            .ace_profile()
            .map_err(|e| format!("{what}: ACE profile: {e}"))?;
    }
    let ace_s = ta.elapsed().as_secs_f64();
    let total_s = t.elapsed().as_secs_f64();
    Ok((
        session,
        SetUp {
            total_s,
            golden_s,
            ace_s,
        },
    ))
}

/// One campaign with its host wall time and process CPU time.
pub struct TimedCampaign {
    pub result: CampaignResult,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn campaign(session: &Session, faults: &[FaultSpec]) -> Result<TimedCampaign, String> {
    let _s = span("inject.campaign");
    let cpu0 = process_cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let result = session.campaign(faults).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds().unwrap_or(0.0) - cpu0;
    Ok(TimedCampaign {
        result,
        wall_s,
        cpu_s,
    })
}

/// Digest of a campaign's outcomes, indexed by position in the list.
pub fn campaign_digest(result: &CampaignResult) -> u64 {
    outcome_digest(
        result
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (i, o.fault, o.effect)),
    )
}

/// Digest of per-fault outcomes reported in any order, keyed back to each
/// fault's index in `initial` (duplicate faults share one effect, so which
/// duplicate takes which index does not matter).
pub fn digest_by_fault(initial: &[FaultSpec], outcomes: &[(FaultSpec, FaultEffect)]) -> u64 {
    let mut index: HashMap<FaultSpec, Vec<usize>> = HashMap::new();
    for (i, f) in initial.iter().enumerate().rev() {
        index.entry(*f).or_default().push(i);
    }
    outcome_digest(outcomes.iter().map(|(f, e)| {
        let i = index.get_mut(f).and_then(Vec::pop).unwrap_or(usize::MAX);
        (i, *f, *e)
    }))
}

/// A MeRLiN result in the terms the benchmark checks and reports.
pub struct MerlinRun {
    pub classification: Classification,
    pub injections: usize,
    pub static_pruned: usize,
    pub digest: u64,
    /// The representatives' campaign; only the step-by-step path sees it.
    pub reps: Option<TimedCampaign>,
}

/// MeRLiN through the library's single call.  Its representatives'
/// `ScheduleStats` (containment asserts among them) stay inside the
/// library; [`merlin_steps`] exposes them.
pub fn merlin(
    session: &Session,
    structure: Structure,
    initial: &[FaultSpec],
) -> Result<MerlinRun, String> {
    let m = session
        .merlin_with_faults(structure, initial)
        .map_err(|e| e.to_string())?;
    let outcomes: Vec<(FaultSpec, FaultEffect)> =
        m.outcomes.iter().map(|o| (o.fault, o.effect)).collect();
    Ok(MerlinRun {
        classification: m.report.classification,
        injections: m.report.injections,
        static_pruned: m.report.static_pruned,
        digest: digest_by_fault(initial, &outcomes),
        reps: None,
    })
}

/// MeRLiN through its public steps, each in its own span: the static
/// partition (`Session::analysis`), `reduce_fault_list`, the
/// representatives' `Session::campaign` and the extrapolation.  It must
/// agree with [`merlin`]; the traced run checks that it does.
pub fn merlin_steps(
    session: &Session,
    structure: Structure,
    initial: &[FaultSpec],
) -> Result<MerlinRun, String> {
    let ace = session.ace_profile().map_err(|e| e.to_string())?;
    let (dead, dynamic): (Vec<FaultSpec>, Vec<FaultSpec>) = {
        let _s = span("analyze.static_partition");
        let analysis = session.analysis();
        initial.iter().copied().partition(|f| {
            f.structure == Structure::RegisterFile && analysis.rf_entry_statically_dead(f.entry)
        })
    };
    let reduction = {
        let _s = span("core.reduce");
        reduce_fault_list(&dynamic, ace.structure(structure))
    };
    let reps = campaign(session, &reduction.reduced_fault_list())?;
    let _s = span("core.extrapolate");
    let rep_effect: HashMap<FaultSpec, FaultEffect> = reps
        .result
        .outcomes
        .iter()
        .map(|o| (o.fault, o.effect))
        .collect();
    let mut outcomes = Vec::with_capacity(initial.len());
    let mut classification = Classification::default();
    for &f in dead.iter().chain(&reduction.ace_masked) {
        outcomes.push((f, FaultEffect::Masked));
        classification.record(FaultEffect::Masked, 1);
    }
    for group in &reduction.groups {
        for sub in &group.subgroups {
            let effect = rep_effect[&sub.representative];
            for f in &sub.faults {
                outcomes.push((f.fault, effect));
                classification.record(effect, 1);
            }
        }
    }
    Ok(MerlinRun {
        classification,
        injections: reduction.injections(),
        static_pruned: dead.len(),
        digest: digest_by_fault(initial, &outcomes),
        reps: Some(reps),
    })
}

/// AVF in percent over the first `n` outcomes of a campaign.
pub fn avf_pct(effects: impl Iterator<Item = FaultEffect>) -> f64 {
    let mut c = Classification::default();
    for e in effects {
        c.record(e, 1);
    }
    100.0 * c.avf()
}

/// Counters of one campaign that must repeat exactly when the same list
/// runs again on the same store, whatever the thread schedule.
pub fn exact_counters(s: &ScheduleStats) -> [(&'static str, u64); 7] {
    [
        ("suffix_cycles", s.suffix_cycles),
        ("golden_replay_cycles", s.golden_replay_cycles),
        ("forks_spawned", s.forks_spawned),
        ("forks_retired", s.forks_retired),
        ("static_prunes", s.static_prunes),
        ("ranges", s.ranges),
        ("asserts", s.asserts),
    ]
}

/// Named counter values, in a fixed order.
pub type Counters = Vec<(&'static str, u64)>;

/// Records a campaign's exact counters under `key` the first time, and on
/// later repetitions checks that they repeat bit-for-bit.
#[derive(Default)]
pub struct RepeatCheck {
    seen: HashMap<String, Counters>,
}

impl RepeatCheck {
    pub fn check(&mut self, report: &mut Report, key: &str, counters: Counters) {
        match self.seen.get(key) {
            None => {
                self.seen.insert(key.to_string(), counters);
            }
            Some(first) if *first != counters => report.problem(format!(
                "{key}: exact counters changed between repetitions: {first:?} then {counters:?}"
            )),
            Some(_) => {}
        }
    }
}

/// Sum over programs of one set-up phase's seconds, each program's
/// samples reduced by `stat` (`median` or `mean`).
pub fn setup_seconds<K>(
    setups: &std::collections::BTreeMap<K, Vec<SetUp>>,
    phase: impl Fn(&SetUp) -> f64,
    stat: fn(&[f64]) -> f64,
) -> f64 {
    setups
        .values()
        .map(|v| stat(&v.iter().map(&phase).collect::<Vec<_>>()))
        .sum()
}

/// Registers the exact and scheduling-dependent campaign counters of a
/// traced round as per-layer metrics.
pub fn schedule_metrics(report: &mut Report, total: &ScheduleStats, early_exits: u64) {
    use Stability::*;
    report.counter(
        "inject.suffix_cycles",
        total.suffix_cycles as f64,
        "cycles",
        Exact,
    );
    report.counter(
        "inject.golden_replay_cycles",
        total.golden_replay_cycles as f64,
        "cycles",
        Exact,
    );
    report.counter("inject.restores", total.restores as f64, "count", Exact);
    report.counter(
        "inject.incremental_frac",
        total.incremental_restores as f64 / total.restores.max(1) as f64,
        "ratio",
        Scheduling,
    );
    report.note(format!(
        "{} incremental of {} restores",
        total.incremental_restores, total.restores
    ));
    report.counter(
        "inject.restored_bytes",
        total.restored_bytes as f64,
        "B",
        Scheduling,
    );
    report.counter(
        "inject.forks_spawned",
        total.forks_spawned as f64,
        "count",
        Exact,
    );
    report.counter("inject.early_exits", early_exits as f64, "count", Exact);
    report.counter(
        "inject.range_steals",
        total.range_steals as f64,
        "count",
        Scheduling,
    );
    report.counter("inject.asserts", total.asserts as f64, "count", Exact);
    report.counter(
        "inject.retire_frac",
        total.forks_retired as f64 / total.forks_spawned.max(1) as f64,
        "ratio",
        Exact,
    );
    report.note(format!(
        "{} retired of {} forks spawned",
        total.forks_retired, total.forks_spawned
    ));
}

/// Adds `b` into `a`, field by field, for the counters the benchmark uses.
pub fn add_stats(a: &mut ScheduleStats, b: &ScheduleStats) {
    a.ranges += b.ranges;
    a.restores += b.restores;
    a.range_steals += b.range_steals;
    a.full_restores += b.full_restores;
    a.incremental_restores += b.incremental_restores;
    a.restored_bytes += b.restored_bytes;
    a.suffix_cycles += b.suffix_cycles;
    a.asserts += b.asserts;
    a.static_prunes += b.static_prunes;
    a.forks_spawned += b.forks_spawned;
    a.forks_retired += b.forks_retired;
    a.golden_replay_cycles += b.golden_replay_cycles;
    a.cow_breaks += b.cow_breaks;
}

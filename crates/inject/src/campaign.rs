//! Campaign building blocks: golden runs, checkpoint bundles, single-fault
//! execution and campaign results.
//!
//! # The checkpoint-and-restore injection engine
//!
//! Every faulty run is bit-identical to the golden run until its fault's
//! injection cycle, so simulating each fault from cycle 0 (the classic GeFIN
//! approach) repays the same prefix thousands of times.  The engine removes
//! that cost:
//!
//! 1. [`Session::golden`](crate::Session::golden) executes the golden run
//!    exactly once while snapshotting the complete microarchitectural state
//!    ([`CpuState`](merlin_cpu::CpuState)) into a [`CheckpointStore`], in a
//!    single adaptive pass: snapshots are taken at the policy's minimum
//!    interval and the store is thinned whenever it exceeds twice the
//!    [`CheckpointPolicy`] target — by interval doubling
//!    ([`SpacingStrategy::EqualCycles`](merlin_cpu::SpacingStrategy)) or by
//!    retaining the snapshots nearest the equal-*suffix-work* boundaries
//!    ([`SpacingStrategy::SuffixWork`](merlin_cpu::SpacingStrategy), the
//!    default) — so a run of any length ends up with ~target..2×target
//!    checkpoints without a sizing pre-pass.  The store rides inside the
//!    returned [`GoldenRun`], so every campaign over that golden run shares
//!    it.
//! 2. [`Session::campaign`](crate::Session::campaign) hands the fault list
//!    to the [`CampaignScheduler`](crate::CampaignScheduler) (see the
//!    [`schedule`](crate::schedule) module), which buckets it into
//!    per-checkpoint ranges and binds workers to whole ranges so each
//!    worker's restore snapshot stays hot.  Per range, a worker restores one
//!    golden core from the range's checkpoint, replays it once through the
//!    range's injection cycles and forks a faulty core at each of them (see
//!    the [`batch`](crate::batch) module), so every fault simulates only its
//!    suffix against the golden timeout.
//! 3. While a faulty run is past its injection cycle, the worker compares the
//!    core's state against the golden checkpoint stream at each retained
//!    checkpoint cycle it crosses ([`run_to_retirement`]).  If the states are
//!    bit-identical the remainder of the run is guaranteed identical to the
//!    golden run, so the fault is classified Masked immediately (early exit)
//!    instead of simulating to the end.
//!
//! The program and configuration are shared across workers via `Arc` — no
//! per-fault `Program`/`CpuConfig` clones, no per-fault core construction.
//!
//! Correctness bar: a checkpointed campaign produces byte-identical
//! [`CampaignResult::outcomes`] to the from-scratch path at any thread
//! count.  Restoration is exact (the core is deterministic and
//! [`CpuState`](merlin_cpu::CpuState) captures all mutable state) and the
//! early exit only fires when the faulty state has provably re-converged, so
//! both paths classify every fault identically.

use crate::classify::{classify, Classification, FaultEffect};
use crate::schedule::ScheduleStats;
use merlin_cpu::{
    CheckpointPolicy, CheckpointStore, Cpu, CpuConfig, CpuState, FaultSpec, NullProbe, RunResult,
    StateDiff,
};
use merlin_isa::{DecodedProgram, Program};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoised [`CpuState::diff_to`](merlin_cpu::CpuState::diff_to) results,
/// keyed by (restore-snapshot cycle, probed-checkpoint cycle).
///
/// The early-exit convergence test probes the same (restore source, golden
/// checkpoint) pairs for every fault in a checkpoint range, and the diff of
/// two golden snapshots never changes — so each worker computes it once and
/// the touched-entry-only probe ([`Cpu::matches_state_with_diff`]) amortises
/// over the hundreds of faults sharing the range.  Caches are per
/// worker/injector (never shared), matching the per-core `last_restored`
/// epoch the diff is valid against.
pub(crate) type DiffCache = HashMap<(u64, u64), StateDiff>;

/// The fault-free reference execution a campaign compares against.
///
/// When produced under an enabled [`CheckpointPolicy`] (the default for
/// [`Session::golden`](crate::Session::golden)) it also carries the
/// checkpoint store, which every campaign and baseline over this golden run
/// then shares (`Arc`); a disabled policy leaves it empty and campaigns fall
/// back to from-scratch simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRun {
    /// Result of the fault-free run.
    pub result: RunResult,
    /// Cycle budget granted to faulty runs: the paper's 3× rule for
    /// deadlock/livelock detection.
    pub timeout_cycles: u64,
    /// Checkpoints of the golden run plus the policy they were built under,
    /// when checkpointing is enabled.  Never serialised (a store can run to
    /// many megabytes and is cheap to rebuild); with real serde this field
    /// must keep its `skip` attribute or the derive stops compiling.
    #[serde(skip)]
    pub checkpoints: Option<Arc<GoldenCheckpoints>>,
}

impl GoldenRun {
    /// The paper's deadlock/livelock budget for faulty runs: 3× the golden
    /// run's cycle count, floored at 1000 cycles for very short programs.
    /// The single definition both golden-run builders use, so the rule
    /// cannot drift between the plain and checkpointed paths.
    pub fn timeout_for(golden_cycles: u64) -> u64 {
        golden_cycles.saturating_mul(3).max(1000)
    }
}

/// A checkpoint store together with the policy that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCheckpoints {
    /// The per-range snapshots of the golden run.
    pub store: CheckpointStore,
    /// The policy the store was built under (controls early exit).
    pub policy: CheckpointPolicy,
}

impl GoldenCheckpoints {
    /// Whether the store can serve every injection cycle of a campaign — it
    /// must hold a snapshot at or before any cycle, i.e. start with the
    /// cycle-0 reset state.  Stores built through the session layer always
    /// qualify; a degenerate store (decoded from a foreign `.golden` file,
    /// or built on a mid-run core) makes campaigns fall back to from-scratch
    /// simulation instead of panicking a worker.
    pub fn usable_for_campaigns(&self) -> bool {
        self.store.starts_at_reset()
    }
}

/// Errors produced while setting up or executing a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden (fault-free) run did not terminate cleanly, so no
    /// reference to classify against exists.
    GoldenRunFailed(String),
    /// The processor configuration is invalid.
    BadConfig(String),
    /// A fault specification handed to the session violates the fault model
    /// (bit index outside the 64-bit entry).
    InvalidFault(String),
    /// The program failed session admission control: the static linter
    /// found out-of-range control targets, reads of never-written
    /// registers, or unreachable instructions.  The full report is
    /// attached so a campaign service can hand it back to the program's
    /// author verbatim.
    Lint(merlin_analyze::LintReport),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::GoldenRunFailed(e) => write!(f, "golden run failed: {e}"),
            CampaignError::BadConfig(e) => write!(f, "invalid configuration: {e}"),
            CampaignError::InvalidFault(e) => write!(f, "invalid fault specification: {e}"),
            CampaignError::Lint(report) => {
                write!(f, "program rejected by static lint: {report}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

fn golden_run_from_result(result: RunResult) -> Result<RunResult, CampaignError> {
    if !result.exit.is_halted() {
        return Err(CampaignError::GoldenRunFailed(format!(
            "golden run exited with {:?} after {} cycles",
            result.exit, result.cycles
        )));
    }
    Ok(result)
}

/// Plain golden run, used by the session layer when checkpointing is off.
pub(crate) fn build_golden_plain(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &CpuConfig,
    max_cycles: u64,
) -> Result<GoldenRun, CampaignError> {
    let mut cpu = Cpu::with_predecoded(Arc::clone(program), Arc::clone(decoded), cfg.clone())
        .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
    let result = golden_run_from_result(cpu.run(max_cycles, &mut NullProbe))?;
    let timeout_cycles = GoldenRun::timeout_for(result.cycles);
    Ok(GoldenRun {
        result,
        timeout_cycles,
        checkpoints: None,
    })
}

/// One-pass checkpointed golden run, used by
/// [`Session::golden`](crate::Session::golden): the golden run is simulated
/// exactly once, snapshotting every `policy.min_interval` cycles and
/// thinning the store per the policy's [`SpacingStrategy`] whenever it
/// exceeds twice the policy's target count.
///
/// [`SpacingStrategy`]: merlin_cpu::SpacingStrategy
pub(crate) fn build_golden_checkpointed(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &CpuConfig,
    max_cycles: u64,
    policy: &CheckpointPolicy,
) -> Result<GoldenRun, CampaignError> {
    if !policy.enabled {
        return build_golden_plain(program, decoded, cfg, max_cycles);
    }
    let mut cpu = Cpu::with_predecoded(Arc::clone(program), Arc::clone(decoded), cfg.clone())
        .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
    let (result, store) = cpu.run_with_adaptive_checkpoints(
        max_cycles,
        &mut NullProbe,
        policy.min_interval,
        policy.target_checkpoints,
        policy.spacing,
    );
    let result = golden_run_from_result(result)?;
    let timeout_cycles = GoldenRun::timeout_for(result.cycles);
    Ok(GoldenRun {
        result,
        timeout_cycles,
        checkpoints: Some(Arc::new(GoldenCheckpoints {
            store,
            policy: *policy,
        })),
    })
}

/// From-scratch single-fault run over a shared program image (no per-fault
/// program clone): the fault's effect and the cycles simulated from cycle
/// 0.  An absent fault site cannot affect this configuration and is Masked
/// without simulating.
pub(crate) fn run_single_fault_shared(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &CpuConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
) -> (FaultEffect, u64) {
    let Ok(mut cpu) = Cpu::with_predecoded(Arc::clone(program), Arc::clone(decoded), cfg.clone())
    else {
        return (FaultEffect::Assert, 0);
    };
    if cpu.inject_fault(fault).is_err() {
        return (FaultEffect::Masked, 0);
    }
    // An internal invariant violation inside the simulator is the paper's
    // Assert class: catch it rather than tearing the campaign down.  The
    // panic path records zero simulated cycles, matching the checkpointed
    // engine.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::chaos::maybe_panic_fault(fault.cycle);
        cpu.run(golden.timeout_cycles, &mut NullProbe)
    }));
    match outcome {
        Ok(result) => (classify(&golden.result, &result), result.cycles),
        Err(_) => (FaultEffect::Assert, 0),
    }
}

/// Runs a core that was restored from the golden snapshot `restored` (and
/// possibly advanced or forked since) and holds a fault injected at
/// `fault_cycle`, until the fault's fate is known.  This is the one
/// boundary-probe loop of the checkpointed engine, shared by the campaign
/// driver ([`crate::batch`]) and [`FaultInjector`].
///
/// Early exit: past the injection cycle, the core's state is compared
/// against the golden checkpoint stream at each retained checkpoint cycle
/// it crosses (`boundaries`, ascending — equal-cycle and suffix-work stores
/// alike).  Bit-identical state implies an identical remainder, hence
/// Masked.  `diffs` memoises restore-source-to-boundary golden diffs so
/// the probe compares only entries that could differ instead of the whole
/// state.  Without a match the core runs to halt or timeout and is
/// classified against the golden result.
///
/// Returns the effect, whether the probe retired the fault early, and the
/// cycle the core stopped at.  Not panic-contained: callers catch, classify
/// `Assert` and quarantine the core.
pub(crate) fn run_to_retirement(
    cpu: &mut Cpu,
    golden: &GoldenRun,
    ckpts: &GoldenCheckpoints,
    boundaries: &[u64],
    diffs: &mut DiffCache,
    restored: &CpuState,
    fault_cycle: u64,
) -> (FaultEffect, bool, u64) {
    crate::chaos::maybe_panic_fault(fault_cycle);
    let timeout = golden.timeout_cycles;
    let mut probe = NullProbe;
    // The cursor starts at the first boundary strictly after the injection
    // cycle; every boundary is within the golden run by construction.
    let mut next = boundaries.partition_point(|&c| c <= fault_cycle);
    while !cpu.is_finished() && cpu.cycle() < timeout {
        if ckpts.policy.early_exit && next < boundaries.len() {
            if boundaries[next] < cpu.cycle() {
                next += 1;
            } else if boundaries[next] == cpu.cycle() {
                if let Some(g) = ckpts.store.at_cycle(cpu.cycle()) {
                    let diff = diffs
                        .entry((restored.cycle(), cpu.cycle()))
                        .or_insert_with(|| restored.diff_to(g));
                    if cpu.matches_state_with_diff(g, diff) {
                        return (FaultEffect::Masked, true, cpu.cycle());
                    }
                }
                next += 1;
            }
        }
        cpu.step(&mut probe);
    }
    let result = cpu.run(timeout, &mut probe);
    (classify(&golden.result, &result), false, result.cycles)
}

/// A reusable single-fault runner for callers that classify faults one at a
/// time (e.g. truncated-run studies) rather than through
/// [`Session::campaign`](crate::Session::campaign).
///
/// Shares the program and configuration across faults via `Arc`.  When the
/// golden run carries a checkpoint store it also reuses one core object,
/// restoring the nearest checkpoint per fault — the same engine the
/// campaigns use; without a store each fault builds a fresh core and
/// simulates from cycle 0.
pub struct FaultInjector {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    golden: GoldenRun,
    cpu: Option<Cpu>,
    /// Ascending checkpoint cycles of the golden store, when usable —
    /// computed once so per-fault runs allocate nothing.
    boundaries: Vec<u64>,
    /// Memoised golden-to-golden diffs for the touched-entry convergence
    /// probe, keyed by (restore cycle, boundary cycle).
    diffs: DiffCache,
}

impl FaultInjector {
    /// Creates an injector over one (program, configuration, golden run)
    /// triple.  The program is cloned once here, never per fault.
    pub fn new(program: &Program, cfg: &CpuConfig, golden: &GoldenRun) -> Self {
        Self::from_parts(
            Arc::new(program.clone()),
            Arc::new(DecodedProgram::new(program)),
            Arc::new(cfg.clone()),
            golden.clone(),
        )
    }

    /// Clone-free constructor used by [`Session::injector`](crate::Session):
    /// the session already holds the program, its pre-decoded table and the
    /// configuration behind `Arc`s.
    pub(crate) fn from_parts(
        program: Arc<Program>,
        decoded: Arc<DecodedProgram>,
        cfg: Arc<CpuConfig>,
        golden: GoldenRun,
    ) -> Self {
        let boundaries = golden
            .checkpoints
            .as_ref()
            .filter(|c| c.usable_for_campaigns())
            .map(|c| c.store.cycles().collect())
            .unwrap_or_default();
        FaultInjector {
            program,
            decoded,
            cfg,
            golden,
            cpu: None,
            boundaries,
            diffs: DiffCache::new(),
        }
    }

    /// The golden run faults are classified against.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// Runs one fault and classifies its effect, without per-fault clones
    /// and with checkpoint-restore suffix simulation when available.
    pub fn run(&mut self, fault: FaultSpec) -> FaultEffect {
        self.run_with_cycles(fault).0
    }

    /// Like [`FaultInjector::run`], additionally returning the number of
    /// cycles the faulty run actually simulated (restore point to wherever
    /// it ended) — the deterministic per-fault latency measure the bench
    /// harness tracks tail latency with.
    pub fn run_with_cycles(&mut self, fault: FaultSpec) -> (FaultEffect, u64) {
        let usable = self
            .golden
            .checkpoints
            .clone()
            .filter(|c| c.usable_for_campaigns());
        let Some(ckpts) = usable else {
            return run_single_fault_shared(
                &self.program,
                &self.decoded,
                &self.cfg,
                &self.golden,
                fault,
            );
        };
        if fault.entry >= self.cfg.structure_entries(fault.structure) {
            // Same semantics as the from-scratch path: a fault site that
            // does not exist in this configuration cannot affect it.
            return (FaultEffect::Masked, 0);
        }
        if self.cpu.is_none() {
            match Cpu::with_predecoded(
                Arc::clone(&self.program),
                Arc::clone(&self.decoded),
                (*self.cfg).clone(),
            ) {
                Ok(c) => self.cpu = Some(c),
                Err(_) => return (FaultEffect::Assert, 0),
            }
        }
        let cpu = self.cpu.as_mut().expect("injector core initialised above");
        let state = ckpts
            .store
            .latest_at_or_before(fault.cycle)
            .expect("campaigns only use stores that start at the cycle-0 snapshot");
        cpu.restore_from(state);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cpu.inject_fault(fault).expect("fault site checked above");
            run_to_retirement(
                cpu,
                &self.golden,
                &ckpts,
                &self.boundaries,
                &mut self.diffs,
                state,
                fault.cycle,
            )
        }));
        match outcome {
            Ok((effect, _, end_cycle)) => (effect, end_cycle.saturating_sub(state.cycle())),
            Err(_) => {
                // The panic unwound mid-step: the core's pipeline and
                // touched-line bookkeeping are now untrusted, so demote it —
                // its next restore is forced onto the full path instead of
                // silently trusting incremental state.  Simulated cycles are
                // recorded as 0, matching the from-scratch panic path.
                cpu.quarantine();
                (FaultEffect::Assert, 0)
            }
        }
    }
}

/// Outcome of one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Its observed effect.
    pub effect: FaultEffect,
}

/// Result of a full injection campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-fault outcomes, in the order of the input fault list.
    pub outcomes: Vec<FaultOutcome>,
    /// Aggregate histogram.
    pub classification: Classification,
    /// Number of simulation runs actually executed (excludes faults resolved
    /// without simulation).
    pub runs_executed: u64,
    /// Faults the checkpointed engine classified Masked by state
    /// re-convergence with the golden checkpoint stream, without simulating
    /// to the program's end (always 0 on the from-scratch path).
    pub early_exits: u64,
    /// How the scheduler executed the campaign: ranges, restores, steals and
    /// total suffix cycles simulated.  Classification outcomes never depend
    /// on these — they vary with thread count and checkpoint spacing while
    /// [`CampaignResult::outcomes`] stays byte-identical.
    pub schedule: ScheduleStats,
}

impl CampaignResult {
    /// Builds the aggregate result from per-fault outcomes.
    pub fn from_outcomes(outcomes: Vec<FaultOutcome>, runs_executed: u64) -> Self {
        let mut classification = Classification::default();
        for o in &outcomes {
            classification.record(o.effect, 1);
        }
        CampaignResult {
            outcomes,
            classification,
            runs_executed,
            early_exits: 0,
            schedule: ScheduleStats::default(),
        }
    }
}

//! Fork-on-divergence suffix simulation, the checkpointed campaign engine:
//! one golden replay per checkpoint range, one faulty core forked from the
//! live golden state per fault, probe-driven retirement.
//!
//! # The inversion
//!
//! Restoring a golden snapshot *per fault* would replay the fault-free
//! prefix from the restore point to the injection cycle before any faulty
//! behaviour exists.  For a range holding `k` faults that prefix replay
//! would be paid `k` times, and every replayed cycle is — by the
//! determinism of the core — bit-identical to the golden run the
//! checkpoint was taken from.
//!
//! The driver inverts the loop.  Per checkpoint range it:
//!
//! 1. restores **one golden core** from the range's shared snapshot and
//!    drives it forward exactly once, stopping at each injection cycle
//!    (`golden_replay_cycles`),
//! 2. **forks** a faulty core at each fault's injection cycle: a pool core
//!    is incrementally restored from the same snapshot, then
//!    [`Cpu::fork_from`] shares the golden core's state structurally
//!    (copy-on-write, O(metadata)) and the fault is injected,
//! 3. runs the fork **to retirement on the spot** through
//!    [`run_to_retirement`], the boundary-probe loop it shares with
//!    [`FaultInjector`](crate::FaultInjector): at each retained checkpoint
//!    boundary the fork crosses, its state is compared against the golden
//!    checkpoint through the memoised golden-to-golden diff
//!    ([`Cpu::matches_state_with_diff`]); a fork that re-converged with the
//!    golden stream is retired Masked immediately (`forks_retired`),
//!    anything else runs to halt or timeout and is classified against the
//!    golden result.
//!
//! Forks run back-to-back, never interleaved, so a worker needs exactly two
//! cores — the golden core and the current fork — and keeps one core's
//! working set hot at a time.
//!
//! # Determinism
//!
//! A fork spawned while the golden core sits at the fault's injection
//! cycle is bit-identical to a core restored from the same snapshot and
//! stepped fault-free to that cycle, and both apply the fault at the same
//! step.  From there the fork's simulation loop *is* the injector's loop,
//! so campaigns produce byte-identical
//! [`CampaignResult::outcomes`](crate::CampaignResult::outcomes) to
//! [`Session::campaign_from_scratch`](crate::Session::campaign_from_scratch)
//! and to a [`FaultInjector`](crate::FaultInjector) run per fault, at any
//! thread count; `tests/batched_determinism.rs` pins the equivalence.
//!
//! # Failure containment
//!
//! A panic during a fork's spawn or run classifies that fault
//! [`Assert`](crate::FaultEffect::Assert) with zero suffix cycles and
//! quarantines the fork's core, which goes back on top of the pool so the
//! worker's next restore is the forced full restore (counted in
//! `poisoned_restores`).  A panic in the golden core's restore or replay
//! unwinds to the scheduler's range-level containment: one retry on fresh
//! cores, then the whole range is classified `Assert`.

use crate::campaign::{run_to_retirement, DiffCache, FaultOutcome, GoldenCheckpoints, GoldenRun};
use crate::classify::FaultEffect;
use crate::schedule::ScheduleStats;
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe};
use merlin_isa::{DecodedProgram, Program};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-worker pool of reusable cores: the golden replay core and the
/// current fork.  Cores are built on demand and reused for the whole
/// campaign; a quarantined core is pushed last so the next
/// [`ForkPool::take`] restores it first.
pub(crate) struct ForkPool {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    idle: Vec<Cpu>,
    /// Copy-on-write sharing breaks drained from cores as they return to
    /// the pool (see [`Cpu::take_cow_breaks`]).
    cow_breaks: u64,
}

impl ForkPool {
    pub(crate) fn new(
        program: &Arc<Program>,
        decoded: &Arc<DecodedProgram>,
        cfg: &Arc<CpuConfig>,
    ) -> Self {
        ForkPool {
            program: Arc::clone(program),
            decoded: Arc::clone(decoded),
            cfg: Arc::clone(cfg),
            idle: Vec::new(),
            cow_breaks: 0,
        }
    }

    /// Pops an idle core, constructing one if the pool is dry.  `None`
    /// means the configuration cannot build a core at all.
    fn take(&mut self) -> Option<Cpu> {
        self.idle.pop().or_else(|| {
            Cpu::with_predecoded(
                Arc::clone(&self.program),
                Arc::clone(&self.decoded),
                (*self.cfg).clone(),
            )
            .ok()
        })
    }

    fn put(&mut self, mut cpu: Cpu) {
        self.cow_breaks += cpu.take_cow_breaks();
        self.idle.push(cpu);
    }

    /// Drops every pooled core (range retries start from fresh cores).
    pub(crate) fn clear(&mut self) {
        self.idle.clear();
    }
}

/// Runs one checkpoint range's simulated faults through the driver,
/// appending one outcome per fault to `out` and its tallies to `stats`.
/// `sim` holds the fault-list indices that actually reach a core
/// (statically-pruned and absent-site faults are resolved by the caller),
/// cycle-sorted; every fault shares the range's restore snapshot by the
/// scheduler's bucketing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_range(
    pool: &mut ForkPool,
    golden: &GoldenRun,
    ckpts: &GoldenCheckpoints,
    boundaries: &[u64],
    diffs: &mut DiffCache,
    faults: &[FaultSpec],
    sim: &[usize],
    stats: &mut ScheduleStats,
    out: &mut Vec<(usize, FaultOutcome)>,
) {
    let Some(&first) = sim.first() else {
        return;
    };
    let state = ckpts
        .store
        .latest_at_or_before(faults[first].cycle)
        .expect("campaigns only use stores that start at the cycle-0 snapshot");
    let mut golden_core = pool.take();
    if let Some(g) = golden_core.as_mut() {
        stats.count_restore(g.restore_from(state));
    }
    for &idx in sim {
        let fault = faults[idx];
        let (Some(g), Some(mut core)) = (golden_core.as_mut(), pool.take()) else {
            // The configuration cannot build a core: nothing simulates.
            stats.asserts += 1;
            out.push((
                idx,
                FaultOutcome {
                    fault,
                    effect: FaultEffect::Assert,
                },
            ));
            continue;
        };
        // Replay the golden core up to the injection cycle — never past it,
        // so the fork sees exactly the state a restored core has after
        // replaying to that cycle.  Once the golden run halts its cycle
        // freezes and the remaining forks clone the frozen final state:
        // their faults never fire, and they finalise immediately with the
        // golden result.
        while !g.is_finished() && g.cycle() < fault.cycle {
            g.step(&mut NullProbe);
            stats.golden_replay_cycles += 1;
        }
        let spawn_cycle = g.cycle();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            stats.count_restore(core.restore_from(state));
            let fork = core.fork_from(g);
            stats.forks_spawned += 1;
            stats.fork_bytes_copied += fork.copied.total();
            stats.fork_bytes_shared += fork.shared.total();
            core.inject_fault(fault)
                .expect("absent fault sites are resolved before dispatch");
            run_to_retirement(
                &mut core,
                golden,
                ckpts,
                boundaries,
                diffs,
                state,
                fault.cycle,
            )
        }));
        let effect = match ran {
            Ok((effect, early_exit, end_cycle)) => {
                stats.forks_retired += u64::from(early_exit);
                stats.suffix_cycles += end_cycle.saturating_sub(spawn_cycle);
                effect
            }
            Err(_) => {
                core.quarantine();
                FaultEffect::Assert
            }
        };
        pool.put(core);
        stats.asserts += u64::from(effect == FaultEffect::Assert);
        out.push((idx, FaultOutcome { fault, effect }));
    }
    if let Some(g) = golden_core {
        pool.put(g);
    }
    stats.cow_breaks += std::mem::take(&mut pool.cow_breaks);
}

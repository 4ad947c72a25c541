//! Property: the checkpointed engine is *outcome-invisible*.
//!
//! Campaigns replay each checkpoint range's golden prefix once and fork
//! faulty cores from the live golden state, so they must prove they
//! changed only the work, never the answer:
//!
//! * a checkpointed campaign is byte-identical to a full from-scratch
//!   simulation AND to a restore-per-fault [`FaultInjector`] run over the
//!   same faults, at 1/2/4/8 worker threads, for random fault lists
//!   (proptest) and for a pinned list with telemetry checks;
//! * every probe-retired fork (counted by `forks_retired`, classified
//!   Masked without finishing its run) really is Masked under full
//!   simulation — the byte-identity against the from-scratch campaign,
//!   which fully simulates every fault with no convergence probes, pins
//!   exactly that;
//! * duplicated fault specs, forked at the same cycle from the same golden
//!   state, classify exactly as their originals.
//!
//! [`FaultInjector`]: merlin_inject::FaultInjector

use merlin_cpu::{CheckpointPolicy, CpuConfig};
use merlin_inject::{FaultOutcome, FaultSpec, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

fn tiny_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&[2, 7, 1, 8, 2, 8, 1, 8]);
    b.movi(reg(10), data as i64);
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 8, top);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

fn session(threads: usize) -> Session {
    Session::builder(&tiny_program(), &CpuConfig::default().with_phys_regs(64))
        .checkpoints(CheckpointPolicy {
            enabled: true,
            target_checkpoints: 8,
            min_interval: 8,
            early_exit: true,
            ..CheckpointPolicy::default()
        })
        .max_cycles(1_000_000)
        .threads(threads)
        .build()
        .unwrap()
}

/// Sessions at 1, 2, 4 and 8 worker threads.
fn sessions() -> &'static [Session] {
    static SESSIONS: OnceLock<Vec<Session>> = OnceLock::new();
    SESSIONS.get_or_init(|| [1usize, 2, 4, 8].into_iter().map(session).collect())
}

/// The reference outcomes: a from-scratch campaign, checked against a
/// restore-per-fault injector run over the same faults.  Also returns the
/// cycles the injector simulated per fault (restore point to end).
fn oracle(s: &Session, faults: &[FaultSpec]) -> (Vec<FaultOutcome>, Vec<u64>) {
    let scratch = s.campaign_from_scratch(faults).unwrap();
    assert_eq!(scratch.schedule.restores, 0);
    assert_eq!(scratch.schedule.forks_spawned, 0);
    assert_eq!(scratch.schedule.golden_replay_cycles, 0);
    assert_eq!(scratch.early_exits, 0);
    let mut injector = s.injector().unwrap();
    let mut cycles = Vec::with_capacity(faults.len());
    for (o, &fault) in scratch.outcomes.iter().zip(faults) {
        let (effect, c) = injector.run_with_cycles(fault);
        assert_eq!(
            o.effect, effect,
            "injector disagrees with from-scratch on {fault:?}"
        );
        cycles.push(c);
    }
    (scratch.outcomes, cycles)
}

#[test]
fn checkpointed_campaign_matches_from_scratch_and_the_injector_with_live_telemetry() {
    let sessions = sessions();
    let faults = sessions[0]
        .fault_list(Structure::RegisterFile, 80, 42)
        .unwrap();
    let (expected, injector_cycles) = oracle(&sessions[0], &faults);
    // Restore-per-fault work over the faults a campaign actually simulates
    // (statically-dead entries are pruned before any core is touched).
    let analysis = sessions[0].analysis();
    let per_fault_cycles: u64 = faults
        .iter()
        .zip(&injector_cycles)
        .filter(|(f, _)| !analysis.rf_entry_statically_dead(f.entry))
        .map(|(_, &c)| c)
        .sum();

    for session in sessions {
        let t = session.threads();
        let result = session.campaign(&faults).unwrap();
        let sched = result.schedule;
        assert_eq!(result.outcomes, expected, "x{t} threads");
        // The driver actually ran: every simulated fault lived as a fork.
        assert_eq!(
            sched.forks_spawned + sched.static_prunes + sched.skipped_sites,
            faults.len() as u64,
            "x{t} threads"
        );
        assert!(sched.forks_spawned > 0, "x{t} threads");
        assert!(sched.forks_retired <= sched.forks_spawned, "x{t} threads");
        assert_eq!(sched.forks_retired, result.early_exits, "x{t} threads");
        // The whole point of the inversion: the golden prefix is replayed
        // once per range, and the cores simulate strictly fewer cycles than
        // restoring and replaying per fault would.
        assert!(sched.golden_replay_cycles > 0, "x{t} threads");
        assert!(
            sched.suffix_cycles + sched.golden_replay_cycles < per_fault_cycles,
            "x{t} threads: forking must reduce simulated cycles \
             (forks {} + golden replay {} vs per-fault {per_fault_cycles})",
            sched.suffix_cycles,
            sched.golden_replay_cycles,
        );
    }
}

#[test]
fn duplicated_faults_classify_like_their_originals() {
    let sessions = sessions();
    let base = sessions[0]
        .fault_list(Structure::RegisterFile, 40, 7)
        .unwrap();
    // Every fault twice: the twins spawn at the same cycle from the same
    // golden state with the same injected corruption.
    let doubled: Vec<FaultSpec> = base.iter().flat_map(|&f| [f, f]).collect();
    let (expected, _) = oracle(&sessions[0], &doubled);
    for session in sessions {
        let result = session.campaign(&doubled).unwrap();
        assert_eq!(result.outcomes, expected, "x{} threads", session.threads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault lists: checkpointed == from-scratch == injector, at
    /// every thread count.  The from-scratch leg fully simulates every
    /// fault with no convergence probes, so this simultaneously proves
    /// that each probe-retired fork (`forks_retired`) really classifies
    /// Masked under full simulation.
    #[test]
    fn checkpointed_equals_full_simulation_and_the_injector(
        seed in 0u64..1_000_000,
        count in 40usize..80,
    ) {
        let sessions = sessions();
        let faults = sessions[0]
            .fault_list(Structure::RegisterFile, count, seed)
            .unwrap();
        let (expected, _) = oracle(&sessions[0], &faults);
        for session in sessions {
            let result = session.campaign(&faults).unwrap();
            prop_assert_eq!(
                &result.outcomes,
                &expected,
                "checkpointed engine changed an outcome at x{} threads",
                session.threads()
            );
        }
    }
}

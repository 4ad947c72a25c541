//! Cross-crate integration tests: the full MeRLiN pipeline (ISA → CPU →
//! workloads → ACE-like analysis → fault injection → grouping →
//! extrapolation) exercised through the umbrella crate's public API — the
//! session-oriented campaign API throughout.

use merlin_repro::cpu::{CheckpointPolicy, CpuConfig, Structure};
use merlin_repro::inject::FaultEffect;
use merlin_repro::merlin::{homogeneity, reduce_fault_list, relyzer_reduce};
use merlin_repro::workloads::workload_by_name;
use merlin_repro::{Session, SessionAce, SessionMethodology};
use std::collections::HashMap;

fn session_for(name: &str, cfg: &CpuConfig) -> Session {
    let w = workload_by_name(name).unwrap();
    Session::builder(&w.program, cfg)
        .max_cycles(100_000_000)
        .threads(4)
        .build()
        .unwrap()
}

#[test]
fn merlin_is_accurate_and_cheap_across_structures() {
    let cfg = CpuConfig::default()
        .with_phys_regs(64)
        .with_store_queue(16)
        .with_l1d_kb(16);
    let session = session_for("stringsearch", &cfg);
    for &structure in Structure::all() {
        let faults = session.fault_list(structure, 300, 11).unwrap();
        let merlin = session.merlin_with_faults(structure, &faults).unwrap();
        let baseline = session.comprehensive(&faults).unwrap();
        let inaccuracy = merlin
            .report
            .classification
            .max_inaccuracy(&baseline.classification);
        assert!(
            inaccuracy <= 8.0,
            "{structure}: inaccuracy {inaccuracy:.2} too large\n merlin   {}\n baseline {}",
            merlin.report.classification,
            baseline.classification
        );
        assert!(
            merlin.report.injections < faults.len(),
            "{structure}: no reduction achieved"
        );
        assert_eq!(merlin.report.classification.total() as usize, faults.len());
        // AVF agreement within a few points.
        assert!((merlin.report.avf() - baseline.classification.avf()).abs() < 0.08);
    }
    // Six campaign phases (MeRLiN + comprehensive, three structures), one
    // golden simulation and one ACE profile.
    assert_eq!(session.golden_builds(), 1);
}

#[test]
fn groups_are_homogeneous_on_a_real_workload() {
    let session = session_for("sha", &CpuConfig::default().with_phys_regs(128));
    let ace = session.ace_profile().unwrap();
    let faults = session.fault_list(Structure::RegisterFile, 400, 3).unwrap();
    let reduction = reduce_fault_list(&faults, ace.structure(Structure::RegisterFile));
    let post_ace = session.post_ace_baseline(&reduction).unwrap();
    let effects: HashMap<_, _> = post_ace
        .outcomes
        .iter()
        .map(|o| (o.fault, o.effect))
        .collect();
    let h = homogeneity(&reduction, &effects);
    assert!(
        h.fine_grained > 0.85,
        "fine-grained homogeneity {:.3} below the paper's ~0.9 band",
        h.fine_grained
    );
    assert!(h.coarse >= h.fine_grained - 1e-12);
    assert!(h.perfect_group_fraction > 0.7);
}

#[test]
fn relyzer_heuristic_produces_fewer_but_coarser_groups() {
    let session = session_for("qsort", &CpuConfig::default().with_phys_regs(128));
    let ace = session.ace_profile().unwrap();
    let faults = session
        .fault_list(Structure::RegisterFile, 500, 17)
        .unwrap();
    let merlin = reduce_fault_list(&faults, ace.structure(Structure::RegisterFile));
    let relyzer = relyzer_reduce(&faults, ace.structure(Structure::RegisterFile));
    // Both prune the identical ACE-masked set.
    assert_eq!(merlin.ace_masked.len(), relyzer.ace_masked.len());
    // Both reduce the list substantially.
    assert!(merlin.injections() * 5 < faults.len());
    assert!(relyzer.injections() * 5 < faults.len());
    // And the Relyzer campaign accounts for every fault.
    let (classification, injections) = session.relyzer(&relyzer).unwrap();
    assert_eq!(classification.total() as usize, faults.len());
    assert_eq!(injections, relyzer.injections());
}

#[test]
fn checkpointed_campaigns_match_from_scratch_byte_for_byte() {
    // The acceptance bar of the checkpoint-and-restore engine: on real
    // workloads, restoring a mid-run snapshot and simulating only the
    // post-injection suffix classifies every fault exactly as a from-cycle-0
    // simulation does.
    for (name, structure) in [
        ("stringsearch", Structure::RegisterFile),
        ("sha", Structure::StoreQueue),
        ("qsort", Structure::L1DCache),
    ] {
        let cfg = CpuConfig::default().with_phys_regs(64).with_store_queue(16);
        let session = session_for(name, &cfg);
        session.golden().unwrap();
        let store_len = session.golden_checkpoints().unwrap().store.len();
        assert!(
            store_len >= 8,
            "{name}: expected ≥ 8 checkpoints, got {store_len}"
        );
        let faults = session.fault_list(structure, 200, 41).unwrap();
        let checkpointed = session.campaign(&faults).unwrap();
        let scratch = session.campaign_from_scratch(&faults).unwrap();
        assert_eq!(
            checkpointed.outcomes, scratch.outcomes,
            "{name}/{structure}: engine diverged from the from-scratch path"
        );
        assert_eq!(checkpointed.classification, scratch.classification);
        // The restore-aware scheduler actually scheduled: faults bucketed
        // into checkpoint ranges, every in-range fault restored, and the
        // simulated suffix work far below the from-scratch total.
        assert!(checkpointed.schedule.ranges > 1);
        assert!(checkpointed.schedule.restores > 0);
        assert_eq!(scratch.schedule.restores, 0);
        assert!(
            checkpointed.schedule.suffix_cycles < scratch.schedule.suffix_cycles,
            "{name}/{structure}: restoring did not cut simulated cycles"
        );
        // A sparse store, where most of the engine's cycles go to golden
        // replay, must classify every fault the same way too.
        let sparse = Session::builder(&workload_by_name(name).unwrap().program, &cfg)
            .checkpoints(CheckpointPolicy {
                target_checkpoints: 6,
                ..CheckpointPolicy::default()
            })
            .max_cycles(100_000_000)
            .threads(4)
            .build()
            .unwrap();
        let sparse_result = sparse.campaign(&faults).unwrap();
        assert_eq!(
            sparse_result.outcomes, scratch.outcomes,
            "{name}/{structure}: sparse-store engine diverged from the from-scratch path"
        );
        assert!(sparse_result.schedule.golden_replay_cycles > 0);
    }
}

#[test]
fn masked_dominates_for_large_structures_and_every_class_is_reachable() {
    // Aggregate a few hundred faults across workloads/structures and check
    // the overall shape: Masked dominates, SDC and Crash both occur.
    let mut totals = merlin_repro::inject::Classification::default();
    for (name, structure) in [
        ("qsort", Structure::RegisterFile),
        ("caes", Structure::StoreQueue),
        ("susan_s", Structure::L1DCache),
    ] {
        let session = session_for(name, &CpuConfig::default());
        let faults = session.fault_list(structure, 250, 23).unwrap();
        let merlin = session.merlin_with_faults(structure, &faults).unwrap();
        totals += merlin.report.classification;
    }
    assert!(totals.percentage(FaultEffect::Masked) > 60.0);
    assert!(totals.sdc > 0, "no SDCs at all is implausible");
    assert_eq!(totals.total(), 750);
}

/// The API-redesign invariant: one session runs representative injection,
/// the comprehensive baseline and the post-ACE baseline while simulating its
/// golden run exactly once.  (Byte-identity against the pre-redesign
/// free-function path is proven in `crates/core/tests/session_regression.rs`,
/// next to the deprecated shims themselves.)
#[test]
fn session_builds_golden_once_across_all_phases() {
    let w = workload_by_name("stringsearch").unwrap();
    let cfg = CpuConfig::default().with_phys_regs(64).with_store_queue(16);
    let structure = Structure::RegisterFile;

    let session = Session::builder(&w.program, &cfg)
        .checkpoints(CheckpointPolicy::default())
        .max_cycles(100_000_000)
        .threads(4)
        .build()
        .unwrap();
    let faults = session.fault_list(structure, 300, 11).unwrap();
    let merlin = session.merlin_with_faults(structure, &faults).unwrap();
    let comprehensive = session.comprehensive(&faults).unwrap();
    let post_ace = session.post_ace_baseline(&merlin.reduction).unwrap();

    // The golden run was simulated exactly once across all three phases.
    assert_eq!(session.golden_builds(), 1);
    assert_eq!(comprehensive.classification.total() as usize, faults.len());
    assert_eq!(
        post_ace.classification.total() as usize,
        merlin.report.post_ace_faults
    );
}

//! The traced run: an untraced, a traced and another untraced round of the
//! workload, then each layer timed on its own, reported as per-layer
//! metrics.
//!
//! The traced round breaks MeRLiN into its public steps (`fault_list`, the
//! static partition via `Session::analysis`, `reduce_fault_list`,
//! `Session::campaign` of the reduced list, extrapolation) and must agree
//! with the untraced rounds' `merlin_with_faults`; the gap between the
//! traced round's wall time and the mean of the untraced rounds' around it
//! is the tracing overhead (the surrounding rounds cancel a steady drift
//! of host speed over the run).  A seeded sample of injected
//! faults is re-run from scratch (`Session::campaign_from_scratch`, the
//! oracle) and must classify the same, and the comprehensive lists run
//! again on a sparse checkpoint store must give the dense store's digests.
//!
//! Counters are marked exact (they repeat bit-for-bit for the same seed)
//! or scheduling-dependent; exact ones are compared between rounds and
//! with the previous traced run of the same workload, seed and sources.

use crate::common::{self, short, Counters, Ctx, MerlinRun, SetUp, TimedCampaign, STRUCTURES};
use crate::comprehensive::{self, CompRun};
use crate::report::{Report, Stability};
use crate::study::{self, StudyRun};
use crate::trace::{self, span};
use crate::util::{median, mix_seed, percentile_index, sample_size_for};
use merlin_cpu::{Cpu, CpuState, NullProbe};
use merlin_inject::{CheckpointPolicy, FaultEffect, FaultSpec, ScheduleStats, Session};
use merlin_isa::DecodedProgram;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Faults re-run from scratch to check the engine against the oracle.
const ORACLE_FAULTS: usize = 24;
/// Repetitions of each single-call layer timing (the median is kept).
const REPS: usize = 15;
/// Snapshots of each golden store the core-level timings visit.
const SNAPSHOTS: usize = 8;
/// Cycles a core runs between a restore and the incremental restore that
/// follows it.
const SUFFIX_CYCLES: u64 = 500;
/// Checkpoint target of the sparse store the comprehensive lists are run
/// on again: golden replay and long suffixes dominate there, restores are
/// rare, and the outcomes must still match the dense store's byte for byte.
const SPARSE_CHECKPOINTS: u32 = 6;

/// Layers whose spans the rounds record; `bench` is the benchmark's own
/// code between calls.
const LAYERS: [&str; 5] = ["bench", "inject", "ace", "analyze", "core"];

/// What a workload's round exposes to the layer measurements.
struct Round {
    wall_s: f64,
    programs: Vec<&'static str>,
    sessions: Vec<Session>,
    setup: BTreeMap<usize, Vec<SetUp>>,
    /// `(program index, list)` of every list the round drew.
    lists: Vec<(usize, Vec<FaultSpec>)>,
    /// Every campaign the round ran, with its program index.
    campaigns: Vec<(usize, TimedCampaign)>,
    /// `(cell name, initial faults, MeRLiN result)`.
    merlin: Vec<(String, usize, MerlinRun)>,
    /// `(cell name, campaign digest, exact counters)` of full-list campaigns.
    digests: Vec<(String, u64, Counters)>,
    cfg: merlin_cpu::CpuConfig,
}

fn study_round(ctx: &Ctx, report: &mut Report, steps: bool) -> Result<Round, String> {
    let StudyRun {
        wall_s,
        setup,
        merlin,
        sessions,
        lists,
        ..
    } = study::run(ctx, report, true, steps)?;
    let mut round = Round {
        wall_s,
        programs: study::PROGRAMS.to_vec(),
        sessions,
        setup,
        lists: Vec::new(),
        campaigns: Vec::new(),
        merlin: Vec::new(),
        digests: Vec::new(),
        cfg: merlin_cpu::CpuConfig::default(),
    };
    for ((p, _), list) in lists {
        round.lists.push((p, list));
    }
    for ((p, s), mut m) in merlin {
        let name = format!("{}/{}", study::PROGRAMS[p], short(STRUCTURES[s]));
        if let Some(reps) = m.reps.take() {
            round.campaigns.push((p, reps));
        }
        round.merlin.push((name, study::FAULTS, m));
    }
    Ok(round)
}

fn comprehensive_round(ctx: &Ctx, report: &mut Report, steps: bool) -> Result<Round, String> {
    let CompRun {
        wall_s,
        setup,
        cells,
        sessions,
        ..
    } = comprehensive::run(ctx, report, true, steps)?;
    let mut round = Round {
        wall_s,
        programs: comprehensive::PROGRAMS.to_vec(),
        sessions,
        setup,
        lists: Vec::new(),
        campaigns: Vec::new(),
        merlin: Vec::new(),
        digests: Vec::new(),
        cfg: merlin_cpu::CpuConfig::spec_experiment(),
    };
    for ((p, s), mut c) in cells {
        let name = format!("{}/{}", comprehensive::PROGRAMS[p], short(STRUCTURES[s]));
        let mut counters = common::exact_counters(&c.first.result.schedule).to_vec();
        counters.push(("early_exits", c.first.result.early_exits));
        round.digests.push((name.clone(), c.digest, counters));
        round.lists.push((p, c.list));
        round.campaigns.push((p, c.first));
        if let Some(mut m) = c.merlin.take() {
            if let Some(reps) = m.reps.take() {
                round.campaigns.push((p, reps));
            }
            round.merlin.push((name, comprehensive::HEAD[s], m));
        }
    }
    Ok(round)
}

fn round(ctx: &Ctx, report: &mut Report, steps: bool) -> Result<Round, String> {
    match ctx.workload.as_str() {
        "study" => study_round(ctx, report, steps),
        _ => comprehensive_round(ctx, report, steps),
    }
}

pub fn traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let first = round(ctx, report, false)?;
    trace::set_enabled(true);
    let traced = round(ctx, report, true)?;
    trace::set_enabled(false);
    let round_spans = trace::spans();
    compare_rounds(report, &first, &traced);
    let first_wall = first.wall_s;
    drop(first);
    let last = round(ctx, report, false)?;
    compare_rounds(report, &last, &traced);
    let untraced_wall = (first_wall + last.wall_s) / 2.0;
    drop(last);
    trace::set_enabled(true);

    round_metrics(report, &traced, &round_spans);
    oracle_check(ctx, report, &traced)?;
    // Only the comprehensive round runs full-list campaigns.
    if !traced.digests.is_empty() {
        sparse_store_check(ctx, report, &traced)?;
    }
    fault_latency(ctx, report, &traced)?;
    isa_layer(report, &traced);
    cpu_layer(report, &traced)?;
    artifact_layer(ctx, report, &traced)?;

    let self_s = trace::self_seconds_by_layer(&round_spans);
    for layer in LAYERS {
        report.metric(
            &format!("self.{layer}_s"),
            self_s.get(layer).copied().unwrap_or(0.0),
            "s",
        );
        report.note("self time in the traced round".into());
    }
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - untraced_wall) / untraced_wall,
        "%",
    );
    report.note(format!(
        "traced round {:.3} s vs mean {untraced_wall:.3} s of the untraced rounds \
         before and after it, {} spans",
        traced.wall_s,
        round_spans.len()
    ));
    trace::set_enabled(false);
    repeat_across_runs(ctx, report);
    write_trace(ctx, report);
    Ok(())
}

/// Metrics read off the traced round: campaign counters and timings,
/// MeRLiN's steps, the ACE profile and the golden stores.
fn round_metrics(report: &mut Report, r: &Round, spans: &[trace::Span]) {
    let mut total = ScheduleStats::default();
    let (mut wall, mut cpu, mut early_exits) = (0.0, 0.0, 0);
    for (_, c) in &r.campaigns {
        common::add_stats(&mut total, &c.result.schedule);
        wall += c.wall_s;
        cpu += c.cpu_s;
        early_exits += c.result.early_exits;
    }
    let static_pruned: usize = r.merlin.iter().map(|(_, _, m)| m.static_pruned).sum();
    report.counter(
        "analyze.static_prunes",
        (total.static_prunes as usize + static_pruned) as f64,
        "count",
        Stability::Exact,
    );
    report.note(format!(
        "{static_pruned} by MeRLiN's static partition, {} inside campaigns",
        total.static_prunes
    ));
    common::schedule_metrics(report, &total, early_exits);
    let cycles = total.suffix_cycles + total.golden_replay_cycles;
    let threads = r.sessions.first().map_or(1, Session::threads) as f64;
    report.metric(
        "inject.ns_per_sim_cycle",
        wall * threads * 1e9 / cycles.max(1) as f64,
        "ns",
    );
    report.note(format!(
        "{wall:.3} s of campaigns x {threads} threads over {cycles} cycles"
    ));
    report.metric("inject.thread_util", cpu / (wall * threads), "ratio");
    report.note("process CPU time / (campaign wall x threads)".into());

    for (metric, name) in [
        ("core.fault_list_s", "core.fault_list"),
        ("core.reduce_s", "core.reduce"),
        ("core.extrapolate_s", "core.extrapolate"),
    ] {
        report.metric(metric, trace::total_seconds(spans, name), "s");
    }
    let initial: usize = r.merlin.iter().map(|(_, n, _)| n).sum();
    let injections: usize = r.merlin.iter().map(|(_, _, m)| m.injections).sum();
    report.counter(
        "core.injections",
        injections as f64,
        "count",
        Stability::Exact,
    );
    report.counter(
        "core.reduction_x",
        initial as f64 / injections.max(1) as f64,
        "x",
        Stability::Exact,
    );
    report.note(format!(
        "{initial} initial faults / {injections} injections"
    ));

    let ace_s = common::setup_seconds(&r.setup, |t| t.ace_s, median);
    let ace_cycles: u64 = r
        .sessions
        .iter()
        .filter_map(|s| merlin_ace::SessionAce::ace_profile(s).ok())
        .map(|a| a.golden.cycles)
        .sum();
    report.metric("ace.profile_s", ace_s, "s");
    report.note(format!(
        "{} programs, {ace_cycles} profiled cycles",
        r.sessions.len()
    ));
    report.metric(
        "ace.profile_mcyc_per_s",
        ace_cycles as f64 / ace_s / 1e6,
        "Mcyc/s",
    );

    let stores: Vec<_> = r
        .sessions
        .iter()
        .filter_map(Session::golden_checkpoints)
        .collect();
    report.counter(
        "inject.checkpoints",
        stores.iter().map(|c| c.store.len()).sum::<usize>() as f64,
        "count",
        Stability::Exact,
    );
    report.counter(
        "inject.store_bytes",
        stores
            .iter()
            .map(|c| c.store.footprint_bytes())
            .sum::<usize>() as f64,
        "B",
        Stability::Exact,
    );
}

/// A seeded sample of the round's injected faults, re-run from scratch.
/// Runs every full-list campaign of the round again on a sparse checkpoint
/// store and checks that its outcome digest equals the dense store's.
fn sparse_store_check(ctx: &Ctx, report: &mut Report, r: &Round) -> Result<(), String> {
    let _s = span("bench.sparse_store");
    let policy = CheckpointPolicy {
        target_checkpoints: SPARSE_CHECKPOINTS,
        ..CheckpointPolicy::default()
    };
    let mut checked = 0;
    for (p, &name) in r.programs.iter().enumerate() {
        let session = ctx
            .builder(&common::program(name)?, &r.cfg, policy)
            .build()
            .map_err(|e| format!("{name}: sparse store: build: {e}"))?;
        let cells = r.lists.iter().zip(&r.digests);
        for ((_, list), (cell, dense, _)) in cells.filter(|((lp, _), _)| *lp == p) {
            let c = common::campaign(&session, list).map_err(|e| format!("{cell}: {e}"))?;
            let sparse = common::campaign_digest(&c.result);
            report.attempted += list.len() as u64;
            checked += 1;
            if sparse != *dense {
                report.fail(format!(
                    "{cell}: digest {sparse:016x} on the sparse store, {dense:016x} on the dense one"
                ));
            }
        }
    }
    report.fact("sparse_store_digests_checked", checked);
    Ok(())
}

fn oracle_check(ctx: &Ctx, report: &mut Report, r: &Round) -> Result<(), String> {
    let _s = span("bench.oracle");
    let pool: Vec<(usize, FaultSpec, FaultEffect)> = r
        .campaigns
        .iter()
        .flat_map(|(p, c)| {
            c.result
                .outcomes
                .iter()
                .map(move |o| (*p, o.fault, o.effect))
        })
        .collect();
    if pool.is_empty() {
        return Err("no injected faults to check against the oracle".into());
    }
    let mut by_program: BTreeMap<usize, Vec<(FaultSpec, FaultEffect)>> = BTreeMap::new();
    for k in 0..ORACLE_FAULTS as u64 {
        let (p, f, e) = pool[(mix_seed(ctx.seed, 7_000 + k) % pool.len() as u64) as usize];
        by_program.entry(p).or_default().push((f, e));
    }
    let mut agreed = 0;
    for (p, sample) in by_program {
        let faults: Vec<FaultSpec> = sample.iter().map(|(f, _)| *f).collect();
        let oracle = {
            let _s = span("inject.campaign_from_scratch");
            r.sessions[p]
                .campaign_from_scratch(&faults)
                .map_err(|e| format!("{}: from scratch: {e}", r.programs[p]))?
        };
        report.attempted += faults.len() as u64;
        for ((f, engine), o) in sample.iter().zip(&oracle.outcomes) {
            if *engine == o.effect {
                agreed += 1;
            } else {
                report.fail(format!(
                    "{}: {f} classified {engine:?} by the engine but {:?} from scratch",
                    r.programs[p], o.effect
                ));
            }
        }
    }
    report.fact("oracle_agreement", format!("{agreed}/{ORACLE_FAULTS}"));
    Ok(())
}

/// Per-fault latency through `FaultInjector::run_with_cycles`, single
/// thread, over enough faults that ten lie beyond the 99th percentile.
fn fault_latency(ctx: &Ctx, report: &mut Report, r: &Round) -> Result<(), String> {
    let _s = span("bench.fault_latency");
    let n = sample_size_for(0.99, 10);
    let total: usize = r.lists.iter().map(|(_, l)| l.len()).sum();
    let mut injectors = Vec::new();
    for s in &r.sessions {
        injectors.push(s.injector().map_err(|e| e.to_string())?);
    }
    let mut ms = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let mut at = (mix_seed(ctx.seed, 9_000 + k) % total as u64) as usize;
        let (p, list) = r
            .lists
            .iter()
            .find(|(_, l)| {
                let here = at < l.len();
                if !here {
                    at -= l.len();
                }
                here
            })
            .expect("index lies inside the concatenated lists");
        let t = Instant::now();
        black_box(injectors[*p].run_with_cycles(list[at]));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.attempted += n as u64;
    ms.sort_by(f64::total_cmp);
    report.metric("inject.fault_p50_ms", ms[percentile_index(n, 0.5)], "ms");
    report.note(format!("{n} faults drawn from the round's lists"));
    report.metric("inject.fault_p99_ms", ms[percentile_index(n, 0.99)], "ms");
    report.note(format!(
        "{n} faults, {} beyond p99",
        crate::util::samples_beyond(n, 0.99)
    ));
    Ok(())
}

fn isa_layer(report: &mut Report, r: &Round) {
    let _s = span("isa.predecode");
    let (mut ns, mut uops) = (0.0, 0usize);
    for s in &r.sessions {
        let program = s.program();
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(DecodedProgram::new(black_box(program)));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        ns += median(&samples);
        uops += s.decoded().num_uops();
    }
    report.metric("isa.predecode_ns_per_uop", ns / uops.max(1) as f64, "ns");
    report.note(format!("DecodedProgram::new over {uops} micro-ops"));
}

/// Runs `cpu` forward to `cycle` (or until the program ends).
fn run_to(cpu: &mut Cpu, cycle: u64) {
    while cpu.cycle() < cycle && !cpu.is_finished() {
        cpu.step(&mut NullProbe);
    }
}

fn micros(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// The core through its public API, single thread, on each program's
/// golden store.
fn cpu_layer(report: &mut Report, r: &Round) -> Result<(), String> {
    let _s = span("cpu.layer");
    let (mut run_s, mut cycles, mut uops) = (0.0, 0u64, 0u64);
    let mut snapshot_us = Vec::new();
    let (mut full_us, mut full_bytes) = (Vec::new(), Vec::new());
    let (mut incr_us, mut incr_bytes) = (Vec::new(), Vec::new());
    let (mut fork_us, mut fork_bytes) = (Vec::new(), Vec::new());
    let mut match_us = Vec::new();
    let (mut matched, mut probed) = (0, 0);
    for (p, session) in r.sessions.iter().enumerate() {
        let new_core = || {
            Cpu::with_predecoded(
                session.program().clone(),
                session.decoded().clone(),
                session.config().clone(),
            )
            .map_err(|e| format!("{}: core: {e}", r.programs[p]))
        };
        let golden = session.golden().map_err(|e| e.to_string())?;
        let store = golden
            .checkpoints
            .as_ref()
            .ok_or_else(|| format!("{}: no checkpoint store", r.programs[p]))?;
        let all: Vec<&CpuState> = store.store.snapshots().collect();
        let step = (all.len() / SNAPSHOTS).max(1);
        let snaps: Vec<&CpuState> = all.iter().step_by(step).copied().collect();

        let mut cpu = new_core()?;
        let t = Instant::now();
        let result = {
            let _s = span("cpu.run");
            cpu.run(session.max_cycles(), &mut NullProbe)
        };
        run_s += t.elapsed().as_secs_f64();
        if result != golden.result {
            report.fail(format!(
                "{}: a run from reset differs from the golden run",
                r.programs[p]
            ));
        }
        cycles += result.cycles;
        uops += result.committed_uops;

        let mut a = new_core()?;
        let mut b = new_core()?;
        for (k, &snap) in snaps.iter().enumerate() {
            // Full restores: alternate between two different snapshots.
            let other = snaps[(k + 1) % snaps.len()];
            for _ in 0..REPS {
                b.restore_from(other);
                let mut stats = None;
                full_us.push(micros(|| stats = Some(b.restore_from(snap))));
                full_bytes.push(stats.expect("restore ran").restored_bytes() as f64);
            }
            a.restore_from(snap);
            snapshot_us.extend((0..REPS).map(|_| micros(|| drop(black_box(a.snapshot())))));
            // Incremental restores: run a short suffix, restore the same
            // snapshot again.
            for _ in 0..REPS {
                run_to(&mut a, snap.cycle() + SUFFIX_CYCLES);
                let mut stats = None;
                incr_us.push(micros(|| stats = Some(a.restore_from(snap))));
                incr_bytes.push(stats.expect("restore ran").restored_bytes() as f64);
            }
            // Forks of a golden core that has run past the snapshot.
            run_to(&mut a, snap.cycle() + SUFFIX_CYCLES);
            for _ in 0..REPS {
                let mut stats = None;
                fork_us.push(micros(|| stats = Some(b.fork_from(&a))));
                fork_bytes.push(stats.expect("fork ran").copied.total() as f64);
            }
            // Boundary probe: a core restored from this snapshot and run to
            // the next checkpoint compares against it.
            if let Some(&next) = all.iter().find(|s| s.cycle() > snap.cycle()) {
                a.restore_from(snap);
                run_to(&mut a, next.cycle());
                let mut same = false;
                for _ in 0..REPS {
                    match_us.push(micros(|| same = black_box(a.matches_state(next))));
                }
                matched += usize::from(same);
                probed += 1;
            }
        }
    }
    report.metric("cpu.mcyc_per_s", cycles as f64 / run_s / 1e6, "Mcyc/s");
    report.note(format!("Cpu::run from reset, NullProbe, {cycles} cycles"));
    report.metric("cpu.ns_per_uop", run_s * 1e9 / uops.max(1) as f64, "ns");
    report.note(format!("{uops} committed micro-ops"));
    report.metric("cpu.snapshot_us", median(&snapshot_us), "us");
    report.metric("cpu.restore_full_us", median(&full_us), "us");
    report.counter(
        "cpu.restore_full_bytes",
        median(&full_bytes),
        "B",
        Stability::Exact,
    );
    report.metric("cpu.restore_incr_us", median(&incr_us), "us");
    report.note(format!("after {SUFFIX_CYCLES} cycles of suffix"));
    report.counter(
        "cpu.restore_incr_bytes",
        median(&incr_bytes),
        "B",
        Stability::Exact,
    );
    report.metric("cpu.fork_us", median(&fork_us), "us");
    report.counter(
        "cpu.fork_bytes_copied",
        median(&fork_bytes),
        "B",
        Stability::Exact,
    );
    report.metric("cpu.match_state_us", median(&match_us), "us");
    report.note(format!(
        "{matched} of {probed} probes matched the next checkpoint"
    ));
    Ok(())
}

/// Golden build, `.golden` save and load, per program of the workload.
fn artifact_layer(ctx: &Ctx, report: &mut Report, r: &Round) -> Result<(), String> {
    let _s = span("inject.artifacts");
    let dir = ctx
        .out_dir
        .join(format!("artifacts-{}-{}", ctx.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut golden_s, mut save_s, mut load_s, mut bytes) = (0.0, 0.0, 0.0, 0u64);
    const ARTIFACT_REPS: usize = 5;
    for (p, session) in r.sessions.iter().enumerate() {
        let program = session.program();
        let golden = |persist: Option<&std::path::Path>| -> Result<f64, String> {
            let mut b = ctx.builder(program, &r.cfg, CheckpointPolicy::default());
            if let Some(path) = persist {
                b = b.persist_to(path);
            }
            let s = b.build().map_err(|e| e.to_string())?;
            let t = Instant::now();
            s.golden().map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64())
        };
        let (mut plain, mut saved, mut loaded) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..ARTIFACT_REPS {
            let path = dir.join(format!("{}-{k}.golden", r.programs[p]));
            plain.push(golden(None)?);
            saved.push(golden(Some(&path))?);
            loaded.push(golden(Some(&path))?);
            bytes = bytes.max(std::fs::metadata(&path).map_err(|e| e.to_string())?.len());
        }
        golden_s += median(&plain);
        save_s += median(&saved) - median(&plain);
        load_s += median(&loaded);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.metric("inject.golden_s", golden_s, "s");
    report.note(format!(
        "{} programs, median of {ARTIFACT_REPS} builds",
        r.sessions.len()
    ));
    report.metric("inject.artifact_save_s", save_s, "s");
    report.note("golden build with persist_to minus without, medians".into());
    report.metric("inject.artifact_load_s", load_s, "s");
    report.counter("inject.artifact_bytes", bytes as f64, "B", Stability::Exact);
    report.note("largest artifact".into());
    Ok(())
}

/// Exact counters of this traced run against the previous traced run of
/// the same workload and seed, built from the same sources, in the same
/// output directory.
fn repeat_across_runs(ctx: &Ctx, report: &mut Report) {
    let exact: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.stability == Some(Stability::Exact))
        .map(|m| format!("{} {}", m.name, crate::util::json_num(m.value)))
        .collect();
    let Some(dir) = ctx.shared_dir() else {
        report.fact(
            "exact_counters_compared_with_previous_run",
            "no (sources unknown)",
        );
        return;
    };
    let dir = dir.join("counters");
    let path = dir.join(format!("{}-seed-{}.txt", ctx.workload, ctx.seed));
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            let before: Vec<&str> = before.lines().collect();
            if before != exact.iter().map(String::as_str).collect::<Vec<_>>() {
                report.problem(format!(
                    "exact counters differ from the previous traced run ({}): {before:?} vs {exact:?}",
                    path.display()
                ));
            }
            report.fact("exact_counters_compared_with_previous_run", "yes");
        }
        Err(_) => {
            let _ =
                std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, exact.join("\n")));
            report.fact(
                "exact_counters_compared_with_previous_run",
                "no (first traced run)",
            );
        }
    }
}

fn write_trace(ctx: &Ctx, report: &mut Report) {
    let spans = trace::spans();
    let layers: Vec<String> = trace::self_seconds_by_layer(&spans)
        .iter()
        .map(|(l, s)| {
            format!(
                "{}: {}",
                crate::util::json_str(l),
                crate::util::json_num(*s)
            )
        })
        .collect();
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|f| crate::util::json_str(f))
        .collect();
    let text = format!(
        "{{\"facts\": [{}],\n\"self_s_by_layer\": {{{}}},\n\"spans\": {}}}\n",
        facts.join(", "),
        layers.join(", "),
        trace::spans_json(&spans)
    );
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed-{}.json", ctx.workload, ctx.seed));
    match std::fs::write(&path, text) {
        Ok(()) => report.fact("trace_file", path.display()),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}

/// The step-by-step MeRLiN must agree with the library call, and repeated
/// campaigns must repeat their outcomes and exact counters.
fn compare_rounds(report: &mut Report, base: &Round, traced: &Round) {
    for ((name, _, a), (_, _, b)) in base.merlin.iter().zip(&traced.merlin) {
        if a.classification != b.classification
            || a.injections != b.injections
            || a.digest != b.digest
        {
            report.fail(format!(
                "{name}: MeRLiN's public steps disagree with merlin_with_faults \
                 ({:?}, {} injections vs {:?}, {} injections)",
                b.classification, b.injections, a.classification, a.injections
            ));
        }
    }
    for ((name, da, ca), (_, db, cb)) in base.digests.iter().zip(&traced.digests) {
        if da != db {
            report.fail(format!("{name}: campaign outcomes differ between rounds"));
        }
        if ca != cb {
            report.problem(format!(
                "{name}: exact counters differ between rounds: {ca:?} vs {cb:?}"
            ));
        }
    }
}

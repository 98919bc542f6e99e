//! The traced mode's layer probes: time calls into each crate's public
//! functions, on the workload's own design and inputs, from outside.
//!
//! Every workload runs the same probes, so each traced run reports the
//! whole per-layer catalogue: the offline stages of its design, the
//! artifact store, the session manager in process (no socket), the
//! SCG and commit path directly, and the journal appender.

use crate::design::{self, Chaos, RunDir, Shape};
use crate::report::{RunResult, Tracer};
use crate::util::{median, ms, percentile};
use pfdbg_arch::{build_rrg, Bitstream, Device};
use pfdbg_core::{offline, Instrumented, PAPER_K};
use pfdbg_pconf::icap::commit_frames;
use pfdbg_pconf::{CommitPolicy, MemoryIcap, OnlineReconfigurator, SpecializeScratch};
use pfdbg_pr::{pack, place_parallel, route, PackConfig, RouteConfig, TparConfig};
use pfdbg_replay::{JournalRecord, SelectFacts, SelectOutcome};
use pfdbg_serve::session::Engine;
use pfdbg_store::{Artifact, ArtifactStore, CacheOutcome, CompiledDesign, JournalAppender};
use pfdbg_util::BitVec;
use std::sync::Arc;

/// What the probes run on: the workload's design, its input
/// distribution and its chaos and journaling settings.
pub struct ProbeInput<'a> {
    pub inst: &'a Instrumented,
    /// Signal sets (comma-joined) drawn from the workload's own
    /// distribution, one per probe turn.
    pub signal_sets: Vec<String>,
    pub chaos: Chaos,
    pub journal: bool,
    pub shape: Shape,
}

/// Numbers only a served run has; a workload that serves no requests
/// passes `None` and the probe reports what it measured itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct Served {
    pub inbox_wait_p99_us: f64,
    pub shed: f64,
    pub cache_hit_pct: f64,
    /// The traced run's request p50, for `serve.io_us`.
    pub p50_ms: f64,
}

/// Probe sessions opened on the in-process manager.
const PROBE_SESSIONS: usize = 8;

/// Run every probe and set every per-layer metric except
/// `trace.overhead_pct`.
pub fn run(
    input: &ProbeInput,
    served: Option<Served>,
    tracer: &mut Tracer,
    dir: &RunDir,
    result: &mut RunResult,
) -> Result<(), String> {
    tracer.set_on(true);
    let stages = offline_stages(input.inst, tracer, result)?;
    let mut designs = store_loads(input.inst, &stages, tracer, dir, result)?;
    let direct = designs.pop().ok_or("store probe loaded nothing")?;
    let served_by = designs.pop().ok_or("store probe loaded nothing")?;
    let engine =
        Arc::new(Engine::new(served_by.inst, served_by.scg, served_by.layout, served_by.icap));
    let turns = manager_turns(input, engine.clone(), served, tracer, dir, result)?;
    pconf_turns(&turns, direct, tracer, result)?;
    journal_appends(&turns, tracer, dir, result)
}

/// Offline stages of the design, timed call by call. The generalized
/// bitstream has no public entry point of its own: its time is the sum
/// of the flow's own `offline.lut_bits`, `offline.switch_bits` and
/// `offline.build_gbs` spans.
fn offline_stages(
    inst: &Instrumented,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<pfdbg_core::OfflineResult, String> {
    let cfg = TparConfig::default();
    let (mp, dt) = tracer.timed("map.tconmap", 0, || {
        pfdbg_map::map_parameterized_network_with(&inst.network, PAPER_K, 0)
    });
    let mp = mp?;
    result.set("map.tconmap_ms", dt / 1e3);
    let pack_cfg = PackConfig { n_ble: cfg.arch.n_ble, clb_inputs: cfg.arch.clb_inputs };
    let (packed, dt) = tracer.timed("pr.pack", 0, || pack(&mp.network, &mp.kinds, pack_cfg));
    let packed = packed?;
    result.set("pr.pack_ms", dt / 1e3);
    let ((device, rrg), dt) = tracer.timed("arch.rrg", 0, || {
        let device =
            Device::auto_size(cfg.arch, packed.n_clbs().max(1), packed.n_pads(), cfg.device_slack);
        let rrg = build_rrg(&device);
        (device, rrg)
    });
    result.set("arch.rrg_ms", dt / 1e3);
    let (placement, dt) = tracer
        .timed("pr.place", 0, || place_parallel(&packed, &device, &cfg.place, cfg.place_chains));
    let placement = placement?;
    result.set("pr.place_ms", dt / 1e3);
    for (span, metric, threads) in
        [("pr.route", "pr.route_ms", cfg.route.threads), ("pr.route_1t", "pr.route_1t_ms", 1)]
    {
        let rcfg = RouteConfig { threads, ..cfg.route };
        let (routed, dt) =
            tracer.timed(span, 0, || route(&packed, &placement, &device, &rrg, &rcfg));
        let routed = routed?;
        result.set(metric, dt / 1e3);
        result.set("pr.route_iterations", routed.iterations as f64);
        result.check(routed.success, || {
            format!("{metric}: routing did not converge at the starting channel width")
        });
    }

    let was = pfdbg_obs::enabled();
    pfdbg_obs::set_enabled(true);
    pfdbg_obs::reset();
    let (off, _) = tracer.timed("core.offline", 0, || offline(inst, &design::offline_cfg()));
    let spans = pfdbg_obs::registry().spans();
    pfdbg_obs::reset();
    pfdbg_obs::set_enabled(was);
    let off = off?;
    let genbits_ms: f64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name.as_str(),
                "offline.lut_bits" | "offline.switch_bits" | "offline.build_gbs"
            )
        })
        .filter_map(|s| s.dur)
        .map(ms)
        .sum();
    result.set("pconf.genbits_ms", genbits_ms);
    let scg = off.scg.as_ref().ok_or("offline flow produced no SCG")?;
    let layout = off.layout.as_ref().ok_or("offline flow produced no layout")?;
    result.set("pconf.bdd_nodes", scg.manager().n_nodes() as f64);
    result.set("pconf.tunable_bits", scg.generalized().n_tunable() as f64);
    result.set("arch.frames", layout.n_frames() as f64);
    Ok(off)
}

/// Save the design's artifact in a fresh store, then time cache hits.
fn store_loads(
    inst: &Instrumented,
    off: &pfdbg_core::OfflineResult,
    tracer: &mut Tracer,
    dir: &RunDir,
    result: &mut RunResult,
) -> Result<Vec<CompiledDesign>, String> {
    let store = ArtifactStore::open(dir.fresh("probe-store")?)?;
    let cfg = design::offline_cfg();
    let (scg, layout) = (off.scg.as_ref().expect("checked"), off.layout.as_ref().expect("checked"));
    let artifact = Artifact::capture(inst, &off.map_stats, layout, scg);
    store.save(&ArtifactStore::fingerprint(inst, &cfg), &artifact)?;
    let mut times = Vec::new();
    let mut designs = Vec::new();
    for i in 0..5 {
        let (loaded, dt) =
            tracer.timed("store.offline_cached", i, || store.offline_cached(inst, &cfg));
        let (d, outcome) = loaded?;
        times.push(dt / 1e3);
        result.check(outcome == CacheOutcome::Hit, || "store probe: saved artifact missed".into());
        designs.push(d);
    }
    result.set("store.load_ms", median(&times));
    designs.truncate(2);
    Ok(designs)
}

/// One committed probe turn, as the manager reported it.
struct ProbeTurn {
    params: BitVec,
    outcome: pfdbg_serve::TurnOutcome,
}

/// The session manager in process: open, plan, select, scrub. Returns
/// the committed turns of the main pass, in order.
fn manager_turns(
    input: &ProbeInput,
    engine: Arc<Engine>,
    served: Option<Served>,
    tracer: &mut Tracer,
    dir: &RunDir,
    result: &mut RunResult,
) -> Result<Vec<ProbeTurn>, String> {
    let journal = if input.journal { Some(dir.fresh("probe-journal")?) } else { None };
    let manager = design::manager(engine.clone(), &input.shape, &input.chaos, journal);
    let names: Vec<String> = (0..PROBE_SESSIONS).map(|i| format!("probe{i}")).collect();
    let mut open_us = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let (opened, dt) = tracer.timed("serve.open", i as u64, || manager.open(name));
        opened?;
        open_us.push(dt);
    }
    result.set("serve.open_us", median(&open_us));

    let (mut plan_us, mut select_us, mut hit_us, mut miss_us, mut scrub_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Vec<BitVec> = vec![BitVec::zeros(engine.n_params()); PROBE_SESSIONS];
    let mut turns = Vec::new();
    let (mut hits, mut repairs, mut rollbacks) = (0usize, 0usize, 0usize);
    for (t, set) in input.signal_sets.iter().enumerate() {
        let s = t % PROBE_SESSIONS;
        let signals: Vec<String> = set.split(',').map(String::from).collect();
        let (params, dt) =
            tracer.timed("serve.plan", t as u64, || manager.plan(&names[s], &signals));
        let params = params?;
        plan_us.push(dt);
        let (outcome, dt) =
            tracer.timed("serve.select", t as u64, || manager.select(&names[s], &params));
        select_us.push(dt);
        match outcome {
            Ok(o) => {
                if o.cache_hit {
                    hits += 1;
                    hit_us.push(dt);
                } else {
                    miss_us.push(dt);
                }
                last[s] = params.clone();
                turns.push(ProbeTurn { params, outcome: o });
            }
            Err(e) if e.contains("rolled back") => rollbacks += 1,
            Err(e) => return Err(format!("probe select: {e}")),
        }
        if t % 8 == 7 {
            let (report, dt) =
                tracer.timed("serve.scrub", t as u64, || manager.scrub_session(&names[s]));
            scrub_us.push(dt);
            repairs += report?.repaired_frames;
        }
    }
    let main_pass = input.signal_sets.len().max(1);
    // Another session re-selects the freshest vectors, so the hit path
    // is timed even on a workload whose own inputs never repeat.
    for (k, turn) in turns.iter().rev().take(16).enumerate() {
        let s = (k + 1) % PROBE_SESSIONS;
        let (o, dt) =
            tracer.timed("serve.select", k as u64, || manager.select(&names[s], &turn.params));
        if o?.cache_hit {
            hit_us.push(dt);
        } else {
            miss_us.push(dt);
        }
        last[s] = turn.params.clone();
    }
    let sessions: Vec<(String, BitVec)> = names.iter().cloned().zip(last).collect();
    for (name, _) in &sessions {
        repairs += manager.scrub_session(name)?.repaired_frames;
    }
    design::check_readback(result, &manager, &engine.scg, &sessions);

    result.set("serve.plan_us", median(&plan_us));
    result.set("serve.select_p99_us", percentile(&select_us, 99.0));
    let select_p50 = median(&select_us);
    result.set("serve.select_us", select_p50);
    result.set("serve.select_hit_us", median(&hit_us));
    result.set("serve.select_miss_us", median(&miss_us));
    result.set("pconf.scrub_us", median(&scrub_us));
    result.set("pconf.scrub_repairs", repairs as f64);
    let icap = manager.icap_totals();
    result.set("pconf.retries_per_turn", icap.retries as f64 / main_pass as f64);
    result.set("pconf.degradations", icap.degradations as f64);
    result.set("pconf.rollbacks", rollbacks as f64);
    result.set("emu.seu_bits", manager.scrub_stats().seu_bits_injected as f64);
    match served {
        Some(s) => {
            result.set("serve.inbox_wait_p99_us", s.inbox_wait_p99_us);
            result.set("serve.shed", s.shed);
            result.set("serve.cache_hit_pct", s.cache_hit_pct);
            result.set("serve.io_us", s.p50_ms * 1e3 - select_p50);
        }
        None => {
            // No requests are served: nothing waits in an inbox, nothing
            // is shed, and no socket carries a request.
            result.set("serve.inbox_wait_p99_us", 0.0);
            result.set("serve.shed", 0.0);
            result.set("serve.cache_hit_pct", 100.0 * hits as f64 / main_pass as f64);
            result.set("serve.io_us", 0.0);
        }
    }
    Ok(turns)
}

/// The SCG and commit layers called directly on the probe's vector
/// sequence, and the whole `try_apply` turn beside them.
fn pconf_turns(
    turns: &[ProbeTurn],
    design: CompiledDesign,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let CompiledDesign { mut scg, layout, icap, .. } = design;
    let n_params = scg.generalized().n_params;
    let mut region: Vec<usize> =
        scg.generalized().tunable.iter().map(|&(a, _)| layout.frame_of(a)).collect();
    region.sort_unstable();
    region.dedup();

    // Specialize the sequence with one scratch; with `commit`, also
    // write each turn's frames through a reliable in-memory port.
    let specialize = |scg: &pfdbg_pconf::Scg, tracer: &mut Tracer, commit: bool| {
        let mut channel = MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits);
        let mut current: Bitstream = scg.generalized().base.clone();
        let mut prev = BitVec::zeros(n_params);
        let mut scratch = SpecializeScratch::new();
        let (mut spec_us, mut commit_us, mut frames_n, mut bits_n) =
            (Vec::new(), Vec::new(), 0usize, 0usize);
        for (i, turn) in turns.iter().enumerate() {
            let (diffs, dt) = tracer.timed("pconf.specialize", i as u64, || {
                scg.specialize_diff_from_batch(&prev, &turn.params, &mut scratch).map(<[_]>::to_vec)
            });
            let diffs: Vec<(usize, bool)> = diffs?;
            spec_us.push(dt);
            scratch.commit(&turn.params);
            prev.clone_from(&turn.params);
            if !commit {
                continue;
            }
            let mut frames: Vec<usize> = diffs.iter().map(|&(a, _)| layout.frame_of(a)).collect();
            frames.dedup();
            for &(a, v) in &diffs {
                current.set(a, v);
            }
            bits_n += diffs.len();
            frames_n += frames.len();
            let policy = CommitPolicy::default();
            let (committed, dt) = tracer.timed("pconf.commit", i as u64, || {
                commit_frames(&mut channel, &icap, &current, &frames, &region, &policy)
            });
            committed.map_err(|(_, e)| format!("probe commit: {e}"))?;
            commit_us.push(dt);
        }
        Ok::<_, String>((median(&spec_us), median(&commit_us), frames_n, bits_n))
    };
    let n = turns.len().max(1) as f64;
    let (spec, commit, frames_n, bits_n) = specialize(&scg, tracer, true)?;
    result.set("pconf.specialize_us", spec);
    result.set("pconf.commit_us", commit);
    result.set("pconf.frames_per_turn", frames_n as f64 / n);
    result.set("pconf.bits_per_turn", bits_n as f64 / n);
    scg.set_threads(1);
    let (spec_1t, ..) = specialize(&scg, tracer, false)?;
    result.set("par.specialize_1t_us", spec_1t);
    scg.set_threads(0);

    let mut online = OnlineReconfigurator::new(scg, layout, icap);
    let mut turn_us = Vec::new();
    for (i, turn) in turns.iter().enumerate() {
        let (applied, dt) = tracer.timed("core.turn", i as u64, || online.try_apply(&turn.params));
        applied?;
        turn_us.push(dt);
    }
    result.set("core.turn_us", median(&turn_us));
    Ok(())
}

/// Append the journal records these turns would write, one by one.
fn journal_appends(
    turns: &[ProbeTurn],
    tracer: &mut Tracer,
    dir: &RunDir,
    result: &mut RunResult,
) -> Result<(), String> {
    let path = dir.fresh("probe-append")?.join("probe.pfdj");
    let mut appender = JournalAppender::create(&path)?;
    let mut times = Vec::new();
    for (i, turn) in turns.iter().enumerate() {
        let o = &turn.outcome;
        let payload = JournalRecord::Select(SelectFacts {
            params: turn.params.clone(),
            outcome: SelectOutcome::Committed,
            bits_changed: o.bits_changed as u64,
            frames_changed: o.frames_changed as u64,
            retries: o.retries as u64,
            degradations: o.degradations as u64,
            cache_hit: o.cache_hit,
            seu_flips: 0,
            readback_crc: i as u64,
        })
        .encode();
        let (appended, dt) =
            tracer.timed("store.journal_append", i as u64, || appender.append_record(&payload));
        appended?;
        times.push(dt);
    }
    result.set("store.journal_append_us", median(&times));
    Ok(())
}

//! `compile`: repeated offline flows on `diffeq1`, instrumented the
//! way the paper's experiments instrument it.

use crate::design::{self, RunDir};
use crate::probe::{self, ProbeInput};
use crate::report::{RunResult, Tracer};
use crate::stream::PortSignals;
use crate::util::{cpu_ms, host_ticks, median, percentile, steal_pct_since, Rng};
use crate::Args;
use pfdbg_core::{offline, InstrumentConfig, Instrumented, OfflineResult};
use pfdbg_store::bytes::checksum;
use pfdbg_store::Artifact;
use pfdbg_util::BitVec;
use std::time::{Duration, Instant};

pub const DESIGN: &str = "diffeq1";
/// Set-up repetitions; the median is reported.
const SETUPS: usize = 15;
/// Seeded turns replayed on every compiled design.
const CHECK_TURNS: usize = 256;

/// What must be identical across every flow of a run.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    wires: usize,
    clbs: usize,
    artifact: u64,
    sim_us_per_turn: f64,
}

/// The compiled design's identity, plus the modelled partial
/// reconfiguration cost of a seeded turn sequence on it.
fn fingerprint(
    inst: &Instrumented,
    off: OfflineResult,
    turns: &[BitVec],
) -> Result<Fingerprint, String> {
    let stats = off.tpar.as_ref().ok_or("place and route did not run")?.stats;
    let scg = off.scg.as_ref().ok_or("no SCG")?;
    let layout = off.layout.as_ref().ok_or("no layout")?;
    let artifact = checksum(&Artifact::capture(inst, &off.map_stats, layout, scg).to_bytes());
    let mut online = off.into_online().ok_or("no online stage")?;
    let mut sim = Duration::ZERO;
    for p in turns {
        let t = online.try_apply(p)?;
        sim += t.transfer_time + t.verify_time;
    }
    Ok(Fingerprint {
        wires: stats.wires_used,
        clbs: stats.n_clbs,
        artifact,
        sim_us_per_turn: sim.as_secs_f64() * 1e6 / turns.len() as f64,
    })
}

pub fn run(args: &Args, result: &mut RunResult, tracer: &mut Tracer) -> Result<(), String> {
    let icfg = InstrumentConfig::paper();
    let cfg = design::offline_cfg();
    let mut setups = Vec::new();
    let mut inst = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inst = Some(design::instrument(DESIGN, &icfg)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inst = inst.expect("at least one set-up");
    let mut rng = Rng::new(args.seed, 0xC0DE);
    let n_params = inst.n_params();
    let turns: Vec<BitVec> = (0..CHECK_TURNS)
        .map(|_| {
            let mut p = BitVec::zeros(n_params);
            for i in 0..n_params {
                p.set(i, rng.next_u64() & 1 == 1);
            }
            p
        })
        .collect();
    eprintln!(
        "perfbench compile: {DESIGN}, {} params, instrument {icfg:?}, k={}, threads=default",
        n_params, cfg.k
    );

    // The traced run splits its time: half untraced, half traced, then
    // the layer probes.
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let flows = |traced: bool, tracer: &mut Tracer, result: &mut RunResult| {
        tracer.set_on(traced);
        let (mut times, mut cpu, mut first): (Vec<f64>, f64, Option<Fingerprint>) =
            (Vec::new(), 0.0, None);
        let start = Instant::now();
        while times.len() < 3 || start.elapsed() < budget {
            let op = times.len() as u64;
            result.attempted += 1;
            let c0 = cpu_ms();
            let (off, dt_us) = tracer.timed("core.offline", op, || offline(&inst, &cfg));
            cpu += cpu_ms() - c0;
            let fp = off.and_then(|off| fingerprint(&inst, off, &turns));
            match fp {
                Ok(fp) => {
                    result.check(first.as_ref().is_none_or(|f| *f == fp), || {
                        format!("flow {op} compiled a different design: {fp:?} vs {first:?}")
                    });
                    first.get_or_insert(fp);
                }
                Err(e) => {
                    result.failed += 1;
                    result.check(false, || format!("flow {op} failed: {e}"));
                }
            }
            times.push(dt_us / 1e3);
        }
        (times, cpu, first)
    };

    let host0 = host_ticks();
    let (times, cpu, fp) = flows(false, tracer, result);
    result.provenance.push(("host_steal_pct", steal_pct_since(host0).to_string()));
    let n = times.len();
    eprintln!("perfbench compile: {n} flows");
    if args.trace {
        let untraced_p50 = median(&times);
        let (traced, ..) = flows(true, tracer, result);
        result.set("trace.overhead_pct", 100.0 * (median(&traced) / untraced_p50 - 1.0));
        let dir = RunDir::new("compile")?;
        let ports = PortSignals::of(&inst);
        let mut probe_rng = Rng::new(args.seed, 0x9B0E);
        let input = ProbeInput {
            inst: &inst,
            signal_sets: (0..400).map(|_| ports.draw(&mut probe_rng)).collect(),
            chaos: Default::default(),
            journal: false,
            shape: design::Shape::pinned(),
        };
        return probe::run(&input, None, tracer, &dir, result);
    }
    let fp = fp.ok_or("no flow completed")?;
    result.set("setup_s", median(&setups));
    result.provenance.push(("setup_runs_s", format!("{setups:?}")));
    result.set("p50_ms", median(&times));
    result.provenance.push(("cpu_ms_per_op", (cpu / n as f64).to_string()));
    result.set("peak_rss_mb", crate::util::peak_rss_mb());
    result
        .set("ok_pct", 100.0 * (result.attempted - result.failed) as f64 / result.attempted as f64);
    result.set("sim_reconfig_us_per_turn", fp.sim_us_per_turn);
    result.set("route_wires", fp.wires as f64);
    result.set("clbs", fp.clbs as f64);
    result.provenance.push(("flows", n.to_string()));
    result.provenance.push(("slowest_flow_ms", percentile(&times, 100.0).to_string()));
    result.provenance.push(("artifact_checksum", format!("{:016x}", fp.artifact)));
    Ok(())
}

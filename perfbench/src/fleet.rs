//! `fleet`: many engineers sharing one server. 2000 sessions on
//! `stereov.`, a fixed number of requests kept in flight from one client
//! thread, Zipf-distributed signal sets (most selects hit the shared
//! LRU), a fixed share of `scrub` requests, seeded ICAP write faults and
//! SEUs, and every session journaled to a fresh directory.

use crate::client::{BlockingConn, Ledger};
use crate::design::{self, Chaos, RunDir, Shape};
use crate::probe::{self, ProbeInput, Served};
use crate::report::{RunResult, Tracer};
use crate::stream::{fleet_session, FleetMix, FleetStream, PortSignals};
use crate::util::{
    cpu_ms, host_ticks, median, peak_rss_mb, percentile, steal_pct_since, windowed_p99, Rng,
};
use crate::Args;
use pfdbg_core::offline;
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_serve::session::Engine;
use pfdbg_serve::ServerHandle;
use pfdbg_store::{Artifact, ArtifactStore, CacheOutcome};
use pfdbg_util::BitVec;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DESIGN: &str = "stereov.";
const MIX: FleetMix = FleetMix { sessions: 2000, pool: 256, zipf_s: 1.0, scrub_share: 0.05 };
/// Requests kept in flight, pipelined on one connection: the server's IO
/// thread always has replies to move, so it never reaches the sleeps of
/// its idle ladder. (An open loop at 1000-4000 req/s made fleet p50
/// bimodal per run, 0.36 or 0.6 ms, on which vCPU the IO thread landed;
/// at 4000-6000 req/s the host's stolen CPU built queues, p50 0.6-2.5
/// ms.)
const IN_FLIGHT: usize = 8;
/// Requests whose modelled reconfiguration cost is averaged: a fixed
/// prefix of the stream, so the figure is exact for a seed.
const SIM_REQUESTS: u64 = 20_000;
/// Seconds of load sent before latencies count, to fill the LRU.
const WARMUP_S: f64 = 1.0;
const SETUPS: usize = 3;
const ICAP_FAULT_RATE: f64 = 0.002;
const SEU_RATE: f64 = 0.0005;

fn chaos(seed: u64) -> Chaos {
    let mut rng = Rng::new(seed, 0xC4A0);
    Chaos {
        fault: Some(IcapFaultConfig::uniform(ICAP_FAULT_RATE, rng.next_u64())),
        seu: Some(SeuConfig { rate: SEU_RATE, burst: 1, seed: rng.next_u64() }),
    }
}

/// A fleet after a warm restart: server up, every session open.
struct Fleet {
    handle: ServerHandle,
    conn: BlockingConn,
}

/// Warm restart: instrument, load the compiled design from the store
/// (a hit), start the server journaling to a fresh directory, connect,
/// and open every session: pipelined over the connection, or, with
/// `in_process`, through the manager before the server starts, so the
/// opens leave no trace in the server's inbox-wait histogram.
fn warm_restart(
    store: &ArtifactStore,
    shape: &Shape,
    chaos: &Chaos,
    journal: &Path,
    in_process: bool,
) -> Result<Fleet, String> {
    let inst = design::instrument(DESIGN, &design::serve_icfg())?;
    let (d, outcome) = store.offline_cached(&inst, &design::offline_cfg())?;
    if outcome != CacheOutcome::Hit {
        return Err("warm restart missed the artifact store".into());
    }
    let engine = Arc::new(Engine::new(d.inst, d.scg, d.layout, d.icap));
    let manager = design::manager(engine, shape, chaos, Some(journal.to_path_buf()));
    if in_process {
        for s in 0..MIX.sessions {
            manager.open(&fleet_session(s))?;
        }
    }
    let handle = design::start_server(manager, shape)?;
    let mut conn = BlockingConn::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    if !in_process {
        // Keep at most IN_FLIGHT opens outstanding, like the load.
        let mut opened = 0;
        for s in 0..MIX.sessions + IN_FLIGHT {
            if s >= IN_FLIGHT {
                let reply = conn.recv().map_err(|e| e.to_string())?;
                opened += usize::from(reply.contains("\"ok\":true"));
            }
            if s < MIX.sessions {
                let open = format!("{{\"op\":\"open\",\"session\":\"{}\"}}", fleet_session(s));
                conn.send(&open).map_err(|e| e.to_string())?;
            }
        }
        if opened != MIX.sessions {
            return Err(format!("opened {opened} of {} sessions", MIX.sessions));
        }
    }
    Ok(Fleet { handle, conn })
}

/// What one load window measured.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Modelled reconfiguration cost over the stream's first
    /// [`SIM_REQUESTS`] requests, and the selects among them.
    sim_us: f64,
    sim_turns: u64,
    /// Measured (post-warm-up) selects, and how many hit the LRU.
    measured_selects: u64,
    hits: u64,
    cpu_ms: f64,
    elapsed_s: f64,
}

/// Keep [`IN_FLIGHT`] requests of `stream` pipelined on `conn` for
/// `warm + budget`, then collect the stragglers. Each reply is timed
/// from its request's send; requests sent during `warm` fill the LRU and
/// count in the ledger only.
fn drive(
    conn: &mut BlockingConn,
    stream: &mut FleetStream,
    warm: Duration,
    budget: Duration,
    ledger: &mut Ledger,
    last_params: &mut [Option<String>],
    tracer: &mut Tracer,
) -> Window {
    let mut w = Window::default();
    let mut in_flight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(IN_FLIGHT);
    let c0 = cpu_ms();
    let start = Instant::now();
    loop {
        while in_flight.len() < IN_FLIGHT && start.elapsed() < warm + budget {
            let req = stream.next().expect("endless stream");
            if conn.send(&req.line).is_err() {
                break;
            }
            in_flight.push_back((ledger.issued, Instant::now(), req.session));
            ledger.issued += 1;
        }
        let Some((id, sent, session)) = in_flight.pop_front() else { break };
        let Ok(reply) = conn.recv() else { break };
        let now = Instant::now();
        tracer.record("client.request", id, sent, now);
        let Some(ev) = ledger.record(reply) else { continue };
        let measured = sent - start >= warm;
        if measured {
            w.latencies_ms.push((now - sent).as_secs_f64() * 1e3);
        }
        if ev.str("op") == Some("select") {
            if id < SIM_REQUESTS {
                w.sim_turns += 1;
                w.sim_us += ev.num("transfer_us").unwrap_or(f64::NAN)
                    + ev.num("verify_us").unwrap_or(f64::NAN);
            }
            if measured {
                w.measured_selects += 1;
                w.hits += u64::from(ev.str("cache") == Some("hit"));
            }
            last_params[session] = ev.str("params").map(str::to_owned);
        }
    }
    w.cpu_ms = cpu_ms() - c0;
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

pub fn run(args: &Args, result: &mut RunResult, tracer: &mut Tracer) -> Result<(), String> {
    let shape = Shape::pinned();
    let chaos = chaos(args.seed);
    let dir = RunDir::new("fleet")?;
    // Fill the store before anything is timed.
    let store = ArtifactStore::open(dir.fresh("store")?)?;
    let inst = design::instrument(DESIGN, &design::serve_icfg())?;
    let cfg = design::offline_cfg();
    let off = offline(&inst, &cfg)?;
    let tpar = off.tpar.as_ref().ok_or("place and route did not run")?.stats;
    let (scg, layout) =
        (off.scg.as_ref().ok_or("no SCG")?, off.layout.as_ref().ok_or("no layout")?);
    store.save(
        &ArtifactStore::fingerprint(&inst, &cfg),
        &Artifact::capture(&inst, &off.map_stats, layout, scg),
    )?;
    let ports = PortSignals::of(&inst);

    let mut setups = Vec::new();
    let mut fleet: Option<Fleet> = None;
    // One untimed restart first: the file system's first touch of fresh
    // inode-table blocks for 2000 new files is a property of the host's
    // cache state, not of the program's set-up.
    for i in 0..if args.trace { 1 } else { SETUPS + 1 } {
        if let Some(prev) = fleet.take() {
            prev.handle.shutdown();
        }
        let journal = dir.fresh(&format!("journal{i}"))?;
        let t = Instant::now();
        fleet = Some(warm_restart(&store, &shape, &chaos, &journal, args.trace)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let priming_s = setups.remove(0);
    let Fleet { handle, mut conn } = fleet.expect("one set-up");
    dir.settle();
    result.provenance.push(("design", DESIGN.into()));
    result.provenance.push(("instrument", format!("{:?}", design::serve_icfg())));
    result.provenance.push(("server_shape", shape.describe()));
    result.provenance.push((
        "load",
        format!(
            "closed loop, {IN_FLIGHT} requests in flight pipelined on 1 connection from \
             1 thread, {} sessions, pool {} zipf s={} scrub share {}, warm-up {WARMUP_S} s",
            MIX.sessions, MIX.pool, MIX.zipf_s, MIX.scrub_share
        ),
    ));
    result.provenance.push(("chaos", chaos.describe()));
    result.provenance.push(("journal", "on, fresh directory per set-up".into()));

    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let warm = Duration::from_secs_f64(WARMUP_S);
    let mut ledger = Ledger::default();
    let mut last: Vec<Option<String>> = vec![None; MIX.sessions];
    let mut stream = FleetStream::new(args.seed, &ports, MIX);
    let host0 = host_ticks();
    let w = drive(&mut conn, &mut stream, warm, budget, &mut ledger, &mut last, tracer);
    result.provenance.push(("host_steal_pct", steal_pct_since(host0).to_string()));
    let mut traced = None;
    if args.trace {
        tracer.set_on(true);
        traced = Some(drive(&mut conn, &mut stream, warm, budget, &mut ledger, &mut last, tracer));
        tracer.set_on(false);
    }
    ledger.settle();
    result.check(ledger.balanced(), || format!("request ledger does not balance: {ledger:?}"));
    result.attempted = ledger.issued;
    result.failed = ledger.not_ok();
    result.check(ledger.not_ok() == 0, || format!("requests did not complete: {ledger:?}"));

    let mut stats_conn = BlockingConn::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    let stats =
        stats_conn.roundtrip("{\"op\":\"stats\"}").map(str::to_owned).map_err(|e| e.to_string())?;
    let stats = pfdbg_obs::parse_jsonl(&stats).map_err(|e| e.to_string())?.remove(0);
    // SEUs strike between turns and persist until a scrub: scrub every
    // session once more, then its device must read back golden.
    let manager = handle.sessions();
    let mut sessions: Vec<(String, BitVec)> = Vec::with_capacity(MIX.sessions);
    let n_params = manager.engine().n_params();
    for (s, params) in last.iter().enumerate() {
        let name = fleet_session(s);
        manager.scrub_session(&name)?;
        let params = params
            .as_deref()
            .and_then(design::parse_params)
            .unwrap_or_else(|| BitVec::zeros(n_params));
        sessions.push((name, params));
    }
    design::check_readback(result, manager, &manager.engine().scg, &sessions);
    drop(stats_conn);
    drop(conn);
    handle.shutdown();

    if let Some(t) = traced {
        let untraced = median(&w.latencies_ms);
        let traced_p50 = median(&t.latencies_ms);
        result.set("trace.overhead_pct", 100.0 * (traced_p50 / untraced - 1.0));
        let served = Served {
            inbox_wait_p99_us: stats.num("inbox_wait_p99_us").unwrap_or(f64::NAN),
            shed: stats.num("shed_total").unwrap_or(f64::NAN),
            cache_hit_pct: 100.0 * t.hits as f64 / t.measured_selects.max(1) as f64,
            p50_ms: traced_p50,
        };
        let mut rng = Rng::new(args.seed, 0x9B0E);
        let input = ProbeInput {
            inst: &inst,
            signal_sets: (0..400).map(|_| stream.draw_set(&mut rng)).collect(),
            chaos,
            journal: true,
            shape,
        };
        return probe::run(&input, Some(served), tracer, &dir, result);
    }

    let measured = w.latencies_ms.len();
    result.check(w.sim_turns > 0 && ledger.issued >= SIM_REQUESTS, || {
        format!("only {} requests: the simulated-cost window needs {SIM_REQUESTS}", ledger.issued)
    });
    result.check(measured >= 1000, || format!("only {measured} measured replies"));
    result.set("setup_s", median(&setups));
    result.provenance.push(("setup_runs_s", format!("{setups:?}")));
    result.provenance.push(("setup_priming_s", priming_s.to_string()));
    result.set("p50_ms", median(&w.latencies_ms));
    result.provenance.push(("cpu_ms_per_op", (w.cpu_ms / ledger.issued.max(1) as f64).to_string()));
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("ok_pct", 100.0 * ledger.ok as f64 / ledger.issued.max(1) as f64);
    result.set("sim_reconfig_us_per_turn", w.sim_us / w.sim_turns.max(1) as f64);
    result.set("route_wires", tpar.wires_used as f64);
    result.set("clbs", tpar.n_clbs as f64);
    result.provenance.push(("throughput_rps", (ledger.issued as f64 / w.elapsed_s).to_string()));
    result.provenance.push(("p99_ms", windowed_p99(&w.latencies_ms).to_string()));
    result.provenance.push(("whole_run_p99_ms", percentile(&w.latencies_ms, 99.0).to_string()));
    let hit_pct = 100.0 * w.hits as f64 / w.measured_selects.max(1) as f64;
    result.provenance.push(("cache_hit_pct", hit_pct.to_string()));
    result.provenance.push((
        "inbox_wait_p99_us",
        stats.num("inbox_wait_p99_us").unwrap_or(f64::NAN).to_string(),
    ));
    Ok(())
}

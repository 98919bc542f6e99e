//! `interactive`: one engineer, one connection, one session, in a
//! closed loop over TCP against an in-process server. Every turn
//! selects a fresh seeded signal set, so the LRU misses and the SCG
//! evaluates on every request.

use crate::client::{BlockingConn, Ledger};
use crate::design::{self, RunDir, Shape};
use crate::probe::{self, ProbeInput, Served};
use crate::report::{RunResult, Tracer};
use crate::stream::{InteractiveStream, PortSignals};
use crate::util::{
    cpu_ms, host_ticks, median, peak_rss_mb, percentile, steal_pct_since, windowed_p99, Rng,
};
use crate::Args;
use pfdbg_core::offline;
use pfdbg_serve::session::Engine;
use pfdbg_serve::ServerHandle;
use pfdbg_util::BitVec;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DESIGN: &str = "diffeq1";
const SESSION: &str = "eng";
const SETUPS: usize = 3;
/// Turns whose modelled reconfiguration cost is averaged: a fixed
/// window, so the figure is exact for a seed.
const SIM_WINDOW: usize = 2000;

/// A served design, ready for turns.
struct Started {
    handle: ServerHandle,
    conn: BlockingConn,
    ports: PortSignals,
    wires: usize,
    clbs: usize,
}

/// Cold start as a user sees it: instrument, compile, start the server,
/// connect, open the session.
fn set_up(shape: &Shape) -> Result<Started, String> {
    let inst = design::instrument(DESIGN, &design::serve_icfg())?;
    let off = offline(&inst, &design::offline_cfg())?;
    let stats = off.tpar.as_ref().ok_or("place and route did not run")?.stats;
    let ports = PortSignals::of(&inst);
    let engine =
        Engine::new(inst, off.scg.ok_or("no SCG")?, off.layout.ok_or("no layout")?, off.icap);
    let handle = design::start_server(
        design::manager(Arc::new(engine), shape, &Default::default(), None),
        shape,
    )?;
    let mut conn = BlockingConn::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    let reply = conn
        .roundtrip(&format!("{{\"op\":\"open\",\"session\":\"{SESSION}\"}}"))
        .map_err(|e| e.to_string())?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("open failed: {reply}"));
    }
    Ok(Started { handle, conn, ports, wires: stats.wires_used, clbs: stats.n_clbs })
}

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    sim_us: Vec<f64>,
    cpu_ms: f64,
    last_params: Option<String>,
}

fn drive(
    conn: &mut BlockingConn,
    stream: &mut InteractiveStream,
    budget: Duration,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Window {
    let mut w = Window::default();
    let c0 = cpu_ms();
    let start = Instant::now();
    while start.elapsed() < budget {
        let line = stream.next().expect("endless stream");
        let req = ledger.issued;
        ledger.issued += 1;
        let (reply, dt_us) =
            tracer.timed("client.request", req, || conn.roundtrip(&line).map(str::to_owned));
        let Ok(reply) = reply else { break };
        if let Some(ev) = ledger.record(&reply) {
            w.latencies_ms.push(dt_us / 1e3);
            w.sim_us.push(
                ev.num("transfer_us").unwrap_or(f64::NAN) + ev.num("verify_us").unwrap_or(f64::NAN),
            );
            w.last_params = ev.str("params").map(str::to_owned);
        }
    }
    w.cpu_ms = cpu_ms() - c0;
    w
}

pub fn run(args: &Args, result: &mut RunResult, tracer: &mut Tracer) -> Result<(), String> {
    let shape = Shape::pinned();
    let mut setups = Vec::new();
    let mut served: Option<Started> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(prev) = served.take() {
            prev.handle.shutdown();
        }
        let t = Instant::now();
        served = Some(set_up(&shape)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Started { handle, mut conn, ports, wires, clbs } = served.expect("one set-up");
    result.provenance.push(("design", DESIGN.into()));
    result.provenance.push(("instrument", format!("{:?}", design::serve_icfg())));
    result.provenance.push(("server_shape", shape.describe()));
    result.provenance.push(("load", "closed loop, 1 connection, 1 session".into()));
    result.provenance.push(("chaos", "none".into()));

    let mut stream = InteractiveStream::new(args.seed, ports.clone(), SESSION);
    let mut ledger = Ledger::default();
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let host0 = host_ticks();
    let w = drive(&mut conn, &mut stream, budget, &mut ledger, tracer);
    result.provenance.push(("host_steal_pct", steal_pct_since(host0).to_string()));
    let mut traced = None;
    if args.trace {
        tracer.set_on(true);
        traced = Some(drive(&mut conn, &mut stream, budget, &mut ledger, tracer));
        tracer.set_on(false);
    }
    ledger.settle();
    result.check(ledger.balanced(), || format!("request ledger does not balance: {ledger:?}"));
    result.attempted = ledger.issued;
    result.failed = ledger.not_ok();
    result.check(ledger.not_ok() == 0, || format!("requests did not complete: {ledger:?}"));
    let stats =
        conn.roundtrip("{\"op\":\"stats\"}").map(str::to_owned).map_err(|e| e.to_string())?;
    let stats = pfdbg_obs::parse_jsonl(&stats).map_err(|e| e.to_string())?.remove(0);
    let last = traced.as_ref().and_then(|t| t.last_params.clone()).or(w.last_params.clone());
    let sessions =
        last.iter().filter_map(|p| design::parse_params(p)).map(|p| (SESSION.to_string(), p));
    let sessions: Vec<(String, BitVec)> = sessions.collect();
    result.check(!sessions.is_empty(), || "no turn committed".into());
    design::check_readback(result, handle.sessions(), &handle.sessions().engine().scg, &sessions);
    handle.shutdown();

    if let Some(t) = traced {
        let untraced = median(&w.latencies_ms);
        let traced_p50 = median(&t.latencies_ms);
        result.set("trace.overhead_pct", 100.0 * (traced_p50 / untraced - 1.0));
        let (hits, misses) =
            (stats.num("cache_hits").unwrap_or(0.0), stats.num("cache_misses").unwrap_or(0.0));
        let served = Served {
            inbox_wait_p99_us: stats.num("inbox_wait_p99_us").unwrap_or(f64::NAN),
            shed: stats.num("shed_total").unwrap_or(f64::NAN),
            cache_hit_pct: 100.0 * hits / (hits + misses).max(1.0),
            p50_ms: traced_p50,
        };
        let inst = design::instrument(DESIGN, &design::serve_icfg())?;
        let mut rng = Rng::new(args.seed, 0x9B0E);
        let input = ProbeInput {
            inst: &inst,
            signal_sets: (0..400).map(|_| ports.draw(&mut rng)).collect(),
            chaos: Default::default(),
            journal: false,
            shape,
        };
        return probe::run(&input, Some(served), tracer, &RunDir::new("interactive")?, result);
    }

    let n = w.latencies_ms.len();
    result.check(n >= 1000, || {
        format!("only {n} turns: too few for a p99 with 10 samples beyond it")
    });
    result.check(w.sim_us.len() >= SIM_WINDOW, || {
        format!("only {} turns: the simulated-cost window needs {SIM_WINDOW}", w.sim_us.len())
    });
    let window = &w.sim_us[..SIM_WINDOW.min(w.sim_us.len())];
    result.set("setup_s", median(&setups));
    result.provenance.push(("setup_runs_s", format!("{setups:?}")));
    result.set("p50_ms", median(&w.latencies_ms));
    result.provenance.push(("cpu_ms_per_op", (w.cpu_ms / n.max(1) as f64).to_string()));
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("ok_pct", 100.0 * ledger.ok as f64 / ledger.issued.max(1) as f64);
    result.set("sim_reconfig_us_per_turn", window.iter().sum::<f64>() / window.len().max(1) as f64);
    result.set("route_wires", wires as f64);
    result.set("clbs", clbs as f64);
    result.provenance.push(("turns", n.to_string()));
    result.provenance.push(("p99_ms", windowed_p99(&w.latencies_ms).to_string()));
    result.provenance.push(("whole_run_p99_ms", percentile(&w.latencies_ms, 99.0).to_string()));
    result.provenance.push(("cache_hits", stats.num("cache_hits").unwrap_or(f64::NAN).to_string()));
    Ok(())
}

//! Designs, server shape, chaos settings and the output checks shared
//! by the workloads.

use crate::report::RunResult;
use crate::util::host_threads;
use pfdbg_core::{prepare_instrumented, InstrumentConfig, Instrumented, OfflineConfig, PAPER_K};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{CommitPolicy, Scg, ScrubPolicy};
use pfdbg_serve::session::Engine;
use pfdbg_serve::{FleetOptions, Server, ServerConfig, ServerHandle, SessionManager};
use pfdbg_util::BitVec;
use std::path::PathBuf;
use std::sync::Arc;

/// How `pfdbg serve` instruments a design: 4 trace ports, coverage 1.
pub fn serve_icfg() -> InstrumentConfig {
    InstrumentConfig { n_ports: 4, max_signals: None, coverage: 1 }
}

/// The offline flow's settings: k = 6 and the default thread policy.
pub fn offline_cfg() -> OfflineConfig {
    OfflineConfig { k: PAPER_K, ..OfflineConfig::default() }
}

/// Build suite design `name` and instrument it.
pub fn instrument(name: &str, icfg: &InstrumentConfig) -> Result<Instrumented, String> {
    let design = pfdbg_circuits::build(name).ok_or_else(|| format!("unknown design {name}"))?;
    prepare_instrumented(&design, icfg, PAPER_K).map(|(_, _, inst)| inst)
}

/// The pinned server shape: one IO thread (more flips the closed-loop
/// p50 between two modes), one shard per hardware thread, a 64-entry
/// LRU, the default inbox, and no background scrubber.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub io_threads: usize,
    pub shards: usize,
    pub cache: usize,
    pub inbox: usize,
}

impl Shape {
    pub fn pinned() -> Shape {
        Shape { io_threads: 1, shards: host_threads(), cache: 64, inbox: 1024 }
    }

    pub fn describe(&self) -> String {
        format!(
            "io_threads={} shards={} cache={} inbox={} scrub_thread=off",
            self.io_threads, self.shards, self.cache, self.inbox
        )
    }
}

/// Seeded fault injection: ICAP write faults and SEUs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chaos {
    pub fault: Option<IcapFaultConfig>,
    pub seu: Option<SeuConfig>,
}

impl Chaos {
    pub fn describe(&self) -> String {
        format!(
            "icap_fault_rate={} seu_rate={}",
            self.fault.map_or(0.0, |f| f.total_rate()),
            self.seu.map_or(0.0, |s| s.rate)
        )
    }
}

/// A session manager over `engine` in `shape`, journaling to
/// `journal` when given.
pub fn manager(
    engine: Arc<Engine>,
    shape: &Shape,
    chaos: &Chaos,
    journal: Option<PathBuf>,
) -> SessionManager {
    let mut m = SessionManager::with_fleet(
        engine,
        shape.cache,
        chaos.fault,
        CommitPolicy::default(),
        chaos.seu,
        ScrubPolicy::default(),
        FleetOptions { shards: shape.shards, inbox_capacity: shape.inbox },
    );
    if let Some(dir) = journal {
        m.set_journal_dir(dir);
    }
    m
}

pub fn start_server(manager: SessionManager, shape: &Shape) -> Result<ServerHandle, String> {
    Server::start(
        manager,
        ServerConfig {
            workers: shape.io_threads,
            cache_capacity: shape.cache,
            scrub_interval_ms: 0.0,
            ..ServerConfig::default()
        },
    )
}

/// Parse a wire parameter string.
pub fn parse_params(s: &str) -> Option<BitVec> {
    pfdbg_serve::protocol::parse_param_bits(s).ok()
}

/// The golden readback check: each session's device memory, read back
/// through its channel, equals the PConf golden specialization of the
/// parameters the client saw it commit last, and the server agrees on
/// those parameters.
pub fn check_readback(
    result: &mut RunResult,
    manager: &SessionManager,
    scg: &Scg,
    sessions: &[(String, BitVec)],
) {
    let mut bad = 0usize;
    for (name, params) in sessions {
        let ok = (|| -> Result<bool, String> {
            let (server_params, _, _) = manager.session_state(name)?;
            let golden = scg.try_specialize(params)?;
            Ok(server_params == *params && manager.readback(name)? == golden)
        })();
        match ok {
            Ok(true) => {}
            Ok(false) => bad += 1,
            Err(e) => {
                bad += 1;
                eprintln!("perfbench: readback of {name}: {e}");
            }
        }
    }
    result.check(bad == 0, || {
        format!("{bad} of {} sessions do not read back as their golden bitstream", sessions.len())
    });
}

/// A private working directory for one run, inside the build directory
/// of the checkout. It is left in place at exit: on an ext4 volume
/// mounted with `discard`, deleting a fleet run's ~6000 journal files
/// made the next run's file creation ten times slower (fleet set-up
/// 0.08 s -> 1.1 s), so the files go when the build directory goes.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(tag: &str) -> Result<RunDir, String> {
        let dir = build_dir().join("perfbench-run").join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Commit pending file-system metadata now (an fsync of a directory
    /// commits the file system's journal), so the file creates of
    /// set-up are not written back during the measurement.
    pub fn settle(&self) {
        if let Ok(d) = std::fs::File::open(&self.0) {
            let _ = d.sync_all();
        }
    }
}

/// Where build products and run files go: `CARGO_TARGET_DIR`, else
/// `.bench_build`.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

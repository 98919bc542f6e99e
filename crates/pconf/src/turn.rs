//! The debug turn, the one transaction every online path runs: evaluate
//! the SCG for new parameters, XOR-diff the packed tunable values against
//! the committed baseline, stage the changed bits in place, commit the
//! changed frames ([`commit_frames`]), then promote — or revert and arm a
//! full resync. [`crate::OnlineReconfigurator`], serve sessions and the
//! journal replay driver all run this step, so a recorded turn and its
//! replay cannot drift apart. After warmup a turn allocates nothing,
//! whether it commits, rolls back or resyncs (`tests/turn_alloc.rs`).

use crate::icap::{commit_frames, CommitPolicy, CommitStats, IcapChannel};
use crate::scg::{Scg, SpecializeScratch, TurnStats};
use pfdbg_arch::{Bitstream, BitstreamLayout, IcapModel};
use pfdbg_util::BitVec;
use std::time::{Duration, Instant};

thread_local! {
    /// The write set every turn on this thread reuses — per thread, not
    /// per session, so a fleet of sessions keeps no frame buffer each.
    /// `TurnState::step` never re-enters itself: the borrow is
    /// uncontended.
    static WRITE_SET: std::cell::RefCell<Vec<usize>> = std::cell::RefCell::default();
}

/// Frames containing at least one tunable bit — the escalation set of
/// the commit ladder's full-frame-rewrite level. Ascending: the tunable
/// list is sorted by bit address.
pub fn region_frames(scg: &Scg, layout: &BitstreamLayout) -> Vec<usize> {
    let mut frames: Vec<usize> =
        scg.generalized().tunable.iter().map(|&(addr, _)| layout.frame_of(addr)).collect();
    frames.dedup();
    frames
}

/// The read-only side of a turn, shared by every session of one
/// compiled design.
pub struct TurnEnv<'a> {
    /// The SCG over the generalized bitstream.
    pub scg: &'a Scg,
    /// Frame geometry.
    pub layout: &'a BitstreamLayout,
    /// Reconfiguration-port cost model.
    pub icap: &'a IcapModel,
    /// [`region_frames`] of this design.
    pub region_frames: &'a [usize],
}

/// What one committed turn did.
#[derive(Debug, Clone, Copy)]
pub struct TurnReport {
    /// Wall time of the specialization alone: the node sweep, or the
    /// copy of cached values.
    pub specialize_time: Duration,
    /// Wall time of the specialization, the diff and the write set.
    pub eval_time: Duration,
    /// Wall time spent inside the commit — what a deadline watchdog
    /// measures.
    pub commit_time: Duration,
    /// The commit's retry, escalation and modeled-cost accounting.
    pub commit: CommitStats,
    /// Configuration bits that changed.
    pub bits_changed: usize,
    /// Frames holding a changed bit.
    pub frames_changed: usize,
    /// The write set was the whole device: a previous rollback (or a
    /// quarantine) left configuration memory untrusted.
    pub resynced: bool,
}

impl TurnReport {
    /// The turn's figures as [`TurnStats`].
    pub fn stats(&self) -> TurnStats {
        TurnStats {
            eval_time: self.eval_time,
            bits_changed: self.bits_changed,
            frames_changed: self.frames_changed,
            transfer_time: self.commit.transfer_time,
            verify_time: self.commit.verify_time,
            retries: self.commit.retries,
            degradations: self.commit.degradations,
        }
    }
}

/// Why a turn did not commit.
#[derive(Debug)]
pub enum TurnError {
    /// The parameter vector does not fit the design; nothing ran.
    Params(String),
    /// The deadline gate refused the turn after evaluation; nothing
    /// was mutated and no frame was written.
    Deadline {
        /// Wall time of the specialization the turn ran.
        specialize_time: Duration,
    },
    /// The commit exhausted its retry and escalation budget. The
    /// session state is as before the turn, and the next turn resyncs.
    RolledBack {
        /// Wall time of the specialization the turn ran.
        specialize_time: Duration,
        /// What the failed commit spent.
        commit: CommitStats,
        /// Wall time spent inside the commit.
        commit_time: Duration,
        /// Frames that failed verification even under full
        /// reconfiguration.
        failed_frames: usize,
    },
}

impl std::fmt::Display for TurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TurnError::Params(msg) => f.write_str(msg),
            TurnError::Deadline { .. } => f.write_str("deadline exceeded"),
            TurnError::RolledBack { commit, failed_frames, .. } => write!(
                f,
                "reconfiguration rolled back: {failed_frames} frame(s) failed verification \
                 even under full reconfiguration ({} write attempts, {} retries)",
                commit.writes_attempted, commit.retries
            ),
        }
    }
}

/// One session's side of the turn: the configuration it believes is
/// loaded, the parameters that configuration was specialized for, the
/// evaluation scratch whose baseline mirrors them, and the resync
/// flag. Belongs to exactly one session.
pub struct TurnState {
    bits: Bitstream,
    params: BitVec,
    scratch: SpecializeScratch,
    needs_resync: bool,
}

impl TurnState {
    /// A session at the base configuration (all parameters zero) —
    /// what a freshly configured device holds. The scratch baseline is
    /// read out of the base bitstream, so the first turn sweeps once,
    /// and a first turn served from a cache not at all.
    pub fn new(scg: &Scg) -> TurnState {
        let bits = scg.generalized().base.clone();
        let params = BitVec::zeros(scg.generalized().n_params);
        let mut scratch = SpecializeScratch::new();
        scratch.seed(scg, &bits, &params);
        TurnState { bits, params, scratch, needs_resync: false }
    }

    /// The configuration the session believes is loaded — equal to the
    /// device readback after every committed turn.
    pub fn bits(&self) -> &Bitstream {
        &self.bits
    }

    /// The parameters the loaded configuration was specialized for.
    pub fn params(&self) -> &BitVec {
        &self.params
    }

    /// Whether the next turn rewrites every frame.
    pub fn needs_resync(&self) -> bool {
        self.needs_resync
    }

    /// Stop trusting configuration memory (a scrub quarantined a frame,
    /// or the device failed mid-commit): the next turn rewrites every
    /// frame.
    pub fn arm_resync(&mut self) {
        self.needs_resync = true;
    }

    /// Packed tunable values of the loaded configuration (bit `i` =
    /// tunable `i`) — what a cache of specializations stores for
    /// [`TurnState::params`] and hands back to [`TurnState::step`].
    pub fn packed(&self) -> &BitVec {
        self.scratch.committed_packed()
    }

    /// Run one turn toward `params`.
    ///
    /// `cached` holds the packed tunable values of `params` from an
    /// earlier turn (see [`TurnState::packed`]); given, they replace
    /// the node sweep and nothing else changes. `in_time` is the
    /// deadline gate: it runs after evaluation and before any state or
    /// device mutation, and `false` aborts the turn with
    /// [`TurnError::Deadline`].
    ///
    /// The diff is staged into the loaded configuration in place. A
    /// verified commit promotes parameters and baseline; a failed one
    /// reverts the staged bits and arms a resync.
    pub fn step(
        &mut self,
        env: &TurnEnv<'_>,
        channel: &mut dyn IcapChannel,
        policy: &CommitPolicy,
        params: &BitVec,
        cached: Option<&BitVec>,
        in_time: impl FnOnce() -> bool,
    ) -> Result<TurnReport, TurnError> {
        let t0 = Instant::now();
        let scg = env.scg;
        scg.fill_packed(&self.params, params, cached, &mut self.scratch)
            .map_err(TurnError::Params)?;
        let specialize_time = t0.elapsed();
        WRITE_SET.with_borrow_mut(|frames| {
            // Ascending addresses give nondecreasing frames, so an
            // adjacent check dedups them.
            frames.clear();
            let mut bits_changed = 0;
            for (addr, _) in self.scratch.changes(scg) {
                bits_changed += 1;
                let frame = env.layout.frame_of(addr);
                if frames.last() != Some(&frame) {
                    frames.push(frame);
                }
            }
            let frames_changed = frames.len();
            if self.needs_resync {
                frames.clear();
                frames.extend(0..env.layout.n_frames());
            }
            let eval_time = t0.elapsed();
            if !in_time() {
                return Err(TurnError::Deadline { specialize_time });
            }

            for (addr, v) in self.scratch.changes(scg) {
                self.bits.set(addr, v);
            }
            let t_commit = Instant::now();
            let committed =
                commit_frames(channel, env.icap, &self.bits, frames, env.region_frames, policy);
            let commit_time = t_commit.elapsed();
            match committed {
                Ok(commit) => {
                    let report = TurnReport {
                        specialize_time,
                        eval_time,
                        commit_time,
                        commit,
                        bits_changed,
                        frames_changed,
                        resynced: self.needs_resync,
                    };
                    self.scratch.commit(params);
                    self.params.clone_from(params);
                    self.needs_resync = false;
                    Ok(report)
                }
                Err((commit, failed_frames)) => {
                    // The scratch keeps its baseline: it still describes
                    // the configuration the session believes is loaded.
                    for (addr, v) in self.scratch.changes(scg) {
                        self.bits.set(addr, !v);
                    }
                    self.needs_resync = true;
                    Err(TurnError::RolledBack {
                        specialize_time,
                        commit,
                        commit_time,
                        failed_frames,
                    })
                }
            }
        })
    }
}

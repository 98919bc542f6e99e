//! After warmup, the turn step allocates nothing: committed turns, a
//! rolled-back turn and the resync turn that follows it.
//!
//! A counting global allocator tallies allocations made on the test's
//! own thread (the harness's other threads are not counted), and the
//! assertion covers every path of [`TurnState::step`], including the
//! ICAP commit ladder underneath it.

use pfdbg_arch::{build_rrg, ArchSpec, BitstreamLayout, Device, IcapModel};
use pfdbg_pconf::icap::{CommitPolicy, IcapChannel, IcapError, MemoryIcap};
use pfdbg_pconf::{
    region_frames, BddManager, GeneralizedBuilder, Scg, TurnEnv, TurnError, TurnState,
};
use pfdbg_util::BitVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// A reliable in-memory port whose writes can be switched to fail.
struct Switchable {
    mem: MemoryIcap,
    fail: bool,
}

impl IcapChannel for Switchable {
    fn frame_bits(&self) -> usize {
        self.mem.frame_bits()
    }

    fn n_bits(&self) -> usize {
        self.mem.n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        if self.fail {
            return Err(IcapError::WriteFailed);
        }
        self.mem.write_frame(frame, data)
    }

    fn read_frame(&self, frame: usize) -> Vec<u64> {
        self.mem.read_frame(frame)
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.mem.read_frame_into(frame, out)
    }
}

/// Thousands of tunables over 16 parameters, spread across many frames.
fn design() -> (BitstreamLayout, Scg) {
    let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, 4, 4);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    let mut m = BddManager::new();
    let n_params = 16;
    let mut b = GeneralizedBuilder::new(&layout, n_params);
    for i in 0..5000usize {
        let v1 = m.var((i % n_params) as u32);
        let v2 = m.var(((i * 7 + 3) % n_params) as u32);
        let f = if i % 3 == 0 { m.and(v1, v2) } else { m.or(v1, v2) };
        b.set_func(&m, i * 3, f);
    }
    (layout, Scg::new(m, b.build().unwrap()))
}

#[test]
fn turn_step_allocates_nothing_after_warmup() {
    let (layout, scg) = design();
    let icap = IcapModel::virtex5();
    let region = region_frames(&scg, &layout);
    let env = TurnEnv { scg: &scg, layout: &layout, icap: &icap, region_frames: &region };
    let mut channel = Switchable {
        mem: MemoryIcap::new(scg.generalized().base.clone(), layout.frame_bits),
        fail: false,
    };
    let policy = CommitPolicy { max_retries: 1, ..CommitPolicy::default() };
    let mut state = TurnState::new(&scg);
    let walk: Vec<BitVec> =
        (0..8u32).map(|s| (0..16).map(|i| (i * 5 + s * 3) % 7 < 3).collect()).collect();

    // One pass over every path: committed turns, a rollback, a resync.
    let run = |state: &mut TurnState, channel: &mut Switchable| {
        for params in &walk {
            let report = state.step(&env, channel, &policy, params, None, || true).unwrap();
            assert_eq!(report.commit.degradations, 0);
        }
        channel.fail = true;
        let rolled = state.step(&env, channel, &policy, &walk[1], None, || true);
        assert!(matches!(rolled, Err(TurnError::RolledBack { .. })), "{rolled:?}");
        assert!(state.needs_resync());
        channel.fail = false;
        let resync = state.step(&env, channel, &policy, &walk[2], None, || true).unwrap();
        assert!(resync.resynced);
        assert!(!state.needs_resync());
    };

    run(&mut state, &mut channel);
    let before = allocs();
    run(&mut state, &mut channel);
    let during = allocs() - before;
    assert_eq!(during, 0, "{during} allocations across {} warm turns", walk.len() + 2);
    assert_eq!(channel.mem.memory(), state.bits(), "device and belief agree");
}

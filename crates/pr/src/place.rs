//! TPlace: simulated-annealing placement (VPR-style).
//!
//! Blocks (CLBs and I/O pads) are assigned to grid slots minimizing the
//! sum over nets of half-perimeter wirelength (HPWL) scaled by the
//! standard fanout correction factor. The annealing schedule follows
//! VPR: automatic initial temperature from move-cost statistics,
//! adaptive cooling based on the acceptance rate, and a shrinking range
//! limit. Tunable nets contribute the bounding box over *all* their
//! alternative sources plus sinks — keeping the selectable signals close
//! is exactly what lets them share routing.

use crate::pack::{Block, PackedDesign};
use pfdbg_arch::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// A grid location: tile plus sub-slot (BLE-irrelevant; sub distinguishes
/// pad slots on I/O tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Tile x.
    pub x: u16,
    /// Tile y.
    pub y: u16,
    /// Sub-slot within the tile (always 0 for CLBs; pad index for I/O).
    pub sub: u16,
}

/// A placement: block index → location.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Per-block location (same order as `PackedDesign::blocks`).
    pub locs: Vec<Loc>,
    /// Final bounding-box cost.
    pub cost: f64,
    /// Annealing moves attempted.
    pub moves: usize,
}

/// Placement configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlaceConfig {
    /// RNG seed (deterministic placements for reproducible experiments).
    pub seed: u64,
    /// Moves per temperature step, per block (VPR's `inner_num` ≈ 10
    /// scaled; we use `moves_per_block * n_blocks^(4/3)` overall).
    pub effort: f64,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig { seed: 0xF00D, effort: 1.0 }
    }
}

/// The classic VPR fanout correction for HPWL.
fn crossing_factor(terminals: usize) -> f64 {
    const Q: [f64; 46] = [
        1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493, 1.4974, 1.5455,
        1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015,
        2.0379, 2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583,
        2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625,
        2.6842,
    ];
    if terminals == 0 {
        0.0
    } else if terminals <= 45 {
        Q[terminals]
    } else {
        2.6842 + 0.02616 * (terminals - 45) as f64
    }
}

struct NetGeometry {
    /// Block terminals (sources' blocks + sinks), deduplicated.
    terminals: Vec<u32>,
    weight: f64,
}

/// A net's bounding box (index 0 = x, 1 = y) and how many terminals lie
/// on each of its four edges: enough to update the box in O(1) when one
/// terminal moves, unless the move empties an edge.
#[derive(Clone, Copy, Default)]
struct BBox {
    lo: [u16; 2],
    hi: [u16; 2],
    n_lo: [u16; 2],
    n_hi: [u16; 2],
}

impl BBox {
    /// Scan every terminal; an empty net gets the all-zero box.
    fn of(n: &NetGeometry, locs: &[Loc]) -> BBox {
        if n.terminals.is_empty() {
            return BBox::default();
        }
        let mut bb = BBox { lo: [u16::MAX; 2], ..BBox::default() };
        for &t in &n.terminals {
            let l = locs[t as usize];
            bb.lo = [bb.lo[0].min(l.x), bb.lo[1].min(l.y)];
            bb.hi = [bb.hi[0].max(l.x), bb.hi[1].max(l.y)];
        }
        for &t in &n.terminals {
            let l = locs[t as usize];
            bb.n_lo[0] += u16::from(l.x == bb.lo[0]);
            bb.n_lo[1] += u16::from(l.y == bb.lo[1]);
            bb.n_hi[0] += u16::from(l.x == bb.hi[0]);
            bb.n_hi[1] += u16::from(l.y == bb.hi[1]);
        }
        bb
    }

    /// Widen axis `d` to take in one more terminal at `v`.
    fn take(&mut self, d: usize, v: u16) {
        match v.cmp(&self.lo[d]) {
            Ordering::Less => (self.lo[d], self.n_lo[d]) = (v, 1),
            Ordering::Equal => self.n_lo[d] += 1,
            Ordering::Greater => {}
        }
        match v.cmp(&self.hi[d]) {
            Ordering::Greater => (self.hi[d], self.n_hi[d]) = (v, 1),
            Ordering::Equal => self.n_hi[d] += 1,
            Ordering::Less => {}
        }
    }

    /// The box after one terminal moves `from` → `to`, or `None` when it
    /// was alone on an edge it moves in from (the caller rescans).
    fn moved(mut self, from: Loc, to: Loc) -> Option<BBox> {
        for (d, f, t) in [(0, from.x, to.x), (1, from.y, to.y)] {
            if t > f && f == self.lo[d] {
                if self.n_lo[d] == 1 {
                    return None;
                }
                self.n_lo[d] -= 1;
            }
            if t < f && f == self.hi[d] {
                if self.n_hi[d] == 1 {
                    return None;
                }
                self.n_hi[d] -= 1;
            }
            if t != f {
                self.take(d, t);
            }
        }
        Some(self)
    }

    /// Fanout-weighted half-perimeter wirelength.
    fn cost(&self, weight: f64) -> f64 {
        weight * ((self.hi[0] - self.lo[0]) as f64 + (self.hi[1] - self.lo[1]) as f64)
    }
}

/// Nets with at most this many terminals rescan their box after a move:
/// a branch-free scan of a few terminals beats the branches of the
/// incremental update, which pays off on the few high-fanout nets
/// (on diffeq1, 86% of the terminals a full rescan would visit are in
/// nets of more than 64 terminals).
const RESCAN_MAX: usize = 16;

/// `(delta cost, moved block, its old loc, swapped (block, old loc))`.
type Move = (f64, usize, Loc, Option<(usize, Loc)>);

/// Free grid slot.
const FREE: u32 = u32::MAX;

/// The annealer's state: block locations, the slot → block occupancy
/// grid and every net's bounding box, all kept in sync, plus the move in
/// flight: its affected nets (`net << 2 | 1` if block `a` of the move is
/// a terminal, `| 2` if the swapped block is, `| 3` if both are) and
/// their new boxes, written back only on accept.
struct Anneal<'a> {
    nets: &'a [NetGeometry],
    nets_of_block: &'a [Vec<u32>],
    clb_blocks: &'a [usize],
    pad_blocks: &'a [usize],
    clb_slots: &'a [Loc],
    io_slots: &'a [Loc],
    locs: Vec<Loc>,
    grid: Vec<u32>,
    grid_width: usize,
    grid_subs: usize,
    bb: Vec<BBox>,
    affected: Vec<u32>,
    new_bb: Vec<BBox>,
}

impl Anneal<'_> {
    fn slot(&self, l: Loc) -> usize {
        (l.y as usize * self.grid_width + l.x as usize) * self.grid_subs + l.sub as usize
    }

    /// Pick a random block and swap it with a random slot of its class
    /// (occupied → swap, free → move) within the range limit. The move
    /// is applied; the caller either accepts or undoes it.
    fn attempt(&mut self, rng: &mut StdRng, range: f64) -> Option<Move> {
        let use_clb =
            !self.clb_blocks.is_empty() && (self.pad_blocks.is_empty() || rng.gen::<f64>() < 0.8);
        let (blocks, slots) = if use_clb {
            (self.clb_blocks, self.clb_slots)
        } else {
            (self.pad_blocks, self.io_slots)
        };
        if blocks.is_empty() {
            return None;
        }
        let a = blocks[rng.gen_range(0..blocks.len())];
        let old_a = self.locs[a];
        // Candidate slot within range.
        let slot = slots[rng.gen_range(0..slots.len())];
        let dist = (slot.x as f64 - old_a.x as f64).abs() + (slot.y as f64 - old_a.y as f64).abs();
        if dist > range || slot == old_a {
            return None;
        }
        let (si, ai) = (self.slot(slot), self.slot(old_a));
        let occupant = (self.grid[si] != FREE).then_some(self.grid[si] as usize);
        // Merge the two blocks' ascending net lists.
        let (na, nb) =
            (&self.nets_of_block[a], occupant.map_or(&[][..], |b| &self.nets_of_block[b]));
        self.affected.clear();
        let (mut i, mut j) = (0, 0);
        while i < na.len() && j < nb.len() {
            let (x, y) = (na[i], nb[j]);
            self.affected.push(x.min(y) << 2 | u32::from(x <= y) | u32::from(y <= x) << 1);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        self.affected.extend(na[i..].iter().map(|&ni| ni << 2 | 1));
        self.affected.extend(nb[j..].iter().map(|&ni| ni << 2 | 2));
        let cost = |e: u32, bb: &BBox| bb.cost(self.nets[(e >> 2) as usize].weight);
        let before: f64 = self.affected.iter().map(|&e| cost(e, &self.bb[(e >> 2) as usize])).sum();
        self.locs[a] = slot;
        self.grid[si] = a as u32;
        self.grid[ai] = occupant.map_or(FREE, |b| b as u32);
        if let Some(b) = occupant {
            self.locs[b] = old_a;
        }
        self.new_bb.clear();
        for &e in &self.affected {
            let ni = (e >> 2) as usize;
            let (net, bb) = (&self.nets[ni], self.bb[ni]);
            let moved = match e & 3 {
                // Two terminals of the net traded places: same box.
                3 => Some(bb),
                _ if net.terminals.len() <= RESCAN_MAX => None,
                1 => bb.moved(old_a, slot),
                _ => bb.moved(slot, old_a),
            };
            self.new_bb.push(moved.unwrap_or_else(|| BBox::of(net, &self.locs)));
        }
        let after: f64 = self.affected.iter().zip(&self.new_bb).map(|(&e, bb)| cost(e, bb)).sum();
        Some((after - before, a, old_a, occupant.map(|b| (b, slot))))
    }

    fn undo(&mut self, (_, a, old_a, b): Move) {
        let si = self.slot(self.locs[a]);
        self.grid[si] = b.map_or(FREE, |(b, _)| b as u32);
        if let Some((b, old_b)) = b {
            self.locs[b] = old_b;
        }
        self.locs[a] = old_a;
        let ai = self.slot(old_a);
        self.grid[ai] = a as u32;
    }

    /// Commit the last attempted move's bounding boxes.
    fn accept(&mut self) {
        for (&e, &bb) in self.affected.iter().zip(&self.new_bb) {
            self.bb[(e >> 2) as usize] = bb;
        }
    }
}

/// Run simulated-annealing placement.
pub fn place(design: &PackedDesign, dev: &Device, cfg: &PlaceConfig) -> Result<Placement, String> {
    let n_blocks = design.blocks.len();
    let clb_slots: Vec<Loc> =
        dev.clb_tiles().map(|(x, y)| Loc { x: x as u16, y: y as u16, sub: 0 }).collect();
    let io_slots: Vec<Loc> = dev
        .io_tiles()
        .flat_map(|(x, y)| {
            (0..dev.spec.io_capacity).map(move |s| Loc { x: x as u16, y: y as u16, sub: s as u16 })
        })
        .collect();

    let clb_blocks: Vec<usize> =
        (0..n_blocks).filter(|&b| matches!(design.blocks[b], Block::Clb(_))).collect();
    let pad_blocks: Vec<usize> =
        (0..n_blocks).filter(|&b| !matches!(design.blocks[b], Block::Clb(_))).collect();
    if clb_blocks.len() > clb_slots.len() {
        return Err(format!(
            "design needs {} CLBs but device has {}",
            clb_blocks.len(),
            clb_slots.len()
        ));
    }
    if pad_blocks.len() > io_slots.len() {
        return Err(format!(
            "design needs {} pads but device has {}",
            pad_blocks.len(),
            io_slots.len()
        ));
    }

    // Net geometries.
    let nets: Vec<NetGeometry> = design
        .nets
        .iter()
        .map(|n| {
            let mut terminals: Vec<u32> = n.sources.iter().map(|s| s.block as u32).collect();
            for &s in &n.sinks {
                terminals.push(s as u32);
            }
            terminals.sort_unstable();
            terminals.dedup();
            let weight = crossing_factor(terminals.len());
            NetGeometry { terminals, weight }
        })
        .collect();
    // Nets touching each block.
    let mut nets_of_block: Vec<Vec<u32>> = vec![Vec::new(); n_blocks];
    for (ni, n) in nets.iter().enumerate() {
        for &t in &n.terminals {
            nets_of_block[t as usize].push(ni as u32);
        }
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Initial placement: round-robin assignment.
    let grid_subs = dev.spec.io_capacity.max(1);
    let mut st = Anneal {
        nets: &nets,
        nets_of_block: &nets_of_block,
        clb_blocks: &clb_blocks,
        pad_blocks: &pad_blocks,
        clb_slots: &clb_slots,
        io_slots: &io_slots,
        locs: vec![Loc { x: 0, y: 0, sub: 0 }; n_blocks],
        grid: vec![FREE; dev.width * dev.height * grid_subs],
        grid_width: dev.width,
        grid_subs,
        bb: Vec::new(),
        affected: Vec::new(),
        new_bb: Vec::new(),
    };
    for (blocks, slots) in [(&clb_blocks, &clb_slots), (&pad_blocks, &io_slots)] {
        for (&b, &l) in blocks.iter().zip(slots.iter()) {
            st.locs[b] = l;
            let si = st.slot(l);
            st.grid[si] = b as u32;
        }
    }
    st.bb = nets.iter().map(|n| BBox::of(n, &st.locs)).collect();
    let mut cost: f64 = st.bb.iter().zip(&nets).map(|(bb, n)| bb.cost(n.weight)).sum();

    let grid_span = dev.width.max(dev.height) as f64;
    let mut range = grid_span;
    let moves_per_temp = ((cfg.effort * 10.0) * (n_blocks.max(8) as f64).powf(4.0 / 3.0)) as usize;

    if n_blocks == 0 || nets.is_empty() {
        return Ok(Placement { locs: st.locs, cost, moves: 0 });
    }

    // Initial temperature: std-dev of random move deltas (VPR).
    let mut deltas: Vec<f64> = Vec::new();
    for _ in 0..(n_blocks.max(16)) {
        if let Some(mv) = st.attempt(&mut rng, range) {
            deltas.push(mv.0);
            st.undo(mv);
        }
    }
    let mut t = if deltas.is_empty() {
        1.0
    } else {
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
        (20.0 * var.sqrt()).max(1.0)
    };

    let exit_t = 0.005 * cost.max(1.0) / (nets.len().max(1) as f64);
    let mut total_moves = 0usize;
    while t > exit_t {
        let mut accepted = 0usize;
        let mut attempted = 0usize;
        for _ in 0..moves_per_temp {
            let Some(mv) = st.attempt(&mut rng, range) else {
                continue;
            };
            attempted += 1;
            total_moves += 1;
            let delta = mv.0;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp();
            if accept {
                cost += delta;
                accepted += 1;
                st.accept();
            } else {
                st.undo(mv);
            }
        }
        let alpha = if attempted == 0 {
            0.5
        } else {
            let r = accepted as f64 / attempted as f64;
            // VPR's adaptive schedule.
            if r > 0.96 {
                0.5
            } else if r > 0.8 {
                0.9
            } else if r > 0.15 {
                0.95
            } else {
                0.8
            }
        };
        // Shrink the range limit toward keeping acceptance near 0.44.
        let r = if attempted == 0 { 0.0 } else { accepted as f64 / attempted as f64 };
        range = (range * (1.0 - 0.44 + r)).clamp(1.0, grid_span);
        t *= alpha;
    }

    // Recompute exactly to cancel floating-point drift accumulated by
    // the incremental updates (and sanity-check the bookkeeping).
    let locs = st.locs;
    let exact: f64 = nets.iter().map(|n| BBox::of(n, &locs).cost(n.weight)).sum();
    debug_assert!(
        (exact - cost).abs() <= 1e-6 * exact.abs().max(1.0),
        "incremental cost drifted: {cost} vs {exact}"
    );
    Ok(Placement { locs, cost: exact, moves: total_moves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{PRNet, SourceRef};
    use pfdbg_arch::{ArchSpec, TileKind};

    /// A synthetic packed design: `n` CLBs in a chain plus 2 pads.
    fn chain_design(n: usize) -> PackedDesign {
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..n {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        blocks.push(Block::InPad("in".into()));
        blocks.push(Block::OutPad("out".into()));
        let mut nets = Vec::new();
        // in -> clb0 -> clb1 -> ... -> out
        nets.push(PRNet {
            name: "n_in".into(),
            sources: vec![SourceRef { block: n, ble: 0 }],
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![0],
            tunable: false,
        });
        for i in 0..n - 1 {
            nets.push(PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: i, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![i + 1],
                tunable: false,
            });
        }
        nets.push(PRNet {
            name: "n_out".into(),
            sources: vec![SourceRef { block: n - 1, ble: 0 }],
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![n + 1],
            tunable: false,
        });
        PackedDesign { blocks, clusters, nets, n_tcons: 0 }
    }

    #[test]
    fn placement_is_legal() {
        let d = chain_design(12);
        let dev = Device::new(ArchSpec::default(), 5, 5);
        let p = place(&d, &dev, &PlaceConfig::default()).unwrap();
        assert_eq!(p.locs.len(), d.blocks.len());
        // CLBs on CLB tiles, pads on IO tiles; no slot double-booked.
        let mut used = std::collections::HashSet::new();
        for (b, loc) in p.locs.iter().enumerate() {
            assert!(used.insert(*loc), "slot {loc:?} double-booked");
            match d.blocks[b] {
                Block::Clb(_) => {
                    assert_eq!(dev.tile(loc.x as usize, loc.y as usize), TileKind::Clb)
                }
                _ => assert_eq!(dev.tile(loc.x as usize, loc.y as usize), TileKind::Io),
            }
        }
    }

    #[test]
    fn annealing_beats_initial_assignment() {
        let d = chain_design(24);
        let dev = Device::new(ArchSpec::default(), 6, 6);
        // Cost of the naive round-robin start: compute by placing with
        // zero effort... instead compare against a random-seed variance:
        let p1 = place(&d, &dev, &PlaceConfig { seed: 1, effort: 1.0 }).unwrap();
        // A chain of 24 blocks on a 6x6 grid: optimal is ~1 per hop. The
        // anneal should get within 3x of that.
        let hops = d.nets.len() as f64;
        assert!(p1.cost < hops * 3.0, "placement cost {} vs ideal ~{hops}", p1.cost);
        assert!(p1.moves > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = chain_design(10);
        let dev = Device::new(ArchSpec::default(), 4, 4);
        let a = place(&d, &dev, &PlaceConfig { seed: 7, effort: 0.5 }).unwrap();
        let b = place(&d, &dev, &PlaceConfig { seed: 7, effort: 0.5 }).unwrap();
        assert_eq!(a.locs, b.locs);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn rejects_oversubscribed_device() {
        let d = chain_design(30);
        let dev = Device::new(ArchSpec::default(), 2, 2); // 4 CLB slots
        assert!(place(&d, &dev, &PlaceConfig::default()).is_err());
    }

    #[test]
    fn tunable_net_sources_pull_together() {
        // One tunable net with 4 alternative sources and one sink: the
        // cost function must include all sources in the bbox, so the
        // anneal brings them near the sink.
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..5 {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        let nets = vec![PRNet {
            name: "tn".into(),
            sources: (0..4).map(|b| SourceRef { block: b, ble: 0 }).collect(),
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![4],
            tunable: true,
        }];
        let d = PackedDesign { blocks, clusters, nets, n_tcons: 3 };
        let dev = Device::new(ArchSpec::default(), 8, 8);
        let p = place(&d, &dev, &PlaceConfig::default()).unwrap();
        // Bounding box of all five blocks should be small.
        let xs: Vec<u16> = p.locs.iter().map(|l| l.x).collect();
        let ys: Vec<u16> = p.locs.iter().map(|l| l.y).collect();
        let bbox = (xs.iter().max().unwrap() - xs.iter().min().unwrap()) as f64
            + (ys.iter().max().unwrap() - ys.iter().min().unwrap()) as f64;
        assert!(bbox <= 6.0, "tunable net spread out: bbox {bbox}");
    }
}

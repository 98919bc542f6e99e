//! TRoute: PathFinder negotiated-congestion routing with
//! parameterization-aware resource sharing.
//!
//! Standard PathFinder: every net is ripped up and rerouted each
//! iteration; node costs grow with present congestion and accumulated
//! history until no resource is overused. The parameterization twist
//! (the paper's §IV.A.4): a *tunable net* has several alternative
//! sources, of which exactly one is active per specialization — so the
//! alternatives may overlap each other freely (their union is charged to
//! the net once), and all alternatives must converge on the same chosen
//! input pin of every sink.

use crate::pack::PackedDesign;
use crate::place::Placement;
use pfdbg_arch::{Device, RRGraph, RRKind, RRNode, RRNodeData};
use pfdbg_util::id::EntityId;
use pfdbg_util::FxHashMap;
use std::collections::BinaryHeap;

/// Router parameters.
#[derive(Debug, Clone, Copy)]
pub struct RouteConfig {
    /// Maximum PathFinder iterations before giving up.
    pub max_iterations: usize,
    /// Initial present-congestion factor.
    pub pres_fac: f32,
    /// Multiplier applied to `pres_fac` each iteration.
    pub pres_mult: f32,
    /// History cost increment per overused node per iteration.
    pub hist_fac: f32,
    /// A* weight on the Manhattan-distance heuristic (1.0 = admissible).
    pub astar: f32,
    /// Ignored: every net is routed serially. A speculative parallel
    /// PathFinder once used this; on diffeq1 with 2 hardware threads it
    /// took 1233 ms against 711 ms serial (6 of 2040 speculative routes
    /// survived their commit check), so it was deleted. The field stays
    /// only because the benchmark harness still sets it; drop it with
    /// the next change to that harness.
    pub threads: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            max_iterations: 40,
            pres_fac: 0.5,
            pres_mult: 1.8,
            hist_fac: 0.4,
            astar: 1.0,
            threads: 0,
        }
    }
}

/// The routed tree of one alternative source of one net.
#[derive(Debug, Clone)]
pub struct BranchRoute {
    /// Alternative index (into `PRNet::sources`).
    pub alternative: usize,
    /// Directed wiring: `(from, to)` RRG node pairs, one per switch that
    /// must be turned on when this alternative is selected.
    pub edges: Vec<(RRNode, RRNode)>,
}

/// One net's routing.
#[derive(Debug, Clone)]
pub struct NetRoute {
    /// Net index into `PackedDesign::nets`.
    pub net: usize,
    /// One routed tree per alternative source.
    pub branches: Vec<BranchRoute>,
    /// Chosen input pin per sink block (keyed by sink block index).
    pub sink_pins: FxHashMap<usize, RRNode>,
}

/// The complete routing result.
#[derive(Debug)]
pub struct RoutedDesign {
    /// Per-net routes (same order as `PackedDesign::nets`).
    pub routes: Vec<NetRoute>,
    /// PathFinder iterations used.
    pub iterations: usize,
    /// Distinct wire (channel) nodes used, summed over nets (a net's
    /// internal sharing counts once — the paper's "cables" metric).
    pub wires_used: usize,
    /// Whether routing converged without overuse.
    pub success: bool,
}

impl RoutedDesign {
    /// Total number of switch configurations (directed edges) across all
    /// nets and alternatives.
    pub fn total_switches(&self) -> usize {
        self.routes.iter().map(|r| r.branches.iter().map(|b| b.edges.len()).sum::<usize>()).sum()
    }
}

/// A search frontier entry: a min-heap on `(priority, node)`, packed
/// into one integer `key` (priority bits high, node low) because
/// non-negative `f32`s order like their bit patterns, and every priority
/// is non-negative (`route` rejects cost factors that could break that).
struct HeapItem {
    key: u64,
    cost: f32,
}

impl HeapItem {
    fn new(priority: f32, cost: f32, node: RRNode) -> HeapItem {
        debug_assert!(priority.is_sign_positive() && !priority.is_nan());
        HeapItem { key: (u64::from(priority.to_bits()) << 32) | u64::from(node.0), cost }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key) // reversed: BinaryHeap is a max-heap
    }
}

/// Scratch state reused by every connection search: A* arrays stamped
/// with `cur_epoch` (one epoch per connection, so nothing is cleared
/// between searches), a goal mark stamped the same way, a net mark
/// stamped once per net, and the tree, goal, sink and heap buffers.
struct NetScratch {
    cost_to: Vec<f32>,
    parent: Vec<RRNode>,
    epoch: Vec<u32>,
    cur_epoch: u32,
    goal_mark: Vec<u32>,
    /// `net_mark[i] == net_stamp` iff node `i` is already used by the
    /// net being routed.
    net_mark: Vec<u32>,
    net_stamp: u32,
    tree: Vec<RRNode>,
    goals: Vec<RRNode>,
    sinks: Vec<usize>,
    heap: BinaryHeap<HeapItem>,
}

impl NetScratch {
    fn new(n_nodes: usize) -> NetScratch {
        NetScratch {
            cost_to: vec![f32::INFINITY; n_nodes],
            parent: vec![RRNode(u32::MAX); n_nodes],
            epoch: vec![0; n_nodes],
            cur_epoch: 0,
            goal_mark: vec![0; n_nodes],
            net_mark: vec![0; n_nodes],
            net_stamp: 0,
            tree: Vec::new(),
            goals: Vec::new(),
            sinks: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

fn base_cost(kind: RRKind) -> f32 {
    match kind {
        RRKind::ChanX(_) | RRKind::ChanY(_) => 1.0,
        RRKind::IPin(_) => 0.95,
        RRKind::OPin(_) => 1.0,
    }
}

/// Route net `ni` against the congestion state: entering node `i` costs
/// `hist_cost[i]` if the net already uses it, else `step_cost[i]`. The
/// nodes the route occupies go to `used` (each once); updating the
/// congestion state is the caller's job. Heap ties break on node id, so
/// the search is fully deterministic given that state. Returns the
/// route and whether every sink was reached.
#[allow(clippy::too_many_arguments)]
fn route_one_net(
    design: &PackedDesign,
    placement: &Placement,
    rrg: &RRGraph,
    cfg: &RouteConfig,
    src_pins: &[RRNode],
    hist_cost: &[f32],
    step_cost: &[f32],
    ni: usize,
    used: &mut Vec<RRNode>,
    scratch: &mut NetScratch,
) -> Result<(NetRoute, bool), String> {
    let NetScratch {
        cost_to,
        parent,
        epoch,
        cur_epoch,
        goal_mark,
        net_mark,
        net_stamp,
        tree,
        goals,
        sinks,
        heap,
    } = scratch;
    let net = &design.nets[ni];
    let mut net_route = NetRoute {
        net: ni,
        branches: Vec::with_capacity(net.sources.len()),
        sink_pins: FxHashMap::default(),
    };
    *net_stamp += 1;
    let stamp = *net_stamp;
    let mut ok = true;

    for (alt, &src) in src_pins.iter().enumerate() {
        // The tree of this alternative starts at its opin.
        tree.clear();
        tree.push(src);
        if net_mark[src.index()] != stamp {
            net_mark[src.index()] = stamp;
            used.push(src);
        }
        let mut edges: Vec<(RRNode, RRNode)> = Vec::new();

        // Sinks, nearest first.
        sinks.clone_from(&net.sinks);
        let src_data = rrg.node(src);
        sinks.sort_by_key(|&b| {
            let l = placement.locs[b];
            (l.x as i32 - src_data.x as i32).abs() + (l.y as i32 - src_data.y as i32).abs()
        });

        for &sink_block in sinks.iter() {
            let loc = placement.locs[sink_block];
            let (sx, sy) = (loc.x as usize, loc.y as usize);
            // Goal pins: the already chosen pin for this sink, or
            // any input pin of the tile (pads use their sub pin).
            goals.clear();
            if let Some(&p) = net_route.sink_pins.get(&sink_block) {
                goals.push(p);
            } else {
                match design.blocks[sink_block] {
                    crate::pack::Block::Clb(_) => {
                        goals.extend((0..rrg.n_ipins(sx, sy)).filter_map(|p| rrg.ipin(sx, sy, p)))
                    }
                    _ => goals.extend(rrg.ipin(sx, sy, loc.sub as usize)),
                }
            }
            if goals.is_empty() {
                return Err(format!("sink block {sink_block} has no input pins"));
            }

            // Dijkstra/A* from the whole current tree.
            *cur_epoch += 1;
            let cur = *cur_epoch;
            for &g in goals.iter() {
                goal_mark[g.index()] = cur;
            }
            // A* heuristic: `RRGraph::distance` to the first goal, with
            // the goal's tile hoisted out of the search.
            let goal = *rrg.node(goals[0]);
            let h = |n: &RRNodeData| {
                cfg.astar * (n.x.abs_diff(goal.x) as u32 + n.y.abs_diff(goal.y) as u32) as f32
            };
            heap.clear();
            for &t in tree.iter() {
                cost_to[t.index()] = 0.0;
                epoch[t.index()] = cur;
                parent[t.index()] = t;
                heap.push(HeapItem::new(h(rrg.node(t)), 0.0, t));
            }
            let mut found: Option<RRNode> = None;
            while let Some(HeapItem { key, cost }) = heap.pop() {
                let node = RRNode(key as u32);
                if epoch[node.index()] == cur && cost > cost_to[node.index()] {
                    continue;
                }
                if goal_mark[node.index()] == cur {
                    found = Some(node);
                    break;
                }
                for (_, next) in rrg.out_edges(node) {
                    let idx = next.index();
                    let nd = rrg.node(next);
                    // IPins other than goals are dead ends for
                    // this connection; skip cheaply.
                    if matches!(nd.kind, RRKind::IPin(_)) && goal_mark[idx] != cur {
                        continue;
                    }
                    if matches!(nd.kind, RRKind::OPin(_)) {
                        continue; // cannot route *through* an opin
                    }
                    // Present congestion: the net's own nodes are
                    // free (sharing within the net).
                    let c =
                        cost + if net_mark[idx] == stamp { hist_cost[idx] } else { step_cost[idx] };
                    if epoch[idx] != cur || c < cost_to[idx] {
                        epoch[idx] = cur;
                        cost_to[idx] = c;
                        parent[idx] = node;
                        heap.push(HeapItem::new(c + h(nd), c, next));
                    }
                }
            }
            let Some(hit) = found else {
                ok = false;
                continue;
            };
            // Backtrace into the tree. Tree nodes are their own parents
            // and never relaxed (every step costs > 0), so every node
            // after the first is new to the tree.
            let first = edges.len();
            let mut node = hit;
            while parent[node.index()] != node {
                let from = parent[node.index()];
                edges.push((from, node));
                tree.push(node);
                if net_mark[node.index()] != stamp {
                    net_mark[node.index()] = stamp;
                    used.push(node);
                }
                node = from;
            }
            edges[first..].reverse();
            net_route.sink_pins.insert(sink_block, hit);
        }
        net_route.branches.push(BranchRoute { alternative: alt, edges });
    }
    Ok((net_route, ok))
}

/// Route a placed design. Pin assignment: the driver uses the output pin
/// of its BLE (or pad); each sink may use any input pin of its tile, the
/// router picks one under congestion. Nets are routed one after another
/// in a fixed order, largest fanout first.
pub fn route(
    design: &PackedDesign,
    placement: &Placement,
    _dev: &Device,
    rrg: &RRGraph,
    cfg: &RouteConfig,
) -> Result<RoutedDesign, String> {
    // Heap keys order priorities by their bit patterns, which holds only
    // while every cost and heuristic term is non-negative.
    let factors = [cfg.pres_fac, cfg.pres_mult, cfg.hist_fac, cfg.astar];
    if !factors.iter().all(|f| f.is_finite() && f.is_sign_positive()) {
        return Err(format!("router cost factors must be finite and non-negative: {factors:?}"));
    }
    let n_nodes = rrg.n_nodes();
    let n_nets = design.nets.len();

    // Source opin per (net, alternative); sink tiles per net.
    let mut source_pins: Vec<Vec<RRNode>> = Vec::with_capacity(n_nets);
    for net in &design.nets {
        let mut pins = Vec::with_capacity(net.sources.len());
        for s in &net.sources {
            let loc = placement.locs[s.block];
            let pin_idx = match design.blocks[s.block] {
                crate::pack::Block::Clb(_) => s.ble,
                _ => loc.sub as usize,
            };
            let opin = rrg
                .opin(loc.x as usize, loc.y as usize, pin_idx)
                .ok_or_else(|| format!("no opin {pin_idx} at ({},{})", loc.x, loc.y))?;
            pins.push(opin);
        }
        source_pins.push(pins);
    }

    // Congestion state. OPIN nodes are exempt from occupancy: the router
    // never routes *through* an output pin, so the only way two nets meet
    // at one opin is when they carry the same physical signal (an
    // observed net tapped by both its ordinary fanout net and a tunable
    // trace net) — legitimate sharing, not a conflict.
    let is_opin: Vec<bool> =
        (0..n_nodes).map(|i| matches!(rrg.node(RRNode(i as u32)).kind, RRKind::OPin(_))).collect();
    let mut occ = vec![0u16; n_nodes]; // nets using each node
    let mut hist = vec![0f32; n_nodes];
    let mut pres_fac = cfg.pres_fac;
    // The PathFinder node cost `base × (1 + hist) × (1 + pres_fac × over)`
    // with `over = occ` (capacity 1; a net's own nodes have `over = 0`),
    // kept as its two products so a search reads one number per edge:
    // `hist_cost = base × (1 + hist)` and `step_cost = hist_cost × (1 +
    // pres_fac × occ)`. Both are updated wherever their inputs change.
    let base = |idx: usize| base_cost(rrg.node(RRNode(idx as u32)).kind);
    let mut hist_cost: Vec<f32> = (0..n_nodes).map(base).collect();
    let mut step_cost = vec![0f32; n_nodes];

    // Per-net list of used nodes, each once.
    let mut used: Vec<Vec<RRNode>> = vec![Vec::new(); n_nets];
    let mut routes: Vec<Option<NetRoute>> = (0..n_nets).map(|_| None).collect();
    let mut scratch = NetScratch::new(n_nodes);

    // Route nets, largest fanout first (harder nets earlier).
    let mut order: Vec<usize> = (0..n_nets).collect();
    order.sort_by_key(|&ni| {
        std::cmp::Reverse(design.nets[ni].sinks.len() * design.nets[ni].sources.len())
    });

    let mut converged = false;
    let mut iterations = 0;
    for iter in 0..cfg.max_iterations {
        iterations = iter + 1;
        // Rip up everything.
        used.iter_mut().for_each(Vec::clear);
        occ.fill(0);
        step_cost.copy_from_slice(&hist_cost);

        let mut all_ok = true;
        for &ni in &order {
            let (net_route, ok) = route_one_net(
                design,
                placement,
                rrg,
                cfg,
                &source_pins[ni],
                &hist_cost,
                &step_cost,
                ni,
                &mut used[ni],
                &mut scratch,
            )?;
            for &n in &used[ni] {
                let i = n.index();
                if !is_opin[i] {
                    occ[i] += 1;
                    step_cost[i] = hist_cost[i] * (1.0 + pres_fac * occ[i] as f32);
                }
            }
            all_ok &= ok;
            routes[ni] = Some(net_route);
        }

        // Check for overuse.
        let mut overused = 0usize;
        for idx in 0..n_nodes {
            if occ[idx] > 1 {
                overused += 1;
                hist[idx] += cfg.hist_fac * (occ[idx] - 1) as f32;
                hist_cost[idx] = base(idx) * (1.0 + hist[idx]);
            }
        }
        // Per-iteration congestion telemetry: total overflow events
        // across all iterations plus the latest iteration's residue.
        pfdbg_obs::counter_add("route.iterations", 1);
        pfdbg_obs::counter_add("route.overflow", overused as u64);
        pfdbg_obs::gauge_set("route.overused_last", overused as f64);
        if overused == 0 && all_ok {
            converged = true;
            break;
        }
        pres_fac *= cfg.pres_mult;
    }

    let wires_used: usize = used
        .iter()
        .map(|set| {
            set.iter()
                .filter(|&&n| matches!(rrg.node(n).kind, RRKind::ChanX(_) | RRKind::ChanY(_)))
                .count()
        })
        .sum();

    let routes: Vec<NetRoute> =
        routes.into_iter().map(|r| r.expect("all nets attempted")).collect();

    Ok(RoutedDesign { routes, iterations, wires_used, success: converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{Block, PRNet, PackedDesign, SourceRef};
    use crate::place::{place, PlaceConfig};
    use pfdbg_arch::{build_rrg, ArchSpec, Device};
    use pfdbg_util::FxHashSet;

    fn route_design(design: &PackedDesign, clb_side: usize) -> (RoutedDesign, Device) {
        let dev =
            Device::new(ArchSpec { channel_width: 10, ..Default::default() }, clb_side, clb_side);
        let rrg = build_rrg(&dev);
        let placement = place(design, &dev, &PlaceConfig::default()).unwrap();
        let routed = route(design, &placement, &dev, &rrg, &RouteConfig::default()).unwrap();
        if routed.success {
            assert_branches_are_trees(design, &placement, &rrg, &routed);
        }
        (routed, dev)
    }

    fn simple_design(n_clb: usize, nets: Vec<PRNet>) -> PackedDesign {
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..n_clb {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        PackedDesign { blocks, clusters, nets, n_tcons: 0 }
    }

    /// Every branch of every net is a tree rooted at its alternative's
    /// source opin that reaches each sink's chosen pin: no node has two
    /// parents, and walking parents from any node ends at the root.
    fn assert_branches_are_trees(
        design: &PackedDesign,
        placement: &Placement,
        rrg: &RRGraph,
        routed: &RoutedDesign,
    ) {
        for nr in &routed.routes {
            for br in &nr.branches {
                let s = &design.nets[nr.net].sources[br.alternative];
                let loc = placement.locs[s.block];
                let pin = match design.blocks[s.block] {
                    Block::Clb(_) => s.ble,
                    _ => loc.sub as usize,
                };
                let root = rrg.opin(loc.x as usize, loc.y as usize, pin).unwrap();
                let mut parent: FxHashMap<RRNode, RRNode> = FxHashMap::default();
                for &(from, to) in &br.edges {
                    assert_ne!(to, root, "net {}: an edge enters the source", nr.net);
                    assert!(
                        parent.insert(to, from).is_none(),
                        "net {}: {to:?} has two parents",
                        nr.net
                    );
                }
                for &start in parent.keys() {
                    let mut node = start;
                    for _ in 0..=parent.len() {
                        if node == root {
                            break;
                        }
                        node = *parent.get(&node).unwrap_or_else(|| {
                            panic!("net {}: {node:?} is cut off from the source", nr.net)
                        });
                    }
                    assert_eq!(node, root, "net {}: a cycle through {start:?}", nr.net);
                }
                for pin in nr.sink_pins.values() {
                    assert!(parent.contains_key(pin), "net {}: sink pin {pin:?} unreached", nr.net);
                }
            }
        }
    }

    #[test]
    fn routes_point_to_point() {
        let d = simple_design(
            2,
            vec![PRNet {
                name: "n".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![1],
                tunable: false,
            }],
        );
        let (r, _) = route_design(&d, 3);
        assert!(r.success, "routing failed after {} iterations", r.iterations);
        assert_eq!(r.routes.len(), 1);
        assert!(!r.routes[0].branches[0].edges.is_empty());
        assert!(r.wires_used > 0);
    }

    #[test]
    fn multi_sink_net_builds_tree() {
        let d = simple_design(
            4,
            vec![PRNet {
                name: "fanout".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![1, 2, 3],
                tunable: false,
            }],
        );
        let (r, _) = route_design(&d, 3);
        assert!(r.success);
        assert_eq!(r.routes[0].sink_pins.len(), 3);
    }

    #[test]
    fn many_nets_negotiate_congestion() {
        // All-to-all-ish traffic on a small device forces negotiation.
        let mut nets = Vec::new();
        for i in 0..8usize {
            nets.push(PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: i, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![(i + 3) % 8, (i + 5) % 8],
                tunable: false,
            });
        }
        let d = simple_design(8, nets);
        let (r, _) = route_design(&d, 3);
        assert!(r.success, "congestion never resolved");
        // No wire used by two different nets (checked via per-net sets
        // having disjoint union sizes vs occupancy — recompute here).
        let mut seen: FxHashMap<RRNode, usize> = FxHashMap::default();
        for nr in &r.routes {
            let mut mine: FxHashSet<RRNode> = FxHashSet::default();
            for b in &nr.branches {
                for &(a, bb) in &b.edges {
                    mine.insert(a);
                    mine.insert(bb);
                }
            }
            for n in mine {
                if let Some(&other) = seen.get(&n) {
                    panic!("node {n:?} shared by nets {other} and {}", nr.net);
                }
                seen.insert(n, nr.net);
            }
        }
    }

    #[test]
    fn tunable_net_alternatives_share_and_converge() {
        let d = PackedDesign {
            blocks: vec![Block::Clb(0), Block::Clb(1), Block::Clb(2)],
            clusters: vec![Default::default(), Default::default(), Default::default()],
            nets: vec![PRNet {
                name: "tn".into(),
                sources: vec![SourceRef { block: 0, ble: 0 }, SourceRef { block: 1, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![2],
                tunable: true,
            }],
            n_tcons: 1,
        };
        let (r, _) = route_design(&d, 3);
        assert!(r.success);
        let nr = &r.routes[0];
        assert_eq!(nr.branches.len(), 2, "one tree per alternative");
        // Both alternatives terminate on the same sink pin.
        let pin = nr.sink_pins[&2];
        for b in &nr.branches {
            let last_targets: FxHashSet<RRNode> = b.edges.iter().map(|&(_, t)| t).collect();
            assert!(last_targets.contains(&pin), "alternative misses shared pin");
        }
    }

    #[test]
    fn unroutable_design_reports_failure() {
        // Zero-ish channel width via a device so tiny that many nets
        // can't fit: 1x1 CLB grid, channel width 2, with 2 pads fighting.
        let dev = Device::new(
            ArchSpec { channel_width: 2, fc_in: 1.0, fc_out: 1.0, ..Default::default() },
            1,
            1,
        );
        let rrg = build_rrg(&dev);
        let mut nets = Vec::new();
        // 6 distinct nets from one CLB's 4 opins — more signals than the
        // two tracks around one tile can carry to distant pads.
        let mut blocks = vec![Block::Clb(0)];
        for i in 0..6 {
            blocks.push(Block::OutPad(format!("o{i}")));
            nets.push(PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: 0, ble: i % 4 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![i + 1],
                tunable: false,
            });
        }
        let d = PackedDesign { blocks, clusters: vec![Default::default()], nets, n_tcons: 0 };
        let placement = place(&d, &dev, &PlaceConfig::default()).unwrap();
        let cfg = RouteConfig { max_iterations: 6, ..Default::default() };
        let r = route(&d, &placement, &dev, &rrg, &cfg).unwrap();
        assert!(!r.success, "expected failure on starved device");
    }

    #[test]
    fn negative_cost_factors_are_rejected() {
        let d = simple_design(2, vec![]);
        let dev = Device::new(ArchSpec::default(), 3, 3);
        let rrg = build_rrg(&dev);
        let placement = place(&d, &dev, &PlaceConfig::default()).unwrap();
        for cfg in [
            RouteConfig { astar: -1.0, ..Default::default() },
            RouteConfig { hist_fac: -0.0, ..Default::default() },
            RouteConfig { pres_fac: f32::NAN, ..Default::default() },
        ] {
            assert!(route(&d, &placement, &dev, &rrg, &cfg).is_err(), "{cfg:?}");
        }
    }
}

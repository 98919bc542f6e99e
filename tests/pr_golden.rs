//! Golden pins for place & route: the exact placement and routing the
//! flow produces on a few fixed designs. Any change to the annealer or
//! the router that is meant to be a pure speed-up must leave every
//! value here untouched; a change that alters the output on purpose
//! re-records them and says why.

use parameterized_fpga_debug::arch::{build_rrg, ArchSpec, Device};
use parameterized_fpga_debug::circuits::{build, generate, GenParams};
use parameterized_fpga_debug::core::{prepare_instrumented, InstrumentConfig, PAPER_K};
use parameterized_fpga_debug::map::map_parameterized_network_with;
use parameterized_fpga_debug::netlist::{Network, NodeId};
use parameterized_fpga_debug::pr::{
    place, route, tpar, Block, PRNet, PackedDesign, PlaceConfig, Placement, RouteConfig,
    RoutedDesign, SourceRef, TparConfig,
};

/// FNV-1a over a stream of words: stable across toolchains, unlike the
/// std hashers.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Fnv {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

/// Everything a pure speed-up must not change.
#[derive(Debug, PartialEq)]
struct Pin {
    locs: u64,
    cost_bits: u64,
    moves: usize,
    iterations: usize,
    wires_used: usize,
    routes: u64,
}

fn pin(placement: &Placement, routed: &RoutedDesign) -> Pin {
    let locs = placement
        .locs
        .iter()
        .fold(Fnv::new(), |h, l| h.word(l.x as u64).word(l.y as u64).word(l.sub as u64));
    let mut routes = Fnv::new();
    for nr in &routed.routes {
        routes = routes.word(nr.net as u64).word(nr.branches.len() as u64);
        for b in &nr.branches {
            routes = routes.word(b.alternative as u64).word(b.edges.len() as u64);
            for &(from, to) in &b.edges {
                routes = routes.word(from.0 as u64).word(to.0 as u64);
            }
        }
        let mut pins: Vec<(usize, u32)> = nr.sink_pins.iter().map(|(&b, p)| (b, p.0)).collect();
        pins.sort_unstable();
        routes = routes.word(pins.len() as u64);
        for (b, p) in pins {
            routes = routes.word(b as u64).word(p as u64);
        }
    }
    assert!(routed.success, "golden designs route at their starting width");
    Pin {
        locs: locs.0,
        cost_bits: placement.cost.to_bits(),
        moves: placement.moves,
        iterations: routed.iterations,
        wires_used: routed.wires_used,
        routes: routes.0,
    }
}

/// Instrument `design`, map it with the parameterized mapper and run the
/// whole TPaR flow at its default settings.
fn flow_pin(design: &Network, icfg: &InstrumentConfig) -> Pin {
    let (_, _, inst) = prepare_instrumented(design, icfg, PAPER_K).unwrap();
    let mp = map_parameterized_network_with(&inst.network, PAPER_K, 1).unwrap();
    let r = tpar(&mp.network, &mp.kinds, &TparConfig::default()).unwrap();
    pin(&r.placement, &r.routed)
}

#[test]
fn stereov_place_and_route_is_pinned() {
    let got = flow_pin(&build("stereov.").unwrap(), &InstrumentConfig::paper());
    assert_eq!(
        got,
        Pin {
            locs: 851411799893033775,
            cost_bits: 4647892683882181847,
            moves: 82485,
            iterations: 9,
            wires_used: 1095,
            routes: 15750891553059700036,
        }
    );
}

#[test]
fn generated_design_place_and_route_is_pinned() {
    let design = generate(&GenParams {
        n_inputs: 8,
        n_outputs: 4,
        n_gates: 60,
        depth: 5,
        n_latches: 3,
        seed: 0x5EED,
    });
    let icfg = InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 };
    let got = flow_pin(&design, &icfg);
    assert_eq!(
        got,
        Pin {
            locs: 7423931795634556385,
            cost_bits: 4634424833683469893,
            moves: 27826,
            iterations: 1,
            wires_used: 112,
            routes: 7875303166488723419,
        }
    );
}

/// All-to-all traffic on a 3x3 device with three tracks per channel:
/// the first PathFinder iteration overuses wires and the second
/// negotiates them apart.
#[test]
fn congested_design_place_and_route_is_pinned() {
    let nets: Vec<PRNet> = (0..8usize)
        .map(|i| PRNet {
            name: format!("n{i}"),
            sources: vec![SourceRef { block: i, ble: 0 }],
            source_nodes: vec![],
            driver: NodeId(0),
            sinks: vec![(i + 3) % 8, (i + 5) % 8],
            tunable: false,
        })
        .collect();
    let design = PackedDesign {
        blocks: (0..8).map(Block::Clb).collect(),
        clusters: (0..8).map(|_| Default::default()).collect(),
        nets,
        n_tcons: 0,
    };
    let dev = Device::new(ArchSpec { channel_width: 3, ..Default::default() }, 3, 3);
    let rrg = build_rrg(&dev);
    let placement = place(&design, &dev, &PlaceConfig::default()).unwrap();
    let routed = route(&design, &placement, &dev, &rrg, &RouteConfig::default()).unwrap();
    assert_eq!(
        pin(&placement, &routed),
        Pin {
            locs: 776649711345760965,
            cost_bits: 4625569715358645669,
            moves: 7296,
            iterations: 2,
            wires_used: 19,
            routes: 5686482821775549788,
        }
    );
}

//! Seeded request streams. The server receives only these lines; every
//! line is a pure function of the seed and the observable-signal table
//! of the design, so one seed gives a byte-identical stream.

use crate::util::{Rng, Zipf};

/// Observable signals per trace port (deduplicated, protocol-safe
/// names only). Picking one signal per port for every port always
/// plans: each port is claimed once, and the resulting parameter
/// vector depends on the signal set alone.
#[derive(Debug, Clone)]
pub struct PortSignals(pub Vec<Vec<String>>);

impl PortSignals {
    pub fn of(inst: &pfdbg_core::Instrumented) -> PortSignals {
        let safe = |s: &str| !s.is_empty() && !s.contains([',', '"', '\\']) && s.is_ascii();
        PortSignals(
            inst.ports
                .iter()
                .map(|p| {
                    let mut v: Vec<String> =
                        p.signals.iter().filter(|s| safe(s)).cloned().collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .filter(|v| !v.is_empty())
                .collect(),
        )
    }

    /// One signal per port, drawn uniformly, comma-joined.
    pub fn draw(&self, rng: &mut Rng) -> String {
        self.0.iter().map(|sigs| sigs[rng.below(sigs.len())].as_str()).collect::<Vec<_>>().join(",")
    }
}

/// The interactive engineer: an endless closed-loop sequence of
/// `select` requests by signal name on one session, each a fresh
/// seeded signal set.
pub struct InteractiveStream {
    rng: Rng,
    ports: PortSignals,
    session: String,
    next: u64,
}

impl InteractiveStream {
    pub fn new(seed: u64, ports: PortSignals, session: &str) -> InteractiveStream {
        InteractiveStream { rng: Rng::new(seed, 0x1A7E), ports, session: session.into(), next: 0 }
    }
}

impl Iterator for InteractiveStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let signals = self.ports.draw(&mut self.rng);
        let id = self.next;
        self.next += 1;
        Some(format!(
            "{{\"op\":\"select\",\"session\":\"{}\",\"signals\":\"{signals}\",\"id\":\"{id}\"}}",
            self.session
        ))
    }
}

/// Shape of the fleet's request mix.
#[derive(Debug, Clone, Copy)]
pub struct FleetMix {
    pub sessions: usize,
    /// Distinct signal sets in the shared pool.
    pub pool: usize,
    /// Zipf exponent over the pool.
    pub zipf_s: f64,
    /// Share of requests that are `scrub`s.
    pub scrub_share: f64,
}

/// One fleet request.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReq {
    pub session: usize,
    pub scrub: bool,
    pub line: String,
}

/// Session `i`'s name.
pub fn fleet_session(i: usize) -> String {
    format!("f{i}")
}

/// The fleet's endless request stream: sessions uniform over the fleet,
/// signal sets Zipf-distributed over a seeded pool (so most selects
/// repeat a vector another session already specialized), and a fixed
/// share of on-demand scrubs.
pub struct FleetStream {
    pool: Vec<String>,
    zipf: Zipf,
    mix: FleetMix,
    rng: Rng,
    next: u64,
}

impl FleetStream {
    pub fn new(seed: u64, ports: &PortSignals, mix: FleetMix) -> FleetStream {
        let mut pool_rng = Rng::new(seed, 0xF1EE);
        let pool = (0..mix.pool).map(|_| ports.draw(&mut pool_rng)).collect();
        FleetStream {
            pool,
            zipf: Zipf::new(mix.pool, mix.zipf_s),
            mix,
            rng: Rng::new(seed, 0x5E55),
            next: 0,
        }
    }

    /// The pool's signal set at a Zipf-drawn rank.
    pub fn draw_set(&self, rng: &mut Rng) -> String {
        self.pool[self.zipf.sample(rng)].clone()
    }
}

impl Iterator for FleetStream {
    type Item = FleetReq;

    fn next(&mut self) -> Option<FleetReq> {
        let id = self.next;
        self.next += 1;
        let session = self.rng.below(self.mix.sessions);
        let name = fleet_session(session);
        let scrub = self.rng.unit() < self.mix.scrub_share;
        let line = if scrub {
            format!("{{\"op\":\"scrub\",\"session\":\"{name}\",\"id\":\"{id}\"}}")
        } else {
            let signals = &self.pool[self.zipf.sample(&mut self.rng)];
            format!(
                "{{\"op\":\"select\",\"session\":\"{name}\",\"signals\":\"{signals}\",\"id\":\"{id}\"}}"
            )
        };
        Some(FleetReq { session, scrub, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports() -> PortSignals {
        PortSignals(
            (0..4).map(|p| (0..9).map(|s| format!("n{p}_{s}")).collect()).collect::<Vec<_>>(),
        )
    }

    const MIX: FleetMix = FleetMix { sessions: 50, pool: 32, zipf_s: 1.0, scrub_share: 0.05 };

    fn fleet(seed: u64, n: usize) -> Vec<FleetReq> {
        FleetStream::new(seed, &ports(), MIX).take(n).collect()
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream() {
        let a: Vec<String> = InteractiveStream::new(11, ports(), "eng").take(500).collect();
        let b: Vec<String> = InteractiveStream::new(11, ports(), "eng").take(500).collect();
        assert_eq!(a.concat().as_bytes(), b.concat().as_bytes());
        let c: Vec<String> = InteractiveStream::new(12, ports(), "eng").take(500).collect();
        assert_ne!(a, c);

        let (f, g) = (fleet(11, 2000), fleet(11, 2000));
        assert_eq!(f, g);
        let bytes = |v: &[FleetReq]| v.iter().map(|r| r.line.as_str()).collect::<String>();
        assert_eq!(bytes(&f).as_bytes(), bytes(&g).as_bytes());
        assert_ne!(bytes(&f), bytes(&fleet(12, 2000)));
    }

    #[test]
    fn every_interactive_turn_names_one_signal_per_port() {
        for line in InteractiveStream::new(3, ports(), "eng").take(100) {
            let ev = &pfdbg_obs::parse_jsonl(&line).unwrap()[0];
            let sigs: Vec<&str> = ev.str("signals").unwrap().split(',').collect();
            assert_eq!(sigs.len(), 4);
            for (p, s) in sigs.iter().enumerate() {
                assert!(s.starts_with(&format!("n{p}_")), "{s} is not on port {p}");
            }
        }
    }

    #[test]
    fn fleet_mix_has_scrubs_and_repeated_signal_sets() {
        let reqs = fleet(5, 4000);
        let scrubs = reqs.iter().filter(|r| r.scrub).count();
        assert!((100..=300).contains(&scrubs), "{scrubs} scrubs in 4000");
        let mut sets: Vec<String> = reqs
            .iter()
            .filter(|r| !r.scrub)
            .map(|r| pfdbg_obs::parse_jsonl(&r.line).unwrap()[0].str("signals").unwrap().into())
            .collect();
        let n = sets.len();
        sets.sort_unstable();
        sets.dedup();
        assert!(sets.len() <= MIX.pool && sets.len() * 10 < n);
    }
}

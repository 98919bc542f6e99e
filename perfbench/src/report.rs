//! The metric catalogue, the result line, and the in-memory span
//! tracer of the traced mode.

use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("sim_reconfig_us_per_turn", "us"),
    ("route_wires", "count"),
    ("clbs", "count"),
];

/// Per-layer metrics: every traced run reports all of them, each with
/// the end-to-end metric and workload it is expected to move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("map.tconmap_ms", "ms", "compile/p50_ms (control: ~0.2% of the flow)"),
    ("pr.pack_ms", "ms", "compile/p50_ms, interactive/setup_s"),
    ("arch.rrg_ms", "ms", "compile/p50_ms"),
    ("pr.place_ms", "ms", "compile/p50_ms, interactive/setup_s"),
    ("pr.route_ms", "ms", "compile/p50_ms, compile/cpu (provenance)"),
    ("pr.route_1t_ms", "ms", "compile/p50_ms, compile/cpu (provenance)"),
    ("pr.route_iterations", "count", "compile/p50_ms, compile/cpu (provenance)"),
    ("pconf.genbits_ms", "ms", "compile/p50_ms, compile/peak_rss_mb"),
    ("pconf.bdd_nodes", "count", "compile/peak_rss_mb, interactive/p50_ms"),
    ("pconf.tunable_bits", "count", "compile/peak_rss_mb, interactive/p50_ms"),
    ("arch.frames", "count", "compile/peak_rss_mb, interactive/p50_ms"),
    ("serve.select_us", "us", "interactive/p50_ms"),
    ("serve.select_p99_us", "us", "interactive/p99 (provenance)"),
    ("serve.io_us", "us", "interactive/p50_ms"),
    ("serve.plan_us", "us", "interactive/p50_ms"),
    ("core.turn_us", "us", "interactive/p50_ms"),
    ("pconf.specialize_us", "us", "interactive/p50_ms, interactive/cpu (provenance)"),
    ("par.specialize_1t_us", "us", "interactive/p50_ms, interactive/cpu (provenance)"),
    ("pconf.commit_us", "us", "interactive/p50_ms, interactive/sim_reconfig_us_per_turn"),
    ("pconf.frames_per_turn", "count", "interactive/sim_reconfig_us_per_turn"),
    ("pconf.bits_per_turn", "count", "interactive/sim_reconfig_us_per_turn"),
    ("serve.select_hit_us", "us", "fleet/p50_ms, fleet/cpu (provenance)"),
    ("serve.select_miss_us", "us", "fleet/p50_ms, fleet/cpu (provenance)"),
    ("serve.cache_hit_pct", "%", "fleet/p50_ms, fleet/cpu (provenance)"),
    ("serve.inbox_wait_p99_us", "us", "fleet/p99 (provenance), fleet/ok_pct"),
    ("serve.shed", "count", "fleet/p99 (provenance), fleet/ok_pct"),
    ("serve.open_us", "us", "fleet/setup_s"),
    ("store.load_ms", "ms", "fleet/setup_s"),
    ("pconf.scrub_us", "us", "fleet/p99 (provenance), fleet/cpu (provenance)"),
    ("pconf.scrub_repairs", "count", "fleet/p99 (provenance), fleet/cpu (provenance)"),
    ("emu.seu_bits", "count", "fleet/p99 (provenance), fleet/cpu (provenance)"),
    ("pconf.retries_per_turn", "count", "fleet/sim_reconfig_us_per_turn, fleet/ok_pct"),
    ("pconf.degradations", "count", "fleet/sim_reconfig_us_per_turn, fleet/ok_pct"),
    ("pconf.rollbacks", "count", "fleet/sim_reconfig_us_per_turn, fleet/ok_pct"),
    ("store.journal_append_us", "us", "fleet/cpu (provenance), fleet/p99 (provenance)"),
    ("trace.overhead_pct", "%", "every workload: traced p50_ms over untraced p50_ms"),
];

/// The paper's SCG budget per turn, printed beside the specialize
/// layers.
pub const SCG_BUDGET_US: f64 = 50.0;

/// One run's verdict and numbers, rendered as the final stdout line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check that failed, in order; empty means correct.
    pub check_failures: Vec<String>,
    /// Operations attempted and failed (requests, or offline flows).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Seed, design, shapes, rates and build facts of the run.
    pub provenance: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Record an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Fail the run unless it reports exactly the catalogue's metrics,
    /// each a finite number.
    pub fn check_catalogue(&mut self, catalogue: &[(&str, &str)]) {
        for (name, _) in catalogue {
            match self.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.check_failures.push(format!("metric {name} is not finite: {v}")),
                None => self.check_failures.push(format!("metric {name} was not measured")),
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
            .map(|(n, _)| n.clone())
            .collect();
        if !extra.is_empty() {
            self.check_failures.push(format!("metrics outside the catalogue: {extra:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// catalogue metric with its unit, in catalogue order.
    pub fn render(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for (name, unit) in catalogue {
            // A missing or non-finite value has already failed the run
            // (check_catalogue); JSON has no NaN, so print 0 for it.
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The per-layer catalogue as `(name, unit)` pairs.
pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request (or operation) the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; spans are written out once, at exit.
/// Disabled, it keeps nothing. The benchmark keeps its own spans
/// around the calls it makes: switching on `pfdbg_obs` would also
/// switch on every span inside the program and change what is timed.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Call `f` as span `name` of request `req`; returns its result and
    /// its duration in microseconds.
    pub fn timed<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, req, start, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Record a span timed elsewhere (the open-loop generator times a
    /// request between two of its loop iterations).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, req, start_ns: ns(start), end_ns: ns(end) });
        }
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_names_every_metric_with_its_unit() {
        let mut r = RunResult { attempted: 3, ..Default::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.check_catalogue(END_TO_END);
        assert!(r.correct(), "{:?}", r.check_failures);
        let line = r.render(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!(", \"unit\": \"{unit}\"}}")), "{unit}");
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn missing_or_extra_metrics_fail_the_run() {
        let mut r = RunResult::default();
        r.set("p50_ms", f64::NAN);
        r.set("not_a_metric", 1.0);
        r.check_catalogue(END_TO_END);
        assert!(!r.correct());
        assert!(r.render(END_TO_END).starts_with("{\"correct\": false"));
        assert!(r.check_failures.iter().any(|f| f.contains("not finite")));
        assert!(r.check_failures.iter().any(|f| f.contains("outside the catalogue")));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn spans_are_kept_only_while_on() {
        let mut t = Tracer::new(false);
        let (v, dur) = t.timed("layer", 0, || 7);
        assert_eq!(v, 7);
        assert!(dur >= 0.0 && t.spans.is_empty());
        t.set_on(true);
        t.timed("layer", 1, || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert_eq!(t.spans.len(), 1);
        assert!(t.spans[0].end_ns - t.spans[0].start_ns >= 1_000_000);
        assert!(t.to_jsonl().starts_with("{\"name\": \"layer\", \"req\": 1, "));
    }
}

//! End-to-end and per-layer benchmark of the parameterized FPGA
//! debugging stack.
//!
//! ```text
//! perfbench --workload compile|interactive|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`), a run measures its workload end to end and
//! prints every end-to-end metric. Traced (`--trace 1`), it measures
//! the same workload with spans on, runs the layer probes, and prints
//! every per-layer metric. Either way the last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! output check makes `correct` false and the exit code 1.

mod client;
mod compile;
mod design;
mod fleet;
mod interactive;
mod probe;
mod report;
mod stream;
mod util;

use report::{RunResult, Tracer, END_TO_END, PER_LAYER, SCG_BUDGET_US};

/// The seed later performance claims are checked against; never used
/// while tuning the benchmark or a change.
pub const HELD_OUT_SEED: u64 = 7_340_033;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
    };
    let num = |name: &str| -> Result<f64, String> {
        get(name)?.parse::<f64>().map_err(|_| format!("{name} expects a number"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "--seed expects a whole number".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
    })
}

fn provenance_line(args: &Args, result: &RunResult) -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("held_out_seed".into(), HELD_OUT_SEED.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("build_profile".into(), if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ("git_rev".into(), util::git_rev()),
        ("host_threads".into(), util::host_threads().to_string()),
        (
            "icap_model".into(),
            "calibrated to the paper's 176 ms full reconfiguration; not validated against hardware"
                .into(),
        ),
    ];
    fields.extend(result.provenance.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// The traced run's table: each layer metric, its value, and the
/// end-to-end metric and workload it should move.
fn layer_table(result: &RunResult) -> String {
    let mut out = String::from("layer metric                  value        unit   should move\n");
    for (name, unit, moves) in PER_LAYER {
        let v = result.get(name).unwrap_or(f64::NAN);
        out.push_str(&format!("{name:<29} {v:>12.3} {unit:<6} {moves}\n"));
    }
    for name in ["pconf.specialize_us", "par.specialize_1t_us"] {
        let v = result.get(name).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "{name}: {v:.1} us against the paper's {SCG_BUDGET_US} us SCG budget ({})\n",
            if v <= SCG_BUDGET_US { "within" } else { "over" }
        ));
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(false);
    let run = match args.workload.as_str() {
        "compile" => compile::run(&args, &mut result, &mut tracer),
        "interactive" => interactive::run(&args, &mut result, &mut tracer),
        "fleet" => fleet::run(&args, &mut result, &mut tracer),
        other => Err(format!("unknown workload {other:?} (compile, interactive, fleet)")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    let catalogue = if args.trace { report::per_layer_units() } else { END_TO_END.to_vec() };
    result.check_catalogue(&catalogue);
    if args.trace {
        eprint!("{}", layer_table(&result));
        let dir = design::build_dir().join("perfbench-traces");
        let path = dir.join(format!("{}.spans.jsonl", args.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            Ok(()) => {
                eprintln!("perfbench: {} spans written to {}", tracer.spans.len(), path.display())
            }
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for failure in &result.check_failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{}", provenance_line(&args, &result));
    println!("{}", result.render(&catalogue));
    if !result.correct() {
        std::process::exit(1);
    }
}

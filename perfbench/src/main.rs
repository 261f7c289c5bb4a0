//! Readout-serving benchmark for the KLiNQ serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <midcircuit|bulk|mixed> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each run brings up `ShardedReadoutServer` + `WireServer` on loopback,
//! drives it with one writer and one reader thread over one connection,
//! checks every answer bitwise against direct `classify_shots_on`, and
//! prints its metrics, one per line with unit and sample count, then one
//! JSON object as the last line. See `perfbench/README.md`.

mod fixture;
mod gen;
mod layers;
mod run;
mod stats;
mod trace;

use fixture::Workload;
use run::{Args, Outcome};
use stats::Metric;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Environment knobs that inject faults; numbers taken under them would
/// measure the injected faults.
const CHAOS_VARS: [&str; 2] = ["KLINQ_CHAOS_SEED", "KLINQ_CHAOS_CRASH"];

/// End-to-end metrics the JSON line carries, in order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "rss_peak_mib",
    "fidelity",
    "mid_p50_us",
    "mid_p99_us",
    "bulk_shots_per_s",
    "bulk_p99_us",
];

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (midcircuit, bulk or mixed)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn chaos_guard() -> Result<(), String> {
    match CHAOS_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(var) => Err(format!(
            "{var} is set: the run would measure injected faults; unset it"
        )),
        None => Ok(()),
    }
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<36} {:>16.4} {:<9} (n={})",
        m.name, m.value, m.unit, m.samples
    );
}

/// The final line: `correct`, `attempted`, `failed` and the metrics.
fn json_line(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

fn report(args: &Args, o: &Outcome) {
    println!(
        "workload {} seed {} ({}): {} requests attempted, {} failed, answers {}",
        args.workload.name(),
        args.seed,
        run::backend_name(args.workload.spec().backend),
        o.attempted,
        o.failed,
        if o.correct {
            "bitwise equal to direct classify_shots_on"
        } else {
            "DIFFER from direct classify_shots_on"
        }
    );
    for m in o.metrics.iter().chain(&o.extra) {
        print_metric(m);
    }
    for note in &o.notes {
        println!("  note: {note}");
    }
    println!("{}", json_line(o));
}

/// Checks that a run's figures are all present, finite and named as
/// `names` lists.
fn check_names(o: &Outcome, names: &[&str]) -> Result<(), String> {
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
    if got != names {
        return Err(format!("metrics {got:?}, expected {names:?}"));
    }
    match o
        .metrics
        .iter()
        .find(|m| !m.value.is_finite() || m.unit.is_empty())
    {
        Some(m) => Err(format!("{} = {} {:?}", m.name, m.value, m.unit)),
        None => Ok(()),
    }
}

/// Self-test: the oracle fires on a corrupted expectation, and one short
/// run of every workload prints every named metric with its unit — the
/// names `BENCHMARK.json` lists, when run from the repository root.
fn self_test() -> Result<(), String> {
    let short = |workload, trace| Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
    };
    // The warm-up or the window must notice: either way the run fails.
    match run::run(&short(Workload::Midcircuit, false), true) {
        Ok(o) if o.correct => return Err("a corrupted expectation went unnoticed".into()),
        Ok(o) => println!(
            "self-test: corrupted expectation caught ({} requests failed)",
            o.failed
        ),
        Err(e) if e.contains("differs from direct classify_shots_on") => {
            println!("self-test: corrupted expectation caught ({e})");
        }
        Err(e) => return Err(e),
    }
    let listed = std::fs::read_to_string("BENCHMARK.json").ok();
    let mut per_layer: Vec<&'static str> = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = short(workload, trace);
            let o = run::run(&args, false)?;
            report(&args, &o);
            if !o.correct || o.failed > 0 {
                return Err(format!("{} run failed: {:?}", workload.name(), o.notes));
            }
            if trace {
                if per_layer.is_empty() {
                    per_layer = o.metrics.iter().map(|m| m.name).collect();
                }
                check_names(&o, &per_layer)?;
            } else {
                check_names(&o, &END_TO_END)?;
            }
        }
    }
    if let Some(text) = listed {
        for name in END_TO_END.iter().chain(&per_layer) {
            if !text.contains(&format!("\"name\": \"{name}\"")) {
                return Err(format!("BENCHMARK.json does not list {name}"));
            }
        }
    }
    println!("self-test: ok");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = chaos_guard() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", run::host_line());
    if argv.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args, false) {
        Ok(outcome) => {
            report(&args, &outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: served answers differ from direct classify_shots_on");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

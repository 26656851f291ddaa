//! `doc-servebench`: the DoC serving benchmark.
//!
//! ```text
//! doc-servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `coap-hot-udp`, `coap-churn-mem`, `doq-stream-mem`,
//! `paper-sim`. Report lines start with `#`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

mod alloc;
mod common;
mod mem;
mod trace;
mod workloads;

use workloads::{Metric, RunOut};

#[global_allocator]
static GLOBAL: alloc::ThreadCounting = alloc::ThreadCounting;

pub const WORKLOADS: [&str; 4] = [
    "coap-hot-udp",
    "coap-churn-mem",
    "doq-stream-mem",
    "paper-sim",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
            }
            "--trace" => args.trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Build and run `workload` untraced. Set-up is timed in slices before,
/// after and (except on `coap-hot-udp`) between the parts of the
/// measured phases.
pub fn run_workload(workload: &str, seed: u64, seconds: f64) -> RunOut {
    let mut clock = workloads::SetupClock::default();
    let mut out = match workload {
        "coap-hot-udp" => {
            let build = || workloads::setup_hot_udp(seed, seconds);
            let out = workloads::run_hot_udp(clock.slice(build));
            let _ = clock.slice(build);
            out
        }
        "coap-churn-mem" | "doq-stream-mem" => {
            let build = || {
                if workload == "coap-churn-mem" {
                    workloads::setup_churn(seed)
                } else {
                    workloads::setup_doq(seed)
                }
            };
            let sys = clock.slice(build);
            let out = workloads::run_pool(sys, seconds, &mut || {
                let _ = clock.slice(build);
            });
            let _ = clock.slice(build);
            out
        }
        _ => {
            let build = || workloads::setup_sim(seed);
            let sys = clock.slice(build);
            let out = workloads::run_sim(sys, seconds, &mut || {
                let _ = clock.slice(build);
            });
            let _ = clock.slice(build);
            out
        }
    };
    out.metrics
        .push(workloads::m("setup_s", clock.median_s(), "s"));
    out.notes.push(clock.note());
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("doc-servebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        common::fingerprint()
    );
    let out = if args.trace {
        trace::run_traced(&args.workload, args.seed, args.seconds)
    } else {
        run_workload(&args.workload, args.seed, args.seconds)
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for m in out.report.iter().chain(&out.metrics) {
        println!("# {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let t = &out.tally;
    println!(
        "{}",
        json_line(t.correct(), t.attempted.max(1), t.failed(), &out.metrics)
    );
}

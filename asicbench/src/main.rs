//! End-to-end and per-layer benchmark of the ASIC design environment.
//!
//! ```text
//! asicbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! asicbench --workload <name> --steady <runs> [--seed <first>] [--seconds <s>]
//! ```
//!
//! A run prints one JSON line last: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced run (`--trace 1`, which also writes its spans to
//! `out/trace-<workload>-<seed>.json`). `--steady` runs the workload
//! `runs` times on consecutive seeds and prints, per end-to-end metric,
//! the median and the interquartile spread against the metric's bound
//! in `BENCHMARK.json`. See README.md for the workloads and metrics.

mod check;
mod clock;
mod cycle_true;
mod program;
mod serve_mix;
mod signoff;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use program::Res;
use stats::{Metric, Metrics};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["dect_cycle_true", "dect_signoff", "serve_mix"];

/// `(name, unit)` of every end-to-end metric, reported on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric of the traced run. A layer
/// a workload does not call reads 0 there.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("core.capture_ms", "ms"),
    ("core.opt.compile_ms", "ms"),
    ("core.lower.lower_ms", "ms"),
    ("core.opt.tape_len", "count"),
    ("core.lower.kernels_per_cycle", "count"),
    ("core.lower.fused_micros", "count"),
    ("core.step_ns_per_cycle", "ns"),
    ("core.io_ns_per_cycle", "ns"),
    ("core.reset_us", "us"),
    ("core.snapshot.bytes", "bytes"),
    ("core.snapshot.save_us", "us"),
    ("core.snapshot.restore_us", "us"),
    ("core.batch.lane_cycles_per_s", "1/s"),
    ("core.batch.word_ops", "count"),
    ("core.fault.campaign_ms", "ms"),
    ("designs.burst_us", "us"),
    ("hdl.emit_ms", "ms"),
    ("synth.synthesize_ms", "ms"),
    ("synth.gates", "count"),
    ("synth.area_gate_eq", "gate-eq"),
    ("gatesim.step_us", "us"),
    ("gatesim.gate_evals_per_cycle", "count"),
    ("gatesim.events_per_cycle", "count"),
    ("gatesim.bist.golden_ms", "ms"),
    ("gatesim.fault.grade_ms", "ms"),
    ("gatesim.fault.gate_evals", "count"),
    ("gatesim.fault.faults_per_gate_eval", "count"),
    ("gatesim.fault.coverage_pct", "%"),
    ("serve.ber_ms", "ms"),
    ("serve.ber_p90_ms", "ms"),
    ("serve.campaign_ms", "ms"),
    ("serve.campaign_p90_ms", "ms"),
    ("serve.session_run_ms", "ms"),
    ("serve.session_run_p90_ms", "ms"),
    ("serve.session_open_ms", "ms"),
    ("serve.session_open_p90_ms", "ms"),
    ("serve.ping_us", "us"),
    ("serve.ping_p90_us", "us"),
    ("serve.share_pct.ping", "%"),
    ("serve.share_pct.ber", "%"),
    ("serve.share_pct.campaign", "%"),
    ("serve.share_pct.session_open", "%"),
    ("serve.share_pct.session_run", "%"),
    ("serve.share_pct.session_close", "%"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("self_pct.core", "%"),
    ("self_pct.designs", "%"),
    ("self_pct.hdl", "%"),
    ("self_pct.synth", "%"),
    ("self_pct.gatesim", "%"),
    ("self_pct.serve", "%"),
    ("self_pct.bench", "%"),
];

/// Extra per-layer metrics of the traced run itself.
pub const TRACE_METRICS: [(&str, &str); 2] = [("trace.ops_per_s", "1/s"), ("trace.spans", "count")];

/// One run's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// Per-layer values by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn insert(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), v);
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures: outputs that disagreed with their reference.
    pub mismatches: Vec<String>,
    /// `[sim_cycles_per_s, ops_per_s, op_p90_ms, setup_s]`, normalised
    /// to the nominal host speed (see `clock`).
    pub e2e: [f64; 4],
    /// The same from raw wall-clock times.
    pub raw: [f64; 4],
    pub layers: Layers,
}

impl Outcome {
    /// Counts a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("failed: {msg}");
    }

    pub fn check(&mut self, r: check::Check) {
        if let Err(m) = r {
            if self.mismatches.len() < 8 {
                eprintln!("check failed: {m}");
            }
            self.mismatches.push(m);
        }
    }

    /// Sets the end-to-end figures, normalised and raw.
    pub fn e2e(&mut self, norm: [f64; 4], raw: [f64; 4]) {
        self.e2e = norm;
        self.raw = raw;
    }
}

/// The benchmark's own input generator (SplitMix64): inputs depend on
/// `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_da7a_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Worker threads and client connections a workload may use: `nproc`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{val}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{val}`")),
                }
            }
            "--steady" => a.steady = Some(val.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run_once(a: &Args) -> Res<String> {
    let run = Run {
        seed: a.seed,
        seconds: a.seconds,
        tracer: Tracer::new(a.trace),
    };
    let t0 = std::time::Instant::now();
    let out = match a.workload.as_str() {
        "dect_cycle_true" => cycle_true::run(&run)?,
        "dect_signoff" => signoff::run(&run)?,
        _ => serve_mix::run(&run)?,
    };
    let wall = t0.elapsed().as_secs_f64();
    let correct = out.mismatches.is_empty();
    if !correct {
        eprintln!(
            "{} outputs disagreed with their reference",
            out.mismatches.len()
        );
    }
    let mut m = Metrics::default();
    if a.trace {
        let tr = &run.tracer;
        let mut layers = out.layers;
        let self_ns = tr.self_ns_by_layer();
        let total: u64 = self_ns.values().sum();
        for l in trace::LAYERS {
            let ns = self_ns.get(l).copied().unwrap_or(0);
            layers.insert(
                format!("self_pct.{l}"),
                100.0 * ns as f64 / total.max(1) as f64,
            );
        }
        for (name, unit) in PER_LAYER {
            m.put(name, layers.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m.put(TRACE_METRICS[0].0, out.e2e[1], TRACE_METRICS[0].1);
        m.put(
            TRACE_METRICS[1].0,
            tr.span_count() as f64,
            TRACE_METRICS[1].1,
        );
        let path = format!("out/trace-{}-{}.json", a.workload, a.seed);
        std::fs::write(&path, tr.to_json())?;
        eprintln!("trace written to {path} ({wall:.1} s run)");
    } else {
        let raw: Vec<String> = END_TO_END
            .iter()
            .zip(out.raw)
            .map(|((n, _), v)| format!("{n}={v}"))
            .collect();
        eprintln!("raw wall-clock: {}", raw.join(" "));
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let v = if i < 4 {
                out.e2e[i]
            } else {
                stats::peak_rss_mb()
            };
            m.put(name, v, unit);
        }
    }
    Ok(stats::result_line(correct, out.attempted, out.failed, &m))
}

/// Runs the workload `runs` times in child processes and prints the
/// spread of each end-to-end metric against its bound.
fn steady(a: &Args, runs: usize) -> Res<()> {
    let exe = std::env::current_exe()?;
    let bounds = program::metric_bounds(&std::fs::read_to_string("../BENCHMARK.json")?)?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut raw_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for k in 0..runs {
        let seed = a.seed + k as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!(
                "seed {seed}: exit {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )
            .into());
        }
        let r = program::parse_result(line)?;
        if !r.correct {
            return Err(format!("seed {seed}: incorrect outputs").into());
        }
        shares.push(r.failed as f64 / r.attempted as f64);
        eprintln!("seed {seed}: {line}");
        for Metric { name, value, .. } in r.metrics.0 {
            values.entry(name).or_default().push(value);
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        let raw = stderr
            .lines()
            .find_map(|l| l.strip_prefix("raw wall-clock: "))
            .unwrap_or("");
        for kv in raw.split_whitespace() {
            if let Some((k, v)) = kv.split_once('=') {
                raw_values
                    .entry(k.to_owned())
                    .or_default()
                    .push(v.parse().unwrap_or(f64::NAN));
            }
        }
    }
    println!(
        "{} x {runs} runs of {} s, failed share {:?}",
        a.workload, a.seconds, shares
    );
    println!(
        "{:<18} {:>13} {:>13} {:>13} {:>8} {:>6} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med", "bound", "raw iqr"
    );
    for (name, _) in END_TO_END {
        let spread = |v: &[f64]| {
            let (q1, q3) = stats::quartiles_exclusive(v);
            (stats::median(v), q1, q3, (q3 - q1) / stats::median(v))
        };
        let (med, q1, q3, s) = spread(values.get(name).map_or(&[][..], Vec::as_slice));
        let raw = raw_values.get(name).map_or(f64::NAN, |v| spread(v).3);
        let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
        let verdict = if name == "setup_s" || s < bound / 3.0 {
            ""
        } else {
            "  WIDE"
        };
        println!("{name:<18} {med:>13.6} {q1:>13.6} {q3:>13.6} {s:>8.4} {bound:>6.3} {raw:>9.4}{verdict}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asicbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files (the service socket, traces) live beside the package.
    let here = env!("CARGO_MANIFEST_DIR");
    if let Err(e) = std::env::set_current_dir(here).and_then(|()| std::fs::create_dir_all("out")) {
        eprintln!("asicbench: {here}: {e}");
        return ExitCode::from(1);
    }
    let r = match a.steady {
        Some(runs) => steady(&a, runs),
        None => run_once(&a).map(|line| println!("{line}")),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asicbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let listed = program::metric_units(&text).unwrap();
        let mut expected: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(TRACE_METRICS.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        expected.sort();
        let mut listed = listed;
        listed.sort();
        assert_eq!(listed, expected);
    }
}

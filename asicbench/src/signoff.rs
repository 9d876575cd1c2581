//! `dect_signoff`: the DECT transceiver through HDL emission and
//! synthesis, one long burst at gate level, and the BIST sign-off of
//! every synthesized block.

use std::time::Instant;

use crate::check;
use crate::clock::{Rounds, Setups, Speed};
use crate::program::{self as p, Res};
use crate::stats::{median, quantile};
use crate::{Outcome, Rng, Run};

/// Set-up (capture, emission and synthesis of the whole system) takes
/// about a tenth of a second. It runs a few times at the start, then
/// again before a block sign-off once `SETUP_EVERY_S` has passed since
/// the last, and the median is reported.
const SETUP_REPS: usize = 5;
const SETUP_EVERY_S: f64 = 2.0;

/// Each round extends the gate-level burst by one more burst of
/// `32 + SEG_PAYLOAD` symbols, received back to back without a reset.
const SEG_PAYLOAD: usize = 1504;
const SEG_CHANNEL: [f64; 2] = [1.0, 0.4];
const SEG_NOISE: f64 = 0.05;
/// Symbols per gate-level round (64 cycles).
const CHUNK_SYMBOLS: usize = 16;

/// LFSR patterns per block sign-off; the LFSR seed changes every round.
const PATTERNS: usize = 16;

/// Faults per block re-graded one at a time in every round.
const REGRADE_PER_BLOCK: usize = 2;

/// Grading runs on the measuring thread, so its calibration tracks it.
const GRADE_THREADS: usize = 1;

/// Capture, HDL emission and synthesis of the whole system, timed into
/// `setups`.
fn set_up(tr: &crate::trace::Tracer, speed: &mut Speed, setups: &mut Setups) -> Res<p::GateDut> {
    let t0 = Instant::now();
    let d = tr.span("core.capture", p::capture_dect)?;
    tr.span("hdl.emit", || p::emit_hdl(&d))?;
    let g = tr.span("synth.synthesize", || p::gate_system(d))?;
    setups.add(speed, t0.elapsed().as_secs_f64());
    Ok(g)
}

pub fn run(run: &Run) -> Res<Outcome> {
    let tr = &run.tracer;
    let mut speed = Speed::new();
    let mut setups = Setups::new(SETUP_EVERY_S);
    for _ in 1..SETUP_REPS {
        set_up(tr, &mut speed, &mut setups)?;
    }
    let mut gates = set_up(tr, &mut speed, &mut setups)?;
    // The per-block netlists for BIST sign-off: the same synthesis again,
    // block by block, so it is kept out of the timed set-up.
    let blocks = p::synthesize_blocks(&p::capture_dect()?)?;
    let universe: Vec<Vec<(usize, bool)>> = blocks
        .iter()
        .map(|b| p::fault_universe(&b.netlist))
        .collect();

    let mut out = Outcome::default();
    let mut rng = Rng::new(run.seed);
    let mut stream: Vec<p::Fix> = Vec::new();
    let mut hw: Vec<(bool, f64)> = Vec::new();
    let (mut gate_r, mut cycles) = (Rounds::default(), 0u64);
    let mut faults = 0u64;
    // Per block: its fault count and its sign-off latency in every round.
    let mut block_faults = vec![0u64; blocks.len()];
    let (mut block_ms, mut block_raw_ms) = (
        vec![Vec::new(); blocks.len()],
        vec![Vec::new(); blocks.len()],
    );
    let mut round_golden_ms = Vec::new();
    let mut round_grade_ms = Vec::new();
    let (mut fault_evals, mut machine_evals, mut detected) = (0u64, 0.0f64, 0u64);
    let activity0 = gates.activity();
    gates.begin()?;
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < run.seconds {
        // The gate-level burst grows by one segment.
        let seed = rng.next_u64();
        let b = tr.span("designs.burst", || {
            p::burst(SEG_PAYLOAD, &SEG_CHANNEL, SEG_NOISE, seed)
        });
        let c0 = gates.cycle();
        // Timed per symbol, so host-speed changes within a segment are
        // normalised where they happen; a gate-level round is
        // `CHUNK_SYMBOLS` symbols.
        let seg = tr.span("bench.segment", || -> Res<Vec<(bool, f64)>> {
            let mut o = Vec::with_capacity(p::samples(&b).len());
            for (k, x) in p::samples(&b).iter().enumerate() {
                let t0 = Instant::now();
                tr.hot("gatesim.io", || gates.set_sample(*x))?;
                for _ in 0..p::CYCLES_PER_SYMBOL {
                    tr.hot("gatesim.step", || gates.step())?;
                }
                o.push(tr.hot("gatesim.io", || gates.symbol())?);
                let work = [p::CYCLES_PER_SYMBOL as f64, 0.0];
                let dt = t0.elapsed().as_secs_f64();
                gate_r.add(work, dt, speed.normalize(dt));
                if (k + 1) % CHUNK_SYMBOLS == 0 {
                    gate_r.end();
                }
            }
            Ok(o)
        });
        out.attempted += 1;
        match seg {
            Ok(seg) => {
                cycles += gates.cycle() - c0;
                hw.extend(seg);
                stream.extend_from_slice(p::samples(&b));
            }
            // The burst cannot go on from a failed cycle.
            Err(e) => {
                out.fail(format!("gate-level segment: {e}"));
                break;
            }
        }

        // BIST sign-off of every block under this round's LFSR seed.
        let lfsr_seed = 1 + rng.next_u64() % 0xfffe;
        let (mut golden_ms, mut grade_ms) = (0.0, 0.0);
        for (bi, blk) in blocks.iter().enumerate() {
            if setups.due() {
                set_up(tr, &mut speed, &mut setups)?;
            }
            let stim = p::lfsr_stimulus(&blk.netlist, PATTERNS, lfsr_seed);
            out.attempted += 1;
            let t0 = Instant::now();
            let g = if tr.is_on() {
                // The two halves of `bist_signoff`, timed apart.
                let g0 = Instant::now();
                let golden = tr.span("gatesim.bist.golden", || {
                    p::bist_golden(&blk.netlist, &stim)
                });
                golden_ms += g0.elapsed().as_secs_f64() * 1e3;
                let g1 = Instant::now();
                let g = golden.and_then(|_| {
                    tr.span("gatesim.fault.grade", || {
                        p::fault_grade(&blk.netlist, &stim, GRADE_THREADS)
                    })
                });
                grade_ms += g1.elapsed().as_secs_f64() * 1e3;
                g
            } else {
                p::bist_signoff(&blk.netlist, &stim, GRADE_THREADS)
            };
            let dt = t0.elapsed().as_secs_f64();
            let g = match g {
                Ok(g) => g,
                Err(e) => {
                    out.fail(format!("block {}: {e}", blk.name));
                    continue;
                }
            };
            block_ms[bi].push(speed.normalize(dt) * 1e3);
            block_raw_ms[bi].push(dt * 1e3);
            block_faults[bi] = g.total;
            faults += g.total;
            fault_evals += g.gate_evals;
            machine_evals += g.faults_per_gate_eval * g.gate_evals as f64;
            detected += g.detected;
            tr.span("bench.check", || {
                let u = &universe[bi];
                out.check(check::grading_complete(
                    u.len() as u64,
                    g.total,
                    g.detected,
                    g.undetected.len() as u64,
                ));
                let golden = match p::golden_stream(&blk.netlist, &stim) {
                    Ok(s) => s,
                    Err(e) => {
                        return out.check(Err(format!("block {}: golden run: {e}", blk.name)))
                    }
                };
                let mut sample: Vec<(usize, bool)> = (0..REGRADE_PER_BLOCK)
                    .map(|_| u[(rng.next_u64() % u.len() as u64) as usize])
                    .collect();
                if let Some(f) = g.undetected.first() {
                    sample.push(*f);
                }
                for f in sample {
                    let single = p::regrade_one(&blk.netlist, &stim, &golden, f);
                    let packed = !g.undetected.contains(&f);
                    out.check(check::same_classification(f, packed, single));
                }
            });
        }
        round_golden_ms.push(golden_ms);
        round_grade_ms.push(grade_ms);
    }

    tr.span("bench.check", || {
        let reference = p::reference(&stream);
        out.check(check::burst_matches_reference(&hw, &reference[..hw.len()]));
    });

    // Each block's median latency over the rounds, so a slow round moves
    // no block's figure: the sign-off rate is the faults of one pass over
    // the sum of those medians, the latency the 90th percentile of them.
    let per_block = |ms: &[Vec<f64>]| -> Vec<f64> { ms.iter().map(|v| median(v)).collect() };
    let rate =
        |med: &[f64]| block_faults.iter().sum::<u64>() as f64 / (med.iter().sum::<f64>() / 1e3);
    let (med, med_raw) = (per_block(&block_ms), per_block(&block_raw_ms));
    let g = gate_r.rates();
    let setup = setups.medians();
    out.e2e(
        [g.0[0], rate(&med), quantile(&med, 0.9), setup.0],
        [g.1[0], rate(&med_raw), quantile(&med_raw, 0.9), setup.1],
    );
    if tr.is_on() {
        let (e1, v1) = gates.activity();
        let l = &mut out.layers;
        l.insert("core.capture_ms", median(&tr.durations_ms("core.capture")));
        l.insert("hdl.emit_ms", median(&tr.durations_ms("hdl.emit")));
        l.insert(
            "synth.synthesize_ms",
            median(&tr.durations_ms("synth.synthesize")),
        );
        l.insert("synth.gates", gates.gates() as f64);
        l.insert("synth.area_gate_eq", gates.area_gate_eq());
        let step = tr.rollup("gatesim.step");
        l.insert(
            "gatesim.step_us",
            step.total_ns as f64 / step.calls as f64 / 1e3,
        );
        l.insert(
            "gatesim.gate_evals_per_cycle",
            (e1 - activity0.0) as f64 / cycles as f64,
        );
        l.insert(
            "gatesim.events_per_cycle",
            (v1 - activity0.1) as f64 / cycles as f64,
        );
        l.insert("gatesim.bist.golden_ms", median(&round_golden_ms));
        l.insert("gatesim.fault.grade_ms", median(&round_grade_ms));
        let rounds = round_grade_ms.len() as f64;
        l.insert("gatesim.fault.gate_evals", fault_evals as f64 / rounds);
        l.insert(
            "gatesim.fault.faults_per_gate_eval",
            machine_evals / fault_evals as f64,
        );
        l.insert(
            "gatesim.fault.coverage_pct",
            100.0 * detected as f64 / faults as f64,
        );
        l.insert(
            "designs.burst_us",
            median(&tr.durations_ms("designs.burst")) * 1e3,
        );
    }
    Ok(out)
}

//! `dect_cycle_true`: the DECT transceiver on the fused cycle-true
//! engine, many seeded bursts with a reset between them.

use std::time::Instant;

use crate::check;
use crate::clock::{Rounds, Setups, Speed};
use crate::program::{self as p, Res};
use crate::stats::{median, quantile};
use crate::{Outcome, Rng, Run};

/// One burst of a round: a multipath channel, a noise peak and a
/// payload length. Only the seed changes between rounds, so every round
/// simulates the same number of cycles.
struct Slot {
    channel: &'static [f64],
    noise: f64,
    payload: usize,
}

const SLOTS: [Slot; 8] = [
    Slot {
        channel: &[1.0, 0.3],
        noise: 0.02,
        payload: 96,
    },
    Slot {
        channel: &[1.0, -0.25],
        noise: 0.03,
        payload: 128,
    },
    Slot {
        channel: &[1.0],
        noise: 0.01,
        payload: 192,
    },
    Slot {
        channel: &[1.0, 0.4],
        noise: 0.08,
        payload: 96,
    },
    Slot {
        channel: &[1.0, 0.5, 0.2],
        noise: 0.05,
        payload: 160,
    },
    Slot {
        channel: &[0.9, 0.45, -0.1],
        noise: 0.15,
        payload: 64,
    },
    Slot {
        channel: &[1.0, 0.45],
        noise: 0.25,
        payload: 128,
    },
    Slot {
        channel: &[1.0, 0.2, 0.1],
        noise: 0.4,
        payload: 96,
    },
];

/// Capture → compile → lower → instantiate is a few milliseconds, so it
/// is repeated (at the start, then through the run) and the median
/// reported.
const SETUP_REPS: usize = 15;
const SETUP_EVERY_S: f64 = 0.5;

/// Runs one burst from power-up; returns its per-symbol outputs.
fn drive(run: &Run, sim: &mut p::FusedDut, samples: &[p::Fix]) -> Res<Vec<(bool, f64)>> {
    let tr = &run.tracer;
    tr.span("core.reset", || sim.reset());
    sim.begin()?;
    let mut out = Vec::with_capacity(samples.len());
    for x in samples {
        tr.hot("core.io", || sim.set_sample(*x))?;
        for _ in 0..p::CYCLES_PER_SYMBOL {
            tr.hot("core.step", || sim.step())?;
        }
        out.push(tr.hot("core.io", || sim.symbol())?);
    }
    Ok(out)
}

/// Capture → compile → lower → instantiate, timed into `setups`.
fn set_up(
    tr: &crate::trace::Tracer,
    speed: &mut Speed,
    setups: &mut Setups,
) -> Res<(p::FusedDut, p::TapeShape)> {
    let t0 = Instant::now();
    let d = tr.span("core.capture", p::capture_dect)?;
    let tape = tr.span("core.opt.compile", || p::compile(&d))?;
    let fused = tr.span("core.lower.lower", || p::lower(&d, &tape))?;
    let s = tr.span("core.instantiate", || p::fused(d, &fused))?;
    setups.add(speed, t0.elapsed().as_secs_f64());
    Ok((s, p::tape_shape(&fused)))
}

pub fn run(run: &Run) -> Res<Outcome> {
    let tr = &run.tracer;
    let mut speed = Speed::new();
    let mut setups = Setups::new(SETUP_EVERY_S);
    for _ in 1..SETUP_REPS {
        set_up(tr, &mut speed, &mut setups)?;
    }
    let (mut sim, shape) = set_up(tr, &mut speed, &mut setups)?;

    let mut out = Outcome::default();
    let mut rng = Rng::new(run.seed);
    let mut rounds = Rounds::default();
    let (mut latency_ms, mut latency_raw_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < run.seconds {
        if setups.due() {
            set_up(tr, &mut speed, &mut setups)?;
        }
        tr.span("bench.round", || {
            for slot in &SLOTS {
                let seed = rng.next_u64();
                let b = tr.span("designs.burst", || {
                    p::burst(slot.payload, slot.channel, slot.noise, seed)
                });
                let t0 = Instant::now();
                let hw = tr.span("bench.burst", || drive(run, &mut sim, p::samples(&b)));
                let dt = t0.elapsed().as_secs_f64();
                out.attempted += 1;
                let hw = match hw {
                    Ok(hw) => hw,
                    Err(e) => {
                        out.fail(format!("burst seed {seed}: {e}"));
                        continue;
                    }
                };
                // `reset` zeroes the cycle count.
                let work = [sim.cycle() as f64, 1.0];
                let norm = speed.normalize(dt);
                rounds.add(work, dt, norm);
                latency_ms.push(norm * 1e3);
                latency_raw_ms.push(dt * 1e3);
                tr.span("bench.check", || {
                    let reference = p::reference(p::samples(&b));
                    out.check(check::burst_matches_reference(&hw, &reference));
                });
            }
            rounds.end();
        });
    }

    let (norm, raw) = rounds.rates();
    let setup = setups.medians();
    out.e2e(
        [norm[0], norm[1], quantile(&latency_ms, 0.9), setup.0],
        [raw[0], raw[1], quantile(&latency_raw_ms, 0.9), setup.1],
    );
    if tr.is_on() {
        let l = &mut out.layers;
        l.insert("core.capture_ms", median(&tr.durations_ms("core.capture")));
        l.insert(
            "core.opt.compile_ms",
            median(&tr.durations_ms("core.opt.compile")),
        );
        l.insert(
            "core.lower.lower_ms",
            median(&tr.durations_ms("core.lower.lower")),
        );
        l.insert("core.opt.tape_len", shape.tape_len as f64);
        l.insert(
            "core.lower.kernels_per_cycle",
            shape.kernels_per_cycle as f64,
        );
        l.insert("core.lower.fused_micros", shape.fused_micros as f64);
        let step = tr.rollup("core.step");
        let io = tr.rollup("core.io");
        l.insert(
            "core.step_ns_per_cycle",
            step.total_ns as f64 / step.calls as f64,
        );
        l.insert(
            "core.io_ns_per_cycle",
            io.total_ns as f64 / step.calls as f64,
        );
        l.insert(
            "core.reset_us",
            median(&tr.durations_ms("core.reset")) * 1e3,
        );
        l.insert(
            "designs.burst_us",
            median(&tr.durations_ms("designs.burst")) * 1e3,
        );
    }
    Ok(out)
}

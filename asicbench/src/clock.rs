//! Host-speed normalisation of measured times.
//!
//! On shared hosts the speed of a core changes by up to 2x in phases
//! lasting seconds (measured: the fused DECT engine ran between 190k
//! and 430k cycles/s on one 2-vCPU machine within three minutes, with no
//! steal time). A throughput averaged over a 10-second run then says
//! more about the phases it met than about the program.
//!
//! Every measured interval is therefore also divided by the host's
//! speed at that moment, taken from a fixed calibration loop (this
//! file's code, never the program's) run on the same thread right after
//! the interval. A reported time is `raw × nominal / calibration`: the
//! time the interval would have taken on a host on which the loop takes
//! its nominal time. The nominal time is a fixed constant, so reported
//! figures compare across runs and commits, not with wall-clock ones.
//! The loop writes its 16 KiB before its clock starts, so what the
//! measured interval left in the caches does not change its reading.
//! (Timed with those writes, its reading after the gate-level kernel
//! varied from one process to the next: over seven runs the normalised
//! gate-level rate of `dect_signoff` fell into two clusters 25% apart
//! while the raw rate did not.) This tracks work done on the measuring
//! thread; work on other threads is tracked only as far as their cores
//! share its phase.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Minimum spacing of calibration runs, so short operations do not pay
/// for one each.
const SPACING_NS: u128 = 1_000_000;

/// Calibration time of the reference host at full speed: the 5th
/// percentile of 3000 runs of the loop alone on a 2-vCPU Xeon, in the
/// quietest of four such measurements.
const NOMINAL_NS: f64 = 12_000.0;

/// Eight passes of mixing arithmetic over 16 KiB (about 12 µs at full
/// speed); returns their time in ns. The array is written before the
/// clock starts, so the reading does not depend on what the measured
/// interval left in the caches.
fn core_loop(salt: u64) -> f64 {
    let mut v = [0u64; 2048];
    for (i, x) in v.iter_mut().enumerate() {
        *x = (i as u64).wrapping_mul(black_box(salt) | 1);
    }
    black_box(&mut v);
    let t0 = Instant::now();
    for _ in 0..8 {
        for i in 0..v.len() {
            v[i] =
                v[i].rotate_left(7) ^ v[(i * 7 + 3) % v.len()].wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    black_box(&v);
    t0.elapsed().as_nanos() as f64
}

/// Per-thread host-speed tracker: the median of the last five
/// calibration runs, so one interrupted run does not skew it.
pub struct Speed {
    recent: [f64; 5],
    next: usize,
    last: Instant,
}

impl Speed {
    pub fn new() -> Speed {
        let mut s = Speed {
            recent: [NOMINAL_NS; 5],
            next: 0,
            last: Instant::now(),
        };
        for _ in 0..5 {
            s.sample();
        }
        s
    }

    fn sample(&mut self) {
        self.recent[self.next] = core_loop(self.next as u64);
        self.next = (self.next + 1) % self.recent.len();
        self.last = Instant::now();
    }

    /// `raw_s` scaled to the nominal host: calibrates first unless the
    /// last calibration is under a millisecond old.
    pub fn normalize(&mut self, raw_s: f64) -> f64 {
        if self.last.elapsed().as_nanos() >= SPACING_NS {
            self.sample();
        }
        let mut r = self.recent;
        r.sort_by(f64::total_cmp);
        raw_s * NOMINAL_NS / r[2]
    }
}

/// Work and time per round — a fixed unit of work timed as a series of
/// intervals — so a run reports the median round's rate. A slow stretch
/// that the calibration does not fully track then moves a few rounds,
/// not the figure.
#[derive(Default)]
pub struct Rounds {
    done: Vec<([f64; 2], f64, f64)>,
    cur: ([f64; 2], f64, f64),
}

impl Rounds {
    /// Adds an interval that did `work` (two measures of it) in `raw_s`
    /// seconds of wall-clock time, `norm_s` once normalised.
    pub fn add(&mut self, work: [f64; 2], raw_s: f64, norm_s: f64) {
        self.cur.0[0] += work[0];
        self.cur.0[1] += work[1];
        self.cur.1 += raw_s;
        self.cur.2 += norm_s;
    }

    /// Closes the current round.
    pub fn end(&mut self) {
        if self.cur.1 > 0.0 {
            self.done.push(std::mem::take(&mut self.cur));
        }
    }

    /// Median over rounds of work measure `i` per second, normalised or raw.
    pub fn median_rate(&self, i: usize, normalised: bool) -> f64 {
        let rates: Vec<f64> = self
            .done
            .iter()
            .map(|(w, raw, norm)| w[i] / if normalised { *norm } else { *raw })
            .collect();
        median(&rates)
    }

    /// `[measure 0 rate, measure 1 rate]`, normalised and raw.
    pub fn rates(&self) -> ([f64; 2], [f64; 2]) {
        (
            [self.median_rate(0, true), self.median_rate(1, true)],
            [self.median_rate(0, false), self.median_rate(1, false)],
        )
    }
}

/// Set-up times of one run, taken at least `every_s` seconds apart
/// through the run, so their median spans the host's slow and fast
/// phases instead of the one the run started in.
pub struct Setups {
    every_s: f64,
    norm: Vec<f64>,
    raw: Vec<f64>,
    last: Instant,
}

impl Setups {
    pub fn new(every_s: f64) -> Setups {
        Setups {
            every_s,
            norm: Vec::new(),
            raw: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Records one set-up of `raw_s` seconds.
    pub fn add(&mut self, speed: &mut Speed, raw_s: f64) {
        self.norm.push(speed.normalize(raw_s));
        self.raw.push(raw_s);
        self.last = Instant::now();
    }

    /// Whether the next set-up of the measured phase is due.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= self.every_s
    }

    /// Median set-up time, normalised and raw.
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.norm), median(&self.raw))
    }
}

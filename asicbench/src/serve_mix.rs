//! `serve_mix`: an in-process simulation service on a Unix socket and
//! closed-loop clients on persistent connections sending a seeded mix
//! of BER jobs, fault campaigns and warm-session runs.

use std::time::Instant;

use crate::check;
use crate::clock::{Rounds, Speed};
use crate::program::{self as p, Client, Reply, Res, Server};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Outcome, Rng, Run};

const BER_BURSTS: u64 = 8;
const BER_PAYLOAD: usize = 64;
const LANES: usize = 8;
const CAMPAIGN_EVENTS: u64 = 32;
const CAMPAIGN_CYCLES: u64 = 96;
/// `n` of the warm-session property: one run of `2n` cycles against
/// `n`, a park, and `n` more.
const SESSION_N: u64 = 64;
/// Server start to a filled tape cache is tens of milliseconds, so it
/// is repeated and the median reported.
const SETUP_REPS: usize = 7;
/// Distinct BER sweeps a run draws; every `ber` request repeats one, so
/// the recount of each is computed once.
const SWEEPS: usize = 4;

/// One BER sweep: a two-tap channel and two noise points.
struct Sweep {
    channel: Vec<f64>,
    noise: Vec<f64>,
}

impl Sweep {
    fn draw(rng: &mut Rng) -> Sweep {
        Sweep {
            channel: vec![1.0, 0.3 + 0.2 * rng.unit()],
            noise: vec![0.02 + 0.1 * rng.unit(), 0.15 + 0.2 * rng.unit()],
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Ping,
    Ber,
    Campaign,
    Open,
    Run,
    Close,
}

const KINDS: [Kind; 6] = [
    Kind::Ping,
    Kind::Ber,
    Kind::Campaign,
    Kind::Open,
    Kind::Run,
    Kind::Close,
];

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Ping => "serve.ping",
            Kind::Ber => "serve.ber",
            Kind::Campaign => "serve.campaign",
            Kind::Open => "serve.session_open",
            Kind::Run => "serve.session_run",
            Kind::Close => "serve.session_close",
        }
    }
}

/// One completed request, kept for the checks after the timed phase.
struct Record {
    kind: Kind,
    /// Client-side latency, raw and normalised to the nominal host.
    raw_ms: f64,
    ms: f64,
    /// The sweep a `ber` request ran.
    sweep: Option<usize>,
    reply: Reply,
}

/// Design cycles of one `ber` job: every point's bursts, each the
/// 32-bit S-field plus the payload, at `CYCLES_PER_SYMBOL` cycles a symbol.
fn ber_cycles(points: usize) -> u64 {
    points as u64 * BER_BURSTS * (32 + BER_PAYLOAD as u64) * p::CYCLES_PER_SYMBOL as u64
}

/// `(errors, bits)` of one BER point, recounted by regenerating the
/// service's bursts (channel seed `1000 + burst`) and decoding them
/// with the reference receiver.
pub fn ber_recount(
    tr: &Tracer,
    channel: &[f64],
    noise: f64,
    bursts: u64,
    payload: usize,
) -> (u64, u64) {
    let (mut errors, mut bits) = (0, 0);
    for b in 0..bursts {
        let burst = tr.span("designs.burst", || {
            p::burst(payload, channel, noise, 1000 + b)
        });
        let decided = p::reference(p::samples(&burst));
        let (tx, start) = p::tx_bits(&burst);
        for (k, (bit, _)) in decided.iter().enumerate().skip(start + p::DELAY) {
            bits += 1;
            errors += u64::from(tx[k - p::DELAY] != *bit);
        }
    }
    (errors, bits)
}

struct Mix<'a> {
    tr: &'a Tracer,
    sweeps: &'a [Sweep],
    speed: Speed,
    /// Per-round work `[design cycles, requests]` and time.
    rounds: Rounds,
    in_round: bool,
    client: Client,
    records: Vec<Record>,
    /// `(digest after one 2n run, digest after n + park + n)` per round.
    sessions: Vec<(String, String)>,
    next_id: u64,
}

impl<'a> Mix<'a> {
    fn new(tr: &'a Tracer, sweeps: &'a [Sweep], socket: &str) -> Res<Mix<'a>> {
        Ok(Mix {
            tr,
            sweeps,
            speed: Speed::new(),
            rounds: Rounds::default(),
            in_round: false,
            client: Client::connect(socket)?,
            records: Vec::new(),
            sessions: Vec::new(),
            next_id: 0,
        })
    }

    fn call(
        &mut self,
        kind: Kind,
        cycles: u64,
        sweep: Option<usize>,
        f: impl FnOnce(&mut Client, &str) -> Res<Reply>,
    ) -> Res<()> {
        let id = format!("r{}", self.next_id);
        self.next_id += 1;
        let t0 = Instant::now();
        let reply = self.tr.span(kind.span(), || f(&mut self.client, &id))?;
        // The request runs on a worker thread of the service while this
        // one waits; the calibration on this thread tracks it as far as
        // both cores share the host's phase, which `tracking` measures.
        let dt = t0.elapsed().as_secs_f64();
        let norm = self.speed.normalize(dt);
        if self.in_round {
            let work = if matches!(reply, Reply::Failed(_)) {
                [0.0; 2]
            } else {
                [cycles as f64, 1.0]
            };
            self.rounds.add(work, dt, norm);
        }
        self.records.push(Record {
            kind,
            raw_ms: dt * 1e3,
            ms: norm * 1e3,
            sweep,
            reply,
        });
        Ok(())
    }

    fn digest(&self) -> String {
        match self.records.last().map(|r| &r.reply) {
            Some(Reply::Digest(d)) => d.clone(),
            _ => String::new(),
        }
    }

    fn ber(&mut self, rng: &mut Rng) -> Res<()> {
        let i = (rng.next_u64() % self.sweeps.len() as u64) as usize;
        let sw = &self.sweeps[i];
        self.call(Kind::Ber, ber_cycles(sw.noise.len()), Some(i), |cl, id| {
            cl.ber(id, &sw.channel, &sw.noise, BER_BURSTS, BER_PAYLOAD, LANES)
        })
    }

    fn campaign(&mut self, rng: &mut Rng) -> Res<()> {
        let seed = rng.next_u64() % 1_000_000;
        self.call(
            Kind::Campaign,
            (CAMPAIGN_EVENTS + 1) * CAMPAIGN_CYCLES,
            None,
            |cl, id| cl.campaign(id, CAMPAIGN_EVENTS, CAMPAIGN_CYCLES, seed, LANES),
        )
    }

    fn run(&mut self, session: &str, cycles: u64) -> Res<()> {
        self.call(Kind::Run, cycles, None, |cl, id| {
            cl.session_run(id, session, cycles)
        })
    }

    fn open(&mut self, session: &str, seed: u64) -> Res<()> {
        self.call(Kind::Open, 0, None, |cl, id| {
            cl.session_open(id, session, seed)
        })
    }

    /// One round: every request kind, in a fixed order.
    fn round(&mut self, c: usize, rng: &mut Rng) -> Res<()> {
        let (a, b, t) = (format!("c{c}a"), format!("c{c}b"), format!("c{c}t"));
        self.in_round = true;
        self.call(Kind::Ping, 0, None, |cl, id| cl.ping(id))?;
        self.ber(rng)?;
        self.campaign(rng)?;
        self.run(&a, 2 * SESSION_N)?;
        let one = self.digest();
        self.run(&b, SESSION_N)?;
        self.run(&b, SESSION_N)?;
        self.sessions.push((one, self.digest()));
        self.ber(rng)?;
        self.campaign(rng)?;
        self.open(&t, rng.next_u64() % 1_000_000)?;
        self.run(&t, SESSION_N)?;
        self.call(Kind::Close, 0, None, |cl, id| cl.session_close(id, &t))?;
        self.rounds.end();
        self.in_round = false;
        Ok(())
    }
}

/// What one client thread hands back.
struct ClientRun {
    records: Vec<Record>,
    sessions: Vec<(String, String)>,
    /// Median-round rates `[cycles, requests]`, normalised and raw.
    rates: ([f64; 2], [f64; 2]),
    tracer: Tracer,
}

/// A closed-loop client: opens its two property sessions, then runs
/// whole rounds until `seconds` have passed.
fn client<'t>(
    socket: &str,
    c: usize,
    seed: u64,
    seconds: f64,
    start: Instant,
    tr: &'t Tracer,
    sweeps: &'t [Sweep],
) -> Res<Mix<'t>> {
    let mut rng = Rng::new(seed);
    let mut m = Mix::new(tr, sweeps, socket)?;
    let s = rng.next_u64() % 1_000_000;
    m.open(&format!("c{c}a"), s)?;
    m.open(&format!("c{c}b"), s)?;
    while m.sessions.is_empty() || start.elapsed().as_secs_f64() < seconds {
        m.round(c, &mut rng)?;
    }
    Ok(m)
}

/// Start the daemon and complete one request of each kind: after this
/// every tape the mix needs is in the cache.
fn warm(socket: &str, rng: &mut Rng, sweeps: &[Sweep]) -> Res<Server> {
    let server = Server::start(socket)?;
    let tr = Tracer::new(false);
    let mut m = Mix::new(&tr, sweeps, socket)?;
    m.call(Kind::Ping, 0, None, |cl, id| cl.ping(id))?;
    m.ber(rng)?;
    m.campaign(rng)?;
    m.open("warm", 1)?;
    m.run("warm", SESSION_N)?;
    m.call(Kind::Close, 0, None, |cl, id| cl.session_close(id, "warm"))?;
    for r in &m.records {
        if let Reply::Failed(msg) = &r.reply {
            return Err(format!("warm-up request failed: {msg}").into());
        }
    }
    Ok(server)
}

pub fn run(run: &Run) -> Res<Outcome> {
    let tr = &run.tracer;
    let mut rng = Rng::new(run.seed);
    let sweeps: Vec<Sweep> = (0..SWEEPS).map(|_| Sweep::draw(&mut rng)).collect();
    let pid = std::process::id();
    let mut speed = Speed::new();
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some((s, _)) = server.take() {
            Server::stop(s)?;
        }
        let socket = format!("out/serve-{pid}-{rep}.sock");
        let t0 = Instant::now();
        server = Some((
            tr.span("bench.setup", || warm(&socket, &mut rng, &sweeps))?,
            socket,
        ));
        let raw = t0.elapsed().as_secs_f64();
        setup.push(speed.normalize(raw));
        setup_raw.push(raw);
    }
    let (server, socket) = server.ok_or("no setup")?;

    let clients = crate::threads().min(2);
    let seeds: Vec<u64> = (0..clients).map(|_| rng.next_u64()).collect();
    let seconds = run.seconds;
    let start = Instant::now();
    let results: Vec<Res<ClientRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(c, &seed)| {
                let (socket, sweeps) = (&socket, &sweeps);
                let on = tr.is_on();
                s.spawn(move || {
                    let tracer = Tracer::new(on);
                    let m = client(socket, c, seed, seconds, start, &tracer, sweeps)?;
                    Ok(ClientRun {
                        rates: m.rounds.rates(),
                        records: m.records,
                        sessions: m.sessions,
                        tracer,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });

    // Each closed-loop client's rate is its median round's work over the
    // time it spent waiting on the round's requests; the mix's rate is
    // the clients' sum.
    let mut rates = [0.0f64; 4];
    let mut records = Vec::new();
    let mut sessions = Vec::new();
    let mut first_err = None;
    for r in results {
        match r {
            Ok(c) => {
                let (norm, raw) = c.rates;
                rates[0] += norm[0];
                rates[1] += norm[1];
                rates[2] += raw[0];
                rates[3] += raw[1];
                records.extend(c.records);
                sessions.extend(c.sessions);
                tr.absorb(c.tracer);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let (hits, misses) = server.cache_stats();
    let probed = if tr.is_on() {
        probe(run, &mut rng)?
    } else {
        Vec::new()
    };
    server.stop()?;
    if let Some(e) = first_err {
        return Err(e);
    }

    let mut out = Outcome::default();
    let recounts: Vec<Vec<(u64, u64)>> = tr.span("bench.check", || {
        sweeps
            .iter()
            .map(|sw| {
                sw.noise
                    .iter()
                    .map(|n| ber_recount(tr, &sw.channel, *n, BER_BURSTS, BER_PAYLOAD))
                    .collect()
            })
            .collect()
    });
    for r in &records {
        out.attempted += 1;
        match &r.reply {
            Reply::Failed(msg) => out.fail(format!("request failed: {msg}")),
            Reply::Ber(chunks) => {
                let i = r.sweep.ok_or("ber record without its sweep")?;
                out.check(check::ber_sweep_matches(chunks, &recounts[i]));
            }
            Reply::Campaign(counts) => {
                out.check(check::campaign_accounts(CAMPAIGN_EVENTS, *counts));
            }
            Reply::Digest(_) | Reply::Ok => {}
        }
    }
    for (one, parked) in &sessions {
        out.check(check::session_resumes(one, parked));
    }

    let runs = |f: fn(&Record) -> f64| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.kind == Kind::Run)
            .map(f)
            .collect()
    };
    out.e2e(
        [
            rates[0],
            rates[1],
            quantile(&runs(|r| r.ms), 0.9),
            median(&setup),
        ],
        [
            rates[2],
            rates[3],
            quantile(&runs(|r| r.raw_ms), 0.9),
            median(&setup_raw),
        ],
    );
    for kind in [Kind::Ber, Kind::Campaign] {
        let (corr, raw, norm) = tracking(&records, kind);
        eprintln!(
            "calibration tracking, {}: corr(ln latency, ln calibration) {corr:.3}, \
             log spread raw {raw:.3}, normalised {norm:.3}",
            kind.span()
        );
    }
    if tr.is_on() {
        let l = &mut out.layers;
        for (name, kind) in [
            ("ber", Kind::Ber),
            ("campaign", Kind::Campaign),
            ("session_run", Kind::Run),
            ("session_open", Kind::Open),
        ] {
            let ms = tr.durations_ms(kind.span());
            l.insert(format!("serve.{name}_ms"), median(&ms));
            l.insert(format!("serve.{name}_p90_ms"), quantile(&ms, 0.9));
        }
        // Each kind's share of the clients' total request time: what
        // `ops_per_s` and `op_p90_ms` are made of.
        let total: f64 = records.iter().map(|r| r.ms).sum();
        for kind in KINDS {
            let ms: f64 = records
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.ms)
                .sum();
            let name = kind.span().trim_start_matches("serve.");
            l.insert(format!("serve.share_pct.{name}"), 100.0 * ms / total);
        }
        let ping = tr.durations_ms(Kind::Ping.span());
        l.insert("serve.ping_us", median(&ping) * 1e3);
        l.insert("serve.ping_p90_us", quantile(&ping, 0.9) * 1e3);
        l.insert("serve.cache.hits", hits as f64);
        l.insert("serve.cache.misses", misses as f64);
        l.insert(
            "designs.burst_us",
            median(&tr.durations_ms("designs.burst")) * 1e3,
        );
        l.insert("core.capture_ms", median(&tr.durations_ms("core.capture")));
        l.insert(
            "core.opt.compile_ms",
            median(&tr.durations_ms("core.opt.compile")),
        );
        l.insert(
            "core.lower.lower_ms",
            median(&tr.durations_ms("core.lower.lower")),
        );
        l.insert(
            "core.snapshot.save_us",
            median(&tr.durations_ms("core.snapshot.save")) * 1e3,
        );
        l.insert(
            "core.snapshot.restore_us",
            median(&tr.durations_ms("core.snapshot.restore")) * 1e3,
        );
        l.insert(
            "core.fault.campaign_ms",
            median(&tr.durations_ms("core.fault.campaign")),
        );
        for (name, v) in probed {
            l.insert(name, v);
        }
    }
    Ok(out)
}

/// How far the calibration on the client thread tracks the service's
/// worker threads, over the requests of one kind: the correlation of
/// log latency with the log calibration reading taken right after the
/// request, and the standard deviation of log latency before and after
/// normalisation. A calibration that did not track the workers would
/// show no correlation and widen the spread.
fn tracking(records: &[Record], kind: Kind) -> (f64, f64, f64) {
    let v: Vec<(f64, f64, f64)> = records
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| (r.raw_ms.ln(), (r.raw_ms / r.ms).ln(), r.ms.ln()))
        .collect();
    let n = v.len() as f64;
    let mean = |f: fn(&(f64, f64, f64)) -> f64| v.iter().map(f).sum::<f64>() / n;
    let (mx, my, mz) = (mean(|p| p.0), mean(|p| p.1), mean(|p| p.2));
    let sum = |f: &dyn Fn(&(f64, f64, f64)) -> f64| v.iter().map(f).sum::<f64>();
    let (vx, vy, vz) = (
        sum(&|p| (p.0 - mx).powi(2)),
        sum(&|p| (p.1 - my).powi(2)),
        sum(&|p| (p.2 - mz).powi(2)),
    );
    let cov = sum(&|p| (p.0 - mx) * (p.1 - my));
    (cov / (vx * vy).sqrt(), (vx / n).sqrt(), (vz / n).sqrt())
}

/// The traced run's in-process probe of the core calls the service
/// makes per request: capture, compile and lower of both designs,
/// session snapshots on the fused HCOR engine, one lane-batched BER
/// point and one SFG fault campaign.
fn probe(run: &Run, rng: &mut Rng) -> Res<Vec<(&'static str, f64)>> {
    let tr = &run.tracer;
    const REPS: usize = 9;
    let mut hcor = None;
    let mut dect_tape = None;
    for _ in 0..REPS {
        for dect in [false, true] {
            let d = tr.span("core.capture", || {
                if dect {
                    p::capture_dect()
                } else {
                    p::capture_hcor()
                }
            })?;
            let tape = tr.span("core.opt.compile", || p::compile(&d))?;
            let fused = tr.span("core.lower.lower", || p::lower(&d, &tape))?;
            if dect {
                dect_tape = Some(tape);
            } else {
                hcor = Some((p::fused(d, &fused)?, p::tape_shape(&fused), tape));
            }
        }
    }
    let (mut sim, shape, hcor_tape) = hcor.ok_or("no probe")?;
    let dect_tape = dect_tape.ok_or("no probe")?;
    sim.idle(SESSION_N)?;
    let mut bytes = Vec::new();
    for _ in 0..REPS * 4 {
        bytes = tr.span("core.snapshot.save", || sim.snapshot());
        tr.span("core.snapshot.restore", || sim.restore(&bytes))?;
    }
    let channel = [1.0, 0.4];
    let t0 = Instant::now();
    let (_, (word_ops, passes)) = tr.span("core.batch.ber", || {
        p::ber_batched(&channel, 0.05, BER_BURSTS, BER_PAYLOAD, LANES, &dect_tape)
    })?;
    let lane_cycles_per_s = (passes * LANES as u64) as f64 / t0.elapsed().as_secs_f64();
    for _ in 0..REPS {
        let seed = rng.next_u64() % 1_000_000;
        tr.span("core.fault.campaign", || {
            p::hcor_campaign(&hcor_tape, CAMPAIGN_EVENTS, CAMPAIGN_CYCLES, seed)
        })?;
    }
    Ok(vec![
        ("core.opt.tape_len", shape.tape_len as f64),
        (
            "core.lower.kernels_per_cycle",
            shape.kernels_per_cycle as f64,
        ),
        ("core.lower.fused_micros", shape.fused_micros as f64),
        ("core.snapshot.bytes", bytes.len() as f64),
        ("core.batch.lane_cycles_per_s", lane_cycles_per_s),
        ("core.batch.word_ops", word_ops as f64),
    ])
}

//! Every call the benchmark makes into the repository's crates.
//!
//! The workloads, checkers and probes use only what this module exports,
//! so an API change in the program is absorbed here, in one file.

use std::io::{Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;

use ocapi::rng::XorShift64;
use ocapi::{
    run_campaign_cached_par, CompiledTape, FaultPlan, FusedSim, FusedTape, NetSource, OptLevel,
    ParConfig, SigType, SimSnapshot, Simulator, System, Value,
};
use ocapi_bench::ber::measure_batched;
use ocapi_bench::Robust;
use ocapi_designs::dect::burst::{generate, BurstConfig};
use ocapi_designs::dect::reference::Reference;
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_gatesim::fault::{stuck_at_coverage_sharded_stats, CycleStimulus};
use ocapi_gatesim::{bist, GateSim, GateSystemSim};
use ocapi_obs::Registry;
use ocapi_serve::server::{run as serve_run, ServerState};
use ocapi_serve::Json;
use ocapi_synth::gate::{Gate, GateKind, Netlist};
use ocapi_synth::{synthesize_with_held, SynthOptions};

pub use ocapi::Fix;
pub use ocapi_designs::dect::burst::Burst;
pub use ocapi_designs::dect::transceiver::CYCLES_PER_SYMBOL;
pub use ocapi_designs::dect::DELAY;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Res<T> = Result<T, Error>;

fn err(msg: impl Into<String>) -> Error {
    msg.into().into()
}

// ---------------------------------------------------------------------------
// designs: the DECT transceiver, its bursts and the reference receiver
// ---------------------------------------------------------------------------

/// A captured system (the program's `System`), opaque to the workloads.
pub struct Design(System);

/// Captures the full DECT transceiver (training on, LMS on).
pub fn capture_dect() -> Res<Design> {
    Ok(Design(build_system(&TransceiverConfig::default())?))
}

/// Captures the HCOR correlator system.
pub fn capture_hcor() -> Res<Design> {
    Ok(Design(ocapi_designs::hcor::build_system()?))
}

/// One burst through the synthetic multipath channel.
pub fn burst(payload_len: usize, channel: &[f64], noise: f64, seed: u64) -> Burst {
    generate(&BurstConfig {
        payload_len,
        channel: channel.to_vec(),
        noise,
        seed,
    })
}

/// A burst's samples.
pub fn samples(b: &Burst) -> &[Fix] {
    &b.samples
}

/// The transmitted bits of a burst and the index of its first payload bit.
pub fn tx_bits(b: &Burst) -> (&[bool], usize) {
    (&b.bits, b.payload_start)
}

/// Per-symbol `(decision, error)` of the plain-Rust bit-exact receiver,
/// started from power-up.
pub fn reference(samples: &[Fix]) -> Vec<(bool, f64)> {
    Reference::new(true)
        .run(samples)
        .iter()
        .map(|r| (r.bit, r.err.to_f64()))
        .collect()
}

// ---------------------------------------------------------------------------
// core: compile, lower, the fused engine, snapshots
// ---------------------------------------------------------------------------

/// Compiles a system's micro-op tape at `OptLevel::Full`.
pub fn compile(d: &Design) -> Res<CompiledTape> {
    Ok(CompiledTape::compile(&d.0, OptLevel::Full)?)
}

/// Lowers a compiled tape to the direct-threaded fused program.
pub fn lower(d: &Design, tape: &CompiledTape) -> Res<FusedTape> {
    Ok(FusedTape::from_compiled(&d.0, tape)?)
}

/// The deterministic shape of a lowered program.
#[derive(Debug, Clone, Copy)]
pub struct TapeShape {
    pub tape_len: u64,
    pub kernels_per_cycle: u64,
    pub fused_micros: u64,
}

pub fn tape_shape(t: &FusedTape) -> TapeShape {
    let l = t.lower_stats();
    TapeShape {
        tape_len: t.tape_len() as u64,
        kernels_per_cycle: l.kernels,
        fused_micros: l.fused_micros,
    }
}

/// A cycle-level simulator of a captured design, driven through the
/// `Simulator` port interface whatever the engine behind it. The port
/// helpers name the DECT transceiver's ports.
pub struct Dut<S: Simulator>(S);

/// The fused cycle-true engine.
pub type FusedDut = Dut<FusedSim>;

/// Instantiates the fused engine from a lowered tape.
pub fn fused(d: Design, t: &FusedTape) -> Res<FusedDut> {
    Ok(Dut(FusedSim::from_tape(d.0, t)?))
}

impl<S: Simulator> Dut<S> {
    /// Releases the hold request (first call of every burst).
    pub fn begin(&mut self) -> Res<()> {
        Ok(self.0.set_input("hold_request", Value::Bool(false))?)
    }

    pub fn set_sample(&mut self, x: Fix) -> Res<()> {
        Ok(self.0.set_input("sample", Value::Fixed(x))?)
    }

    pub fn step(&mut self) -> Res<()> {
        Ok(self.0.step()?)
    }

    /// The symbol's `(decision, error)` outputs.
    pub fn symbol(&self) -> Res<(bool, f64)> {
        let bit = self.0.output("bit")?.as_bool().ok_or("`bit` is not Bool")?;
        let e = self
            .0
            .output("err")?
            .as_fixed()
            .ok_or("`err` is not Fixed")?;
        Ok((bit, e.to_f64()))
    }

    pub fn cycle(&self) -> u64 {
        self.0.cycle()
    }

    /// Steps `n` cycles without touching the inputs.
    pub fn idle(&mut self, n: u64) -> Res<()> {
        Ok(self.0.run(n)?)
    }
}

impl Dut<FusedSim> {
    /// Back to power-up state.
    pub fn reset(&mut self) {
        self.0.reset();
    }

    pub fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot().to_bytes()
    }

    pub fn restore(&mut self, bytes: &[u8]) -> Res<()> {
        Ok(self.0.restore(&SimSnapshot::from_bytes(bytes)?)?)
    }
}

/// Lane-batched BER over `bursts` bursts from a cached tape, as the
/// service's `ber` job runs it. Returns `(errors, bits)` and the
/// batch counters `(word_ops, tape_passes)`.
pub fn ber_batched(
    channel: &[f64],
    noise: f64,
    bursts: u64,
    payload_len: usize,
    lanes: usize,
    tape: &CompiledTape,
) -> Res<((u64, u64), (u64, u64))> {
    let pool = ParConfig::single();
    let reg = Registry::new();
    let rb = Robust {
        pool: &pool,
        attempts: 1,
        every: 4,
        dir: None,
        job: None,
        resume: false,
        obs: Some(&reg),
    };
    let c = measure_batched(
        &rb,
        "probe",
        channel,
        noise,
        true,
        bursts,
        payload_len,
        lanes,
        OptLevel::Full,
        Some(tape),
    )?;
    Ok((
        (c.errors, c.bits),
        (
            reg.counter("batch.word_ops").get(),
            reg.counter("batch.tape_passes").get(),
        ),
    ))
}

/// A lane-batched SFG fault campaign on HCOR from a cached tape:
/// `events` random events over `cycles` cycles with seeded inputs.
/// Returns the injection count and the four outcome counts.
pub fn hcor_campaign(tape: &CompiledTape, events: u64, cycles: u64, seed: u64) -> Res<[u64; 5]> {
    let sys = ocapi_designs::hcor::build_system()?;
    let inputs: Vec<(String, SigType)> = sys
        .primary_inputs
        .iter()
        .map(|i| (i.name.clone(), i.ty))
        .collect();
    let rate = events as f64 / cycles as f64;
    let plan = FaultPlan::random(&sys, cycles, rate, seed);
    let report = run_campaign_cached_par(
        &ParConfig::single(),
        ocapi_designs::hcor::build_system,
        tape,
        |sim, cycle| {
            for (j, (name, ty)) in inputs.iter().enumerate() {
                let mut r = XorShift64::stream(seed ^ (j as u64 + 1), cycle);
                let v = match ty {
                    SigType::Bool => Value::Bool(r.next_bool()),
                    SigType::Bits(w) => {
                        Value::bits(*w, r.next_u64() & ((1u64 << (*w).min(63)) - 1))
                    }
                    _ => continue,
                };
                sim.set_input(name, v)?;
            }
            Ok(())
        },
        cycles,
        plan.events(),
        8,
    )?;
    Ok([
        report.total() as u64,
        report.masked() as u64,
        report.silent() as u64,
        report.detected() as u64,
        report.timed_out() as u64,
    ])
}

// ---------------------------------------------------------------------------
// hdl, synth, gatesim
// ---------------------------------------------------------------------------

/// Emits the system's VHDL and Verilog sources; returns the bytes written.
pub fn emit_hdl(d: &Design) -> Res<usize> {
    let v = ocapi_hdl::vhdl::system_source(&d.0)?;
    let vl = ocapi_hdl::verilog::system_source(&d.0)?;
    Ok(std::hint::black_box(v.len() + vl.len()))
}

/// One synthesized block of a system.
pub struct Block {
    pub name: String,
    pub netlist: Netlist,
}

/// Synthesizes every timed instance of the system on its own, with the
/// guard inputs that internal nets drive registered (the topology
/// `GateSystemSim` flattens).
pub fn synthesize_blocks(d: &Design) -> Res<Vec<Block>> {
    let sys = &d.0;
    let mut out = Vec::with_capacity(sys.timed.len());
    for (ti, t) in sys.timed.iter().enumerate() {
        let held: Vec<usize> = (0..t.comp.inputs.len())
            .filter(|&pi| {
                !matches!(
                    sys.nets[sys.timed_input_net(ti, pi)].source,
                    NetSource::PrimaryInput(_) | NetSource::Constant(_)
                )
            })
            .collect();
        let cn = synthesize_with_held(&t.comp, &SynthOptions::default(), &held)?;
        out.push(Block {
            name: t.name.clone(),
            netlist: cn.netlist,
        });
    }
    Ok(out)
}

pub type GateDut = Dut<GateSystemSim>;

/// Synthesizes and flattens the whole system for gate-level simulation.
pub fn gate_system(d: Design) -> Res<GateDut> {
    Ok(Dut(GateSystemSim::new(d.0, &SynthOptions::default())?))
}

impl Dut<GateSystemSim> {
    pub fn gates(&self) -> usize {
        self.0.gate_count()
    }

    pub fn area_gate_eq(&self) -> f64 {
        self.0.area()
    }

    /// Cumulative `(gate evaluations, events)` of the kernel.
    pub fn activity(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.gate_evals, s.events)
    }
}

/// BIST stimulus: `patterns` LFSR patterns for every input bus.
pub fn lfsr_stimulus(net: &Netlist, patterns: usize, seed: u64) -> Vec<CycleStimulus> {
    bist::lfsr_stimulus(net, patterns, seed)
}

/// A grading outcome in plain terms.
#[derive(Debug, Clone)]
pub struct Grading {
    pub total: u64,
    pub detected: u64,
    /// Escaped faults as `(gate index, stuck-at value)`.
    pub undetected: Vec<(usize, bool)>,
    pub gate_evals: u64,
    pub faults_per_gate_eval: f64,
}

fn grading(r: ocapi_gatesim::fault::FaultReport, s: ocapi_gatesim::fault::GradeStats) -> Grading {
    Grading {
        total: r.total as u64,
        detected: r.detected as u64,
        undetected: r.undetected.iter().map(|f| (f.gate, f.stuck_at)).collect(),
        gate_evals: s.gate_evals,
        faults_per_gate_eval: s.faults_per_gate_eval(),
    }
}

/// The BIST sign-off of one block: golden MISR plus packed stuck-at
/// grading on `threads` workers.
pub fn bist_signoff(net: &Netlist, stim: &[CycleStimulus], threads: usize) -> Res<Grading> {
    let s = bist::bist_signoff(net, stim, &ParConfig::new(threads))?;
    Ok(grading(s.coverage, s.grade_stats))
}

/// The golden-signature half of [`bist_signoff`], for the traced run.
pub fn bist_golden(net: &Netlist, stim: &[CycleStimulus]) -> Res<u64> {
    Ok(bist::golden_signature(net, stim)?.signature)
}

/// The packed-grading half of [`bist_signoff`], for the traced run.
pub fn fault_grade(net: &Netlist, stim: &[CycleStimulus], threads: usize) -> Res<Grading> {
    let (r, s) = stuck_at_coverage_sharded_stats(net, stim, &ParConfig::new(threads))?;
    Ok(grading(r, s))
}

/// Every single-stuck-at fault site of `net` (gate outputs, constants
/// excluded), counted here rather than taken from the grader.
pub fn fault_universe(net: &Netlist) -> Vec<(usize, bool)> {
    net.gates
        .iter()
        .enumerate()
        .filter(|(_, g)| !matches!(g.kind, GateKind::Const0 | GateKind::Const1))
        .flat_map(|(i, _)| [(i, false), (i, true)])
        .collect()
}

/// The apply–settle–clock–observe output stream of one scalar `GateSim`
/// run of `net`.
fn observe(net: Netlist, stim: &[CycleStimulus]) -> Result<Vec<u64>, ocapi_gatesim::GateError> {
    let mut sim = GateSim::new(net)?;
    let outs: Vec<_> = sim
        .netlist()
        .outputs
        .iter()
        .map(|(_, w)| w.clone())
        .collect();
    let mut seen = Vec::with_capacity(stim.len() * outs.len());
    for cyc in stim {
        for (name, v) in &cyc.inputs {
            if let Some(ws) = sim.netlist().input_by_name(name).map(<[_]>::to_vec) {
                sim.set_bus(&ws, *v);
            }
        }
        sim.settle()?;
        sim.clock()?;
        seen.extend(outs.iter().map(|w| sim.bus(w)));
    }
    Ok(seen)
}

/// The fault-free output stream of `net` under `stim`.
pub fn golden_stream(net: &Netlist, stim: &[CycleStimulus]) -> Res<Vec<u64>> {
    Ok(observe(net.clone(), stim)?)
}

/// Grades one fault alone: the fault is injected into a copy of the
/// netlist (its gate replaced by the stuck constant) and simulated with
/// the scalar kernel. Detected when any observed output differs from
/// `golden`, or when the faulty machine fails to settle.
pub fn regrade_one(
    net: &Netlist,
    stim: &[CycleStimulus],
    golden: &[u64],
    fault: (usize, bool),
) -> bool {
    let mut copy = net.clone();
    let g = &mut copy.gates[fault.0];
    *g = Gate {
        kind: if fault.1 {
            GateKind::Const1
        } else {
            GateKind::Const0
        },
        inputs: Vec::new(),
        output: g.output,
        init: fault.1,
    };
    match observe(copy, stim) {
        Ok(seen) => seen != golden,
        Err(_) => true,
    }
}

// ---------------------------------------------------------------------------
// serve: an in-process daemon and its clients
// ---------------------------------------------------------------------------

/// A `served` instance on a thread of this process.
pub struct Server {
    state: Arc<ServerState>,
    thread: JoinHandle<Result<(), String>>,
}

impl Server {
    /// Starts the daemon on `socket` and waits until it accepts.
    pub fn start(socket: &str) -> Res<Server> {
        let _ = std::fs::remove_file(socket);
        let state = Arc::new(ServerState::new(socket, 64, 64, None));
        let st = Arc::clone(&state);
        let thread = std::thread::spawn(move || serve_run(&st).map_err(|e| e.to_string()));
        for _ in 0..2000 {
            if thread.is_finished() {
                break;
            }
            if let Ok(c) = UnixStream::connect(socket) {
                drop(c);
                return Ok(Server { state, thread });
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Err(err(format!("server on {socket} did not come up")))
    }

    /// Tape-cache `(hits, misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (h, m, _) = self.state.cache.stats();
        (h, m)
    }

    /// Asks the daemon to shut down and joins its thread. Every client
    /// connection must be closed first.
    pub fn stop(self) -> Res<()> {
        let mut c = Client::connect(&self.state.socket)?;
        c.send(r#"{"op":"shutdown","id":"shutdown"}"#)?;
        // The daemon wakes its accept loop only after this reply is
        // written; a requester that hangs up first leaves it blocked.
        c.frame()?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| err("server thread panicked"))?
            .map_err(err)
    }
}

/// The outcome of one request.
pub enum Reply {
    /// `ber`: per-point `(errors, bits)`.
    Ber(Vec<(u64, u64)>),
    /// `campaign`: `[injections, masked, silent, detected, timed_out]`.
    Campaign([u64; 5]),
    /// `session.run`: the session's output digest.
    Digest(String),
    /// `ping`, `session.open`, `session.close`.
    Ok,
    /// An `error` frame.
    Failed(String),
}

/// A client on one persistent connection.
pub struct Client(UnixStream);

fn num(frame: &Json, key: &str) -> Res<u64> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(format!("frame lacks numeric `{key}`")))
}

impl Client {
    pub fn connect(socket: &str) -> Res<Client> {
        Ok(Client(UnixStream::connect(socket)?))
    }

    fn send(&mut self, text: &str) -> Res<()> {
        self.0.write_all(&(text.len() as u32).to_be_bytes())?;
        self.0.write_all(text.as_bytes())?;
        Ok(())
    }

    fn frame(&mut self) -> Res<Json> {
        let mut len = [0u8; 4];
        self.0.read_exact(&mut len)?;
        let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
        self.0.read_exact(&mut buf)?;
        Ok(Json::parse(std::str::from_utf8(&buf)?)?)
    }

    /// Sends one request and reads its frames up to the terminal one.
    fn call(&mut self, text: &str) -> Res<Reply> {
        self.send(text)?;
        let mut chunks = Vec::new();
        loop {
            let f = self.frame()?;
            match f.get("type").and_then(Json::as_str) {
                Some("chunk") => chunks.push((num(&f, "errors")?, num(&f, "bits")?)),
                Some("perf") => {}
                Some("pong") => return Ok(Reply::Ok),
                Some("error") => {
                    let m = f.get("message").and_then(Json::as_str).unwrap_or("");
                    return Ok(Reply::Failed(m.to_owned()));
                }
                Some("done") => {
                    let r = f.get("results").ok_or("done frame without results")?;
                    if r.get("injections").is_some() {
                        return Ok(Reply::Campaign([
                            num(r, "injections")?,
                            num(r, "masked")?,
                            num(r, "silent")?,
                            num(r, "detected")?,
                            num(r, "timed_out")?,
                        ]));
                    }
                    if let Some(d) = r.get("digest").and_then(Json::as_str) {
                        return Ok(Reply::Digest(d.to_owned()));
                    }
                    if r.get("bits").is_some() {
                        return Ok(Reply::Ber(chunks));
                    }
                    return Ok(Reply::Ok);
                }
                other => return Err(err(format!("unexpected frame type {other:?}"))),
            }
        }
    }

    pub fn ping(&mut self, id: &str) -> Res<Reply> {
        self.call(&format!(r#"{{"op":"ping","id":"{id}"}}"#))
    }

    /// A lane-batched DECT BER job: one chunk per noise point.
    pub fn ber(
        &mut self,
        id: &str,
        channel: &[f64],
        noise: &[f64],
        bursts: u64,
        payload_len: usize,
        lanes: usize,
    ) -> Res<Reply> {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        self.call(&format!(
            r#"{{"op":"ber","id":"{id}","design":"dect","channel":[{}],"noise":[{}],"bursts":{bursts},"payload_len":{payload_len},"lanes":{lanes},"threads":1}}"#,
            list(channel),
            list(noise)
        ))
    }

    /// An SFG-level fault campaign on HCOR.
    pub fn campaign(
        &mut self,
        id: &str,
        events: u64,
        cycles: u64,
        seed: u64,
        lanes: usize,
    ) -> Res<Reply> {
        self.call(&format!(
            r#"{{"op":"campaign","id":"{id}","design":"hcor","events":{events},"cycles":{cycles},"seed":{seed},"lanes":{lanes},"threads":1}}"#
        ))
    }

    /// Opens a warm fused HCOR session.
    pub fn session_open(&mut self, id: &str, session: &str, seed: u64) -> Res<Reply> {
        self.call(&format!(
            r#"{{"op":"session.open","id":"{id}","session":"{session}","design":"hcor","engine":"fused","seed":{seed}}}"#
        ))
    }

    pub fn session_run(&mut self, id: &str, session: &str, cycles: u64) -> Res<Reply> {
        self.call(&format!(
            r#"{{"op":"session.run","id":"{id}","session":"{session}","cycles":{cycles}}}"#
        ))
    }

    pub fn session_close(&mut self, id: &str, session: &str) -> Res<Reply> {
        self.call(&format!(
            r#"{{"op":"session.close","id":"{id}","session":"{session}"}}"#
        ))
    }
}

// ---------------------------------------------------------------------------
// JSON: result lines and BENCHMARK.json, read with the service's parser
// ---------------------------------------------------------------------------

/// A parsed result line.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: crate::stats::Metrics,
}

pub fn parse_result(line: &str) -> Res<ResultLine> {
    let j = Json::parse(line)?;
    let mut metrics = crate::stats::Metrics::default();
    if let Some(Json::Obj(pairs)) = j.get("metrics") {
        for (name, m) in pairs {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            metrics.0.push(crate::stats::Metric {
                name: name.clone(),
                value: v,
                unit: "",
            });
        }
    }
    Ok(ResultLine {
        correct: j
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("no `correct`")?,
        attempted: num(&j, "attempted")?,
        failed: num(&j, "failed")?,
        metrics,
    })
}

fn metric_entries(text: &str, section: &str) -> Res<Vec<Json>> {
    let j = Json::parse(text)?;
    Ok(j.get(section)
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default())
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`.
pub fn metric_bounds(text: &str) -> Res<std::collections::BTreeMap<String, f64>> {
    let mut out = std::collections::BTreeMap::new();
    for m in metric_entries(text, "end_to_end")? {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        out.insert(name.to_owned(), bound);
    }
    Ok(out)
}

/// `(name, unit)` of every metric in `BENCHMARK.json`.
#[cfg(test)]
pub fn metric_units(text: &str) -> Res<Vec<(String, String)>> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in metric_entries(text, section)? {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or("metric field missing")
            };
            out.push((field("name")?, field("unit")?));
        }
    }
    Ok(out)
}

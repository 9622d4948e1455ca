//! `daemon_mixed`: closed-loop requests against an in-process `polarisd`.
//!
//! One client thread per core, one request outstanding each. 80 % of
//! the requests are *warm* (one of the 26 kernels, submitted once in
//! set-up, so the cache answers) and 20 % are *cold*: a source text the
//! service has never seen, so it parses, compiles, executes and caches.
//! One operation is JSON line → `Request::parse` → `Service::submit` →
//! `Ticket::wait` → `Response::to_json`.
//!
//! A cold source is a program of the differential corpus that
//! `tests/fuzz_differential.rs` pins (`generate_program(0..256)`) under a
//! comment line that is used once. Fresh generator seeds are not used:
//! at this commit the restructurer miscompiles about one in 400 of them
//! (see README.md), and a workload must not contain failing operations.

use crate::report::{end_to_end, host_cores, rss_kb, Class, Metrics, Outcome, Tally, PER_LAYER};
use crate::run::{write_trace, Phase, Settings, SpanTotals, CAT};
use crate::stats::{geomean, mean, median, percentile, ratio, sorted};
use crate::suite;
use crate::yardstick::{self, slowdown_of};
use polaris::daemon::{fnv1a, CompileCache, Request, Response, Service, ServiceConfig, Status};
use polaris::fuzz::{generate_program, FuzzRng};
use polaris::obs::Recorder;
use polaris::{Engine, MachineConfig, PassOptions};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const WARM_PERCENT: u64 = 80;
/// Generator seeds of the cold programs.
const COLD_CORPUS: std::ops::Range<u64> = 0..256;
/// Requests per client and phase on a smoke run.
const SMOKE_REQUESTS: usize = 120;
/// Repetitions of the direct `CompileCache` probe.
const CACHE_PROBE_REPS: usize = 20;
/// Length of a measurement window; the clients pause between windows
/// and the main thread runs the yardstick `WINDOW_YARDSTICKS` times.
const WINDOW_S: f64 = 0.25;
const WINDOW_YARDSTICKS: usize = 12;

/// A program the clients submit, with what the service must answer.
struct Served {
    name: String,
    source: String,
    warm: bool,
    /// The checksums of a correct answer, or why set-up has none (every
    /// request for this program then fails).
    expect: Result<Expect, String>,
}

struct Expect {
    /// Of the restructured text. Warm programs only: set-up compiles
    /// them directly, and the compiler is deterministic.
    checksum: Option<u64>,
    /// Of the printed output.
    run_checksum: u64,
    /// Warm programs only (see [`suite::sim_speedup`]).
    sim_speedup: Option<f64>,
}

fn output_checksum(output: &[String]) -> u64 {
    fnv1a(output.join("\n").as_bytes())
}

/// A kernel, compiled and run here once: the run must reproduce the
/// committed reference, and its checksums are what the service owes.
/// Also returns the restructured text, for the cache probe.
fn warm_program(input: suite::Input) -> (Served, String) {
    let mut text = String::new();
    let expect = polaris::core::parse_and_compile(&input.source, &PassOptions::polaris())
        .map_err(|e| format!("compile: {e}"))
        .and_then(|(program, report)| {
            if report.degraded() {
                return Err(format!("degraded: {:?}", report.rolled_back_stages()));
            }
            let run = polaris::machine::run(&program, &MachineConfig::serial())
                .map_err(|e| format!("run: {e}"))?;
            if !suite::matches_reference(&run.output, &input.reference) {
                return Err(format!("output {:?} is not the reference", run.output));
            }
            let sim8 = polaris::machine::run(&program, &MachineConfig::challenge_8())
                .map_err(|e| format!("simulated run: {e}"))?;
            let sim_speedup = suite::sim_speedup(&input.source, sim8.cycles)?;
            text = polaris::ir::printer::print_program(&program);
            Ok(Expect {
                checksum: Some(fnv1a(text.as_bytes())),
                run_checksum: output_checksum(&run.output),
                sim_speedup: Some(sim_speedup),
            })
        });
    (Served { name: input.name, source: input.source, warm: true, expect }, text)
}

/// A corpus program. Its output under the service must be the
/// tree-walker's on the unrestructured source, digit for digit (the
/// service executes serially, so nothing is reassociated).
fn cold_program(seed: u64) -> Served {
    let source = generate_program(seed);
    let expect = suite::reference_output(&source).map(|reference| Expect {
        checksum: None,
        run_checksum: output_checksum(&reference),
        sim_speedup: None,
    });
    Served { name: format!("cold{seed}"), source, warm: false, expect }
}

fn request(id: u64, source: String) -> Request {
    Request {
        id,
        client: "benchmark".to_string(),
        vfa: false,
        deadline_ms: None,
        return_program: true,
        source,
    }
}

/// Start a service and submit every warm program once, so that later
/// requests for it are cache hits.
fn start_service(served: &mut [Served], rec: Recorder) -> Service {
    let cfg = ServiceConfig {
        workers: host_cores(),
        exec_engine: Some(Engine::Vm),
        ..ServiceConfig::default()
    };
    let service = Service::with_recorder(cfg, rec);
    for (id, p) in served.iter_mut().enumerate().filter(|(_, p)| p.warm) {
        let resp = service.submit(request(id as u64, p.source.clone())).wait();
        if let Some(why) = answer_defect(&resp, p, Status::Ok) {
            p.expect = Err(format!("first submission: {why}"));
        }
    }
    service
}

/// Why `resp` is not the answer `p` is owed, if it is not.
fn answer_defect(resp: &Response, p: &Served, status: Status) -> Option<String> {
    let expect = match &p.expect {
        Ok(expect) => expect,
        Err(why) => return Some(format!("set-up: {why}")),
    };
    if resp.status != status {
        return Some(format!("status {}, not {status} ({:?})", resp.status, resp.reason));
    }
    let text_sum = resp.program.as_deref().map(|text| fnv1a(text.as_bytes()));
    if text_sum.is_none() || text_sum != resp.checksum {
        return Some(format!("checksum {:?} is not that of the returned program", resp.checksum));
    }
    if expect.checksum.is_some_and(|sum| resp.checksum != Some(sum)) {
        return Some(format!("checksum {:?}, not {:x?}", resp.checksum, expect.checksum));
    }
    // a cache hit is not executed and carries no run_checksum
    if status == Status::Ok && resp.run_checksum != Some(expect.run_checksum) {
        return Some(format!(
            "run_checksum {:x?}, not {:x}",
            resp.run_checksum, expect.run_checksum
        ));
    }
    None
}

/// One answered request, as its client saw it.
struct Sample {
    program: usize,
    /// As measured.
    ms: f64,
    /// How much slower than nominal the host was in the request's window.
    slowdown: f64,
    defect: Option<String>,
}

impl Sample {
    fn nominal_ms(&self) -> f64 {
        self.ms / self.slowdown
    }
}

/// What the clients of one phase share.
struct PhaseShared<'a> {
    service: &'a Service,
    served: &'a [Served],
    settings: &'a Settings,
    phase: Phase,
    started: Instant,
    /// The clients and the main thread meet here at both ends of every
    /// window and after the yardstick runs that follow it.
    barrier: Barrier,
    /// Set by the main thread before the third meeting, read by the
    /// clients after it.
    done: AtomicBool,
}

/// What one client did in one window.
struct ClientWindow {
    samples: Vec<Sample>,
    /// From the window's start to this client's last answer, in seconds.
    active_s: f64,
}

/// The closed loop of one client for one phase, in windows of
/// [`WINDOW_S`]. Between windows every client waits for the others, so
/// that no request is outstanding, while the main thread runs the
/// yardstick: the service's own use of the processors must not slow the
/// yardstick down, or a service that burns more of them would be
/// forgiven for it.
///
/// On the traced phase the client records into a recorder of its own: a
/// recorder shared with the other clients and the service's workers
/// would be a lock that more threads than cores contend for, and the
/// waits would read as request time.
fn client(shared: &PhaseShared<'_>, client_id: u64) -> (Vec<ClientWindow>, Recorder) {
    let PhaseShared { service, served, settings, phase, .. } = *shared;
    let rec = if phase == Phase::Traced { Recorder::monotonic() } else { Recorder::disabled() };
    // one stream per (seed, client, phase): the same seed replays the
    // same requests
    let stream =
        settings.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client_id << 8 | phase as u64);
    let mut rng = FuzzRng::new(stream);
    let warm_count = served.iter().filter(|p| p.warm).count() as u64;
    let cold_count = served.len() as u64 - warm_count;
    let mut windows = Vec::new();
    let mut id = 0;
    loop {
        shared.barrier.wait();
        let window_started = Instant::now();
        let mut samples = Vec::new();
        while if settings.smoke {
            samples.len() < SMOKE_REQUESTS
        } else {
            window_started.elapsed().as_secs_f64() < WINDOW_S
        } {
            // `served` holds the warm programs first
            let (program, source) = if rng.below(100) < WARM_PERCENT {
                let i = rng.below(warm_count) as usize;
                (i, served[i].source.clone())
            } else {
                let i = (warm_count + rng.below(cold_count)) as usize;
                (i, format!("! request {:016x}\n{}", rng.next_u64(), served[i].source))
            };
            let p = &served[program];
            let line = request(id, source).to_json();
            id += 1;
            let wait_span =
                if p.warm { "polarisd.submit_wait_warm" } else { "polarisd.submit_wait_cold" };

            let t0 = Instant::now();
            let op = rec.span(CAT, "bench.op");
            let span = rec.span(CAT, "polarisd.decode");
            let parsed = Request::parse(black_box(&line));
            span.end();
            let span = rec.span(CAT, wait_span);
            let resp = parsed.map(|req| service.submit(req).wait());
            span.end();
            let span = rec.span(CAT, "polarisd.encode");
            let wire = resp.as_ref().ok().map(Response::to_json);
            span.end();
            op.end();
            let ms = t0.elapsed().as_secs_f64() * 1e3;

            let defect = match (&resp, &wire) {
                (Ok(resp), Some(wire)) if Response::parse(wire).as_ref() != Ok(resp) => {
                    Some("response does not survive its own wire format".to_string())
                }
                (Ok(resp), _) => {
                    answer_defect(resp, p, if p.warm { Status::Cached } else { Status::Ok })
                }
                (Err(e), _) => Some(format!("request line rejected: {e}")),
            };
            samples.push(Sample { program, ms, slowdown: 1.0, defect });
        }
        let active_s = window_started.elapsed().as_secs_f64();
        shared.barrier.wait();
        windows.push(ClientWindow { samples, active_s });
        // the main thread runs the yardstick here and decides whether to go on
        shared.barrier.wait();
        if shared.done.load(Ordering::SeqCst) {
            return (windows, rec);
        }
    }
}

/// One phase of all clients, brought to nominal host speed.
struct PhaseResult {
    samples: Vec<Sample>,
    recorders: Vec<Recorder>,
    /// Answers per second in the median window.
    ops_per_s: f64,
    /// Every yardstick run of the phase, in ms.
    yard_ms: Vec<f64>,
}

/// Run one phase on `host_cores()` client threads. A window's slow-down
/// is what the yardstick runs before and after it saw; its requests
/// carry it, and its throughput (answers / the time until the last of
/// them) is multiplied by it.
fn run_phase(
    service: &Service,
    served: &[Served],
    settings: &Settings,
    phase: Phase,
) -> PhaseResult {
    let clients = host_cores();
    let shared = PhaseShared {
        service,
        served,
        settings,
        phase,
        started: Instant::now(),
        barrier: Barrier::new(clients + 1),
        done: AtomicBool::new(false),
    };
    // the yardstick runs after each window
    let mut yard_ms: Vec<Vec<f64>> = Vec::new();
    let per_client: Vec<(Vec<ClientWindow>, Recorder)> = std::thread::scope(|scope| {
        let shared = &shared;
        let threads: Vec<_> =
            (0..clients as u64).map(|c| scope.spawn(move || client(shared, c))).collect();
        loop {
            shared.barrier.wait(); // the window begins
            shared.barrier.wait(); // every client has its last answer
            yard_ms.push(yardstick::run(WINDOW_YARDSTICKS));
            let over = settings.smoke || shared.started.elapsed() >= settings.phase_duration(phase);
            shared.done.store(over, Ordering::SeqCst);
            shared.barrier.wait();
            if over {
                break;
            }
        }
        threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
    });
    let (mut per_client, recorders): (Vec<Vec<ClientWindow>>, Vec<Recorder>) =
        per_client.into_iter().unzip();

    let (mut samples, mut throughputs) = (Vec::new(), Vec::new());
    for w in 0..yard_ms.len() {
        // the runs before the window (none before the first) and after it
        let around = yard_ms[w.saturating_sub(1)..=w].concat();
        let slowdown = slowdown_of(&around);
        let active_s = per_client.iter().map(|c| c[w].active_s).fold(0.0, f64::max);
        let mut answered = 0;
        for c in &mut per_client {
            for mut sample in std::mem::take(&mut c[w].samples) {
                sample.slowdown = slowdown;
                samples.push(sample);
                answered += 1;
            }
        }
        throughputs.push(ratio(answered as f64, active_s) * slowdown);
    }
    PhaseResult { samples, recorders, ops_per_s: median(&throughputs), yard_ms: yard_ms.concat() }
}

pub fn run(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    let ((mut served, warm_texts, service), setup_s) = settings.timed_setup(|| {
        let (mut served, texts): (Vec<Served>, Vec<String>) =
            suite::kernels(&settings.expected_dir)?.into_iter().map(warm_program).unzip();
        served.extend(COLD_CORPUS.map(cold_program));
        let service = start_service(&mut served, Recorder::disabled());
        Ok((served, texts, service))
    })?;

    run_phase(&service, &served, settings, Phase::Warmup);
    let untraced = run_phase(&service, &served, settings, Phase::Untraced);
    let stats = service.shutdown();
    if stats.shed + stats.respawns > 0 {
        eprintln!(
            "{workload}: the service shed {} requests and respawned {} workers",
            stats.shed, stats.respawns
        );
    }

    let mut layer = None;
    let mut traced_samples = Vec::new();
    if settings.trace {
        let service_rec = Recorder::monotonic();
        let service = start_service(&mut served, service_rec.clone());
        let (entries_before, rss_before) = (service.cache_len(), rss_kb());
        let traced = run_phase(&service, &served, settings, Phase::Traced);
        let (entries_after, rss_after) = (service.cache_len(), rss_kb());
        let stats = service.shutdown();

        let mut m = per_layer(&traced.recorders, &service_rec, &served);
        m.set("bench.ops_traced", traced.samples.len() as f64);
        m.set(
            "polarisd.cache_hit_share",
            ratio(stats.cache_hits as f64, (stats.cache_hits + stats.cache_misses) as f64),
        );
        m.set("polarisd.cache_entries_end", entries_after as f64);
        m.set(
            "polarisd.rss_kb_per_entry",
            ratio(rss_after - rss_before, (entries_after - entries_before) as f64),
        );
        m.set("polarisd.shed", stats.shed as f64);
        m.set("polarisd.retries", stats.retries as f64);
        m.set("polarisd.deadline_cancels", stats.deadline_cancels as f64);
        m.set("polarisd.respawns", stats.respawns as f64);
        probe_cache(&mut m, &warm_texts);
        write_trace(settings, workload, &service_rec)?;
        write_trace(settings, &format!("{workload}-client"), &traced.recorders[0])?;
        m.set("bench.yardstick_us", mean(&traced.yard_ms) * 1e3);
        m.scale_to_nominal_speed(slowdown_of(&traced.yard_ms));
        // the request percentiles come from the untraced phase, whose
        // samples carry their own slow-down
        for (name, value) in request_percentiles(&untraced.samples, &served) {
            m.set(name, value);
        }
        traced_samples = traced.samples;
        layer = Some(m);
    }

    let mut classes: Vec<Class> =
        served.iter().map(|p| Class::new(&p.name, if p.warm { "warm" } else { "cold" })).collect();
    let mut tally = Tally::default();
    let mut file = |samples: Vec<Sample>, traced: bool| {
        for s in samples {
            let class = &mut classes[s.program];
            if traced {
                class.traced_ms.push(s.nominal_ms());
            } else {
                class.push(s.ms, s.slowdown);
            }
            tally.note(&served[s.program].name, s.defect);
        }
    };
    file(untraced.samples, false);
    file(traced_samples, true);

    let metrics = match layer {
        Some(m) => {
            tally.check_attribution(&m, "decode + submit-wait + encode");
            m
        }
        None => {
            let speedups = served.iter().filter_map(|p| p.expect.as_ref().ok()?.sim_speedup);
            end_to_end(&classes, untraced.ops_per_s, setup_s, geomean(speedups))
        }
    };
    Ok(Outcome { tally, metrics, classes })
}

/// Median and tail of the warm and the cold requests.
fn request_percentiles(samples: &[Sample], served: &[Served]) -> [(&'static str, f64); 3] {
    let ms_of = |warm: bool| -> Vec<f64> {
        sorted(
            samples
                .iter()
                .filter(|s| served[s.program].warm == warm)
                .map(Sample::nominal_ms)
                .collect(),
        )
    };
    let (warm_ms, cold_ms) = (ms_of(true), ms_of(false));
    [
        ("polarisd.warm_request_us_p50", percentile(&warm_ms, 50.0) * 1e3),
        ("polarisd.cold_request_ms_p50", percentile(&cold_ms, 50.0)),
        ("polarisd.cold_request_ms_p95", percentile(&cold_ms, 95.0)),
    ]
}

fn per_layer(clients: &[Recorder], service: &Recorder, served: &[Served]) -> Metrics {
    let mut m = Metrics::zeroed(PER_LAYER);
    let mut totals = SpanTotals::default();
    for rec in clients {
        totals.absorb(rec);
    }
    let waits =
        totals.total_us("polarisd.submit_wait_warm") + totals.total_us("polarisd.submit_wait_cold");
    m.set("bench.host_cores", host_cores() as f64);
    m.set("bench.op_us", totals.mean_us("bench.op"));
    m.set(
        "bench.attributed_share",
        ratio(
            totals.total_us("polarisd.decode") + waits + totals.total_us("polarisd.encode"),
            totals.total_us("bench.op"),
        ),
    );

    m.set("polarisd.decode_us", totals.mean_us("polarisd.decode"));
    m.set("polarisd.encode_us", totals.mean_us("polarisd.encode"));
    m.set("polarisd.submit_wait_warm_us", totals.mean_us("polarisd.submit_wait_warm"));
    m.set("polarisd.submit_wait_cold_us", totals.mean_us("polarisd.submit_wait_cold"));

    // the cold programs without the service: parse, compile, run, print
    let direct = Recorder::monotonic();
    for p in served.iter().filter(|p| !p.warm) {
        let op = direct.span(CAT, "direct.op");
        let span = direct.span(CAT, "ir.parse");
        let parsed = polaris::ir::parse(black_box(&p.source));
        span.end();
        if let Ok(mut program) = parsed {
            let span = direct.span(CAT, "core.compile");
            let compiled = polaris::core::compile(&mut program, &PassOptions::polaris());
            span.end();
            if compiled.is_ok() {
                let span = direct.span(CAT, "machine.run");
                let _ = black_box(polaris::machine::run(&program, &MachineConfig::serial()));
                span.end();
                let span = direct.span(CAT, "ir.print");
                black_box(polaris::ir::printer::print_program(&program));
                span.end();
            }
        }
        op.end();
    }
    let mut direct_totals = SpanTotals::default();
    direct_totals.absorb(&direct);
    m.set("ir.parse_us", direct_totals.mean_us("ir.parse"));
    m.set("ir.print_us", direct_totals.mean_us("ir.print"));
    m.set("core.pipeline_us", direct_totals.mean_us("core.compile"));
    m.set("machine.run_us", direct_totals.mean_us("machine.run"));
    m.set(
        "polarisd.service_overhead_us",
        totals.mean_us("polarisd.submit_wait_cold") - direct_totals.mean_us("direct.op"),
    );

    let mut service_totals = SpanTotals::default();
    service_totals.absorb(service);
    m.set(
        "obs.events_recorded",
        (totals.events + direct_totals.events + service_totals.events) as f64,
    );
    m.set(
        "obs.events_dropped",
        (totals.dropped + direct_totals.dropped + service_totals.dropped) as f64,
    );
    m
}

/// Direct `CompileCache` calls on the kernels' restructured texts.
fn probe_cache(m: &mut Metrics, texts: &[String]) {
    let rec = Recorder::monotonic();
    let cache = CompileCache::new();
    for rep in 0..CACHE_PROBE_REPS as u64 {
        for (i, text) in texts.iter().enumerate() {
            let key = rep << 32 | i as u64;
            let text = text.clone();
            let span = rec.span(CAT, "polarisd.cache_insert");
            cache.insert(key, text, 1);
            span.end();
            let span = rec.span(CAT, "polarisd.cache_get");
            black_box(cache.get(black_box(key)));
            span.end();
        }
    }
    let mut totals = SpanTotals::default();
    totals.absorb(&rec);
    m.set("polarisd.cache_insert_us", totals.mean_us("polarisd.cache_insert"));
    m.set("polarisd.cache_get_us", totals.mean_us("polarisd.cache_get"));
    m.add("obs.events_recorded", totals.events as f64);
}

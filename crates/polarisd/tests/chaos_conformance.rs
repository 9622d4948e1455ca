//! Chaos conformance: the service's resilience claims under a seeded,
//! deterministic fault storm.
//!
//! Each seed drives one service instance through ~210 requests from four
//! clients over a six-unit corpus while the chaos plan injects stage
//! panics, IR corruption, stalls against tight deadlines, worker deaths,
//! cache poisoning, and one "cursed" unit that fails every attempt until
//! its request-id window closes. The suite asserts, per seed:
//!
//! * **no deadlocks / hangs** — every ticket resolves under a 20 s hang
//!   detector;
//! * **every accepted request is answered** — `accepted == answered`;
//! * **no wrong-checksum responses** — every `ok`/`cached` response's
//!   checksum (and, for a sampled request, full program text) is
//!   byte-identical to an independent clean compile of that unit;
//! * **quarantine works end to end** — the cursed unit opens its breaker
//!   and later recovers through a half-open probe.
//!
//! Sweep-wide (across all seeds) it additionally asserts that every
//! fault path actually fired: retries, deadline cancellations, poisoned
//! cache purges, load shedding, and worker respawns.
//!
//! `CHAOS_SEEDS` overrides the seed count (default 64; the sweep-wide
//! assertions need at least 8).
//!
//! A separate adaptive-scheduler storm (`adaptive_chaos_storm_*`) turns
//! on execution with per-content adaptive dispatch and injects worker
//! panics mid-measurement plus decision-table corruption: run checksums
//! must never drift from a clean serial execution, and the adaptation
//! table must recover to sane state rather than wedge.

use polaris_machine::{Engine, MachineConfig};
use polaris_obs::Recorder;
use polarisd::chaos::{ChaosPlan, Curse};
use polarisd::proto::{fnv1a, Request, Status};
use polarisd::service::{Service, ServiceConfig, ServiceStats};
use std::collections::VecDeque;
use std::time::Duration;

const REQUESTS: u64 = 200;
const UNITS: usize = 6;
const CURSE_END: u64 = 120;
const HANG: Duration = Duration::from_secs(20);

fn unit_source(u: usize) -> String {
    let n = 40 + u * 8;
    format!(
        "program u{u}\n\
         real v({n})\n\
         s = 0.0\n\
         do i = 1, {n}\n\
         \x20 v(i) = i * 2.0\n\
         end do\n\
         do i = 1, {n}\n\
         \x20 s = s + v(i)\n\
         end do\n\
         print *, s\n\
         end\n"
    )
}

struct Corpus {
    sources: Vec<String>,
    clean_text: Vec<String>,
    clean_sum: Vec<u64>,
    keys: Vec<u64>,
}

fn corpus() -> Corpus {
    let sources: Vec<String> = (0..UNITS).map(unit_source).collect();
    let mut clean_text = Vec::new();
    let mut clean_sum = Vec::new();
    let mut keys = Vec::new();
    for src in &sources {
        let mut program = polaris_ir::parse(src).expect("corpus parses");
        let report =
            polaris_core::compile(&mut program, &polaris_core::PassOptions::polaris())
                .expect("corpus compiles");
        assert!(!report.degraded(), "corpus must compile clean");
        let text = polaris_ir::printer::print_program(&program);
        clean_sum.push(fnv1a(text.as_bytes()));
        clean_text.push(text);
        keys.push(Service::content_key(&req(0, src, None, false)));
    }
    Corpus { sources, clean_text, clean_sum, keys }
}

fn req(id: u64, source: &str, deadline_ms: Option<u64>, return_program: bool) -> Request {
    Request {
        id,
        client: format!("c{}", id % 4),
        vfa: false,
        deadline_ms,
        return_program,
        source: source.into(),
    }
}

fn seeds() -> u64 {
    std::env::var("CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// Run one seeded storm; panics on any conformance violation.
fn run_seed(corpus: &Corpus, seed: u64, pool: usize, record: bool) -> ServiceStats {
    let cursed_unit = (seed as usize) % UNITS;
    let plan = ChaosPlan::seeded(seed)
        .with_panic_pct(8)
        .with_corrupt_pct(6)
        .with_stall(5, 30)
        .with_kill_pct(2)
        .with_poison_pct(10)
        .with_curse(Curse { key: corpus.keys[cursed_unit], from_id: 0, to_id: CURSE_END });
    let cfg = ServiceConfig {
        workers: pool,
        queue_capacity: 24,
        breaker_cooldown: Duration::from_millis(60),
        ..ServiceConfig::default()
    };
    let rec = if record { Recorder::virtual_clock() } else { Recorder::disabled() };
    let service = Service::with_chaos(cfg, rec, plan.clone());

    // One non-cursed, non-stalled request per seed also round-trips the
    // full program text, not just the checksum.
    let sampled = (0..REQUESTS)
        .find(|&id| {
            let u = (id % UNITS as u64) as usize;
            u != cursed_unit && plan.would_stall(corpus.keys[u], id).is_none() && id % 7 != 0
        })
        .expect("some request is plain");

    let build = |id: u64| {
        let u = (id % UNITS as u64) as usize;
        let key = corpus.keys[u];
        let deadline = if plan.is_cursed(key, id) {
            None // keep curse outcomes deterministic: fail by panic, not clock
        } else if plan.would_stall(key, id).is_some() {
            Some(12) // the 30ms stall must blow this
        } else if id.is_multiple_of(7) {
            Some(2_000) // generous: must never be hit
        } else {
            None
        };
        req(id, &corpus.sources[u], deadline, id == sampled)
    };

    let mut responses = Vec::new();
    let mut window: VecDeque<(u64, polarisd::Ticket)> = VecDeque::new();
    // Phase A (ids 0..160): bounded to 16 outstanding — no shedding, so
    // curse/cache/deadline behavior is exercised on every request.
    for id in 0..160 {
        window.push_back((id, service.submit(build(id))));
        if window.len() >= 16 {
            let (id, t) = window.pop_front().unwrap();
            responses.push((id, t.wait_timeout(HANG).unwrap_or_else(|| {
                panic!("seed {seed} pool {pool}: request {id} hung")
            })));
        }
    }
    // Phase B (ids 160..200): a burst past the queue capacity — the
    // service must shed rather than accept unbounded work.
    for id in 160..REQUESTS {
        window.push_back((id, service.submit(build(id))));
    }
    for (id, t) in window {
        responses.push((id, t.wait_timeout(HANG).unwrap_or_else(|| {
            panic!("seed {seed} pool {pool}: request {id} hung")
        })));
    }

    // Conformance checks on every single response.
    assert_eq!(responses.len() as u64, REQUESTS);
    for (id, resp) in &responses {
        let u = (*id % UNITS as u64) as usize;
        let ctx = format!("seed {seed} pool {pool} request {id}: {resp:?}");
        assert_eq!(resp.id, *id, "{ctx}");
        match resp.status {
            Status::Ok | Status::Cached => {
                assert_eq!(resp.exit_code, 0, "{ctx}");
                assert_eq!(
                    resp.checksum,
                    Some(corpus.clean_sum[u]),
                    "served result differs from a clean compile — {ctx}"
                );
                if *id == sampled {
                    assert_eq!(
                        resp.program.as_deref(),
                        Some(corpus.clean_text[u].as_str()),
                        "program text not byte-identical — {ctx}"
                    );
                }
            }
            Status::Degraded => {
                assert!(resp.exit_code == 1 || resp.exit_code == 2, "{ctx}");
                assert!(
                    !resp.degraded_stages.is_empty() || resp.reason.is_some(),
                    "{ctx}"
                );
            }
            Status::Timeout | Status::Quarantined | Status::Rejected => {
                assert_eq!(resp.exit_code, 1, "{ctx}");
            }
            Status::Error => panic!("corpus is valid; no deterministic errors — {ctx}"),
        }
    }

    // The cursed unit must have opened its breaker during the window…
    let stats = service.stats();
    assert!(stats.quarantined >= 1, "seed {seed} pool {pool}: curse never opened the breaker: {stats:?}");

    // …and must recover through a half-open probe once the window is past.
    std::thread::sleep(Duration::from_millis(80));
    let mut recovered = stats.recovered >= 1;
    for k in 0..10 {
        if recovered {
            break;
        }
        let r = service
            .submit(req(10_000 + k, &corpus.sources[cursed_unit], None, false))
            .wait_timeout(HANG)
            .unwrap_or_else(|| panic!("seed {seed} pool {pool}: probe {k} hung"));
        if r.status == Status::Ok || r.status == Status::Cached {
            assert_eq!(r.checksum, Some(corpus.clean_sum[cursed_unit]));
        }
        recovered = service.stats().recovered >= 1;
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(recovered, "seed {seed} pool {pool}: breaker never recovered");

    if record {
        let rec = service.recorder().clone();
        let stats = service.shutdown();
        assert_eq!(stats.accepted, stats.answered, "seed {seed}: lost answers: {stats:?}");
        let counters = rec.counters();
        for name in [
            "polarisd.requests.accepted",
            "polarisd.requests.answered",
            "polarisd.cache.hits",
            "polarisd.cache.misses",
            "polarisd.retry.attempts",
            "polarisd.breaker.quarantined",
            "polarisd.breaker.probes",
            "polarisd.breaker.recovered",
        ] {
            assert!(counters.get(name).copied().unwrap_or(0) > 0, "counter {name} never fired");
        }
        assert_eq!(counters["polarisd.requests.accepted"], stats.accepted);
        if rec.events_dropped() == 0 {
            polaris_obs::validate_nesting(&rec.events()).expect("spans well-nested per worker");
        }
        stats
    } else {
        let stats = service.shutdown();
        assert_eq!(stats.accepted, stats.answered, "seed {seed}: lost answers: {stats:?}");
        stats
    }
}

fn sweep(pool: usize) {
    let corpus = corpus();
    let seeds = seeds();
    let mut total = ServiceStats::default();
    for seed in 0..seeds {
        let s = run_seed(&corpus, seed, pool, seed == 0);
        total.accepted += s.accepted;
        total.answered += s.answered;
        total.shed += s.shed;
        total.cache_hits += s.cache_hits;
        total.poison_purged += s.poison_purged;
        total.retries += s.retries;
        total.deadline_cancels += s.deadline_cancels;
        total.quarantined += s.quarantined;
        total.recovered += s.recovered;
        total.respawns += s.respawns;
    }
    assert_eq!(total.accepted, total.answered, "sweep lost answers: {total:?}");
    assert!(total.quarantined >= seeds, "{total:?}");
    assert!(total.recovered >= seeds, "{total:?}");
    // With ≥8 seeds the fault rates make every injected path a
    // statistical certainty; tiny CHAOS_SEEDS values are for quick local
    // iteration and skip these.
    if seeds >= 8 {
        assert!(total.retries > 0, "no transient fault was ever retried: {total:?}");
        assert!(total.deadline_cancels > 0, "no deadline ever cancelled a compile: {total:?}");
        assert!(total.poison_purged > 0, "no poisoned cache entry was ever purged: {total:?}");
        assert!(total.shed > 0, "overload never shed: {total:?}");
        assert!(total.respawns > 0, "no dead worker was ever respawned: {total:?}");
        assert!(total.cache_hits > 0, "the cache never hit: {total:?}");
    }
}

#[test]
fn chaos_conformance_pool2() {
    sweep(2);
}

#[test]
fn chaos_conformance_pool8() {
    sweep(8);
}

/// Clean out-of-band run checksum for one unit: serial execution with
/// no service and no chaos. By the determinism contract the adaptive
/// 8-proc execution inside the service must reproduce these bytes
/// exactly, whatever the chaos plan does to its decision tables.
fn clean_run_checksum(src: &str) -> u64 {
    let (program, report) =
        polaris_core::parse_and_compile(src, &polaris_core::PassOptions::polaris()).unwrap();
    assert!(!report.degraded());
    let out = polaris_machine::run(&program, &MachineConfig::serial())
        .expect("clean corpus executes")
        .output;
    fnv1a(out.join("\n").as_bytes())
}

/// The adaptive-scheduler axis: execution enabled (`adaptive_schedule`,
/// so programs run on the simulated 8-proc machine under per-content
/// adaptive dispatch) while the chaos plan
///
/// * panics workers *mid-measurement* (`exec_panic` on attempt 1 — the
///   per-attempt fault boundary must retry with the controller left
///   half-measured), and
/// * tears the decision table (`corrupt_decision_table`, any attempt —
///   the controller's integrity word, not the retry machinery, must
///   recover by resetting to static dispatch).
///
/// Cache poisoning runs at 100% so every request recompiles *and
/// re-executes*: the same content key accumulates adaptation history
/// across requests, exactly like cached recompiles in production. Per
/// request the served `run_checksum` must equal a clean serial run;
/// per unit the decision table must end readable, garbage-free, and —
/// for units whose last request was corruption-free — re-dispatched to
/// the measured (static, non-serial) winner.
fn adaptive_storm(pool: usize) {
    const STORM_SEED: u64 = 0xada9;
    const PER_UNIT: u64 = 6;
    let sources: Vec<String> = (0..UNITS).map(unit_source).collect();
    let keys: Vec<u64> =
        sources.iter().map(|s| Service::content_key(&req(0, s, None, false))).collect();
    let clean: Vec<u64> = sources.iter().map(|s| clean_run_checksum(s)).collect();

    let plan = ChaosPlan::seeded(STORM_SEED)
        .with_exec_panic_pct(40)
        .with_corrupt_table_pct(30)
        .with_poison_pct(100);
    // The storm must actually hit a measurement: some unit's *first*
    // request (the controller's measuring invocation) panics mid-run.
    assert!(
        (0..UNITS).any(|u| plan.exec_panic(keys[u], u as u64 * 100, 1).is_some()),
        "storm seed never crashes a measurement invocation — pick a new seed"
    );
    assert!(
        (0..UNITS).any(|u| (0..PER_UNIT)
            .any(|i| plan.corrupt_decision_table(keys[u], u as u64 * 100 + i, 1))),
        "storm seed never corrupts a decision table — pick a new seed"
    );

    let cfg = ServiceConfig {
        workers: pool,
        exec_engine: Some(Engine::Vm),
        exec_fuel: Some(1_000_000),
        adaptive_schedule: true,
        ..ServiceConfig::default()
    };
    let service = Service::with_chaos(cfg, Recorder::disabled(), plan.clone());

    // Requests for one unit are submitted sequentially so its controller
    // sees a deterministic invocation order (concurrent same-key runs
    // would interleave decide/observe — harmless for output bytes, but
    // it would make the end-of-storm table assertions racy).
    for u in 0..UNITS {
        for i in 0..PER_UNIT {
            let id = u as u64 * 100 + i;
            let resp = service
                .submit(req(id, &sources[u], None, false))
                .wait_timeout(HANG)
                .unwrap_or_else(|| panic!("pool {pool}: adaptive request {id} hung"));
            let ctx = format!("pool {pool} unit {u} request {id}: {resp:?}");
            assert_eq!(resp.status, Status::Ok, "exec chaos leaked to the client — {ctx}");
            assert_eq!(
                resp.run_checksum,
                Some(clean[u]),
                "adaptive execution drifted from the clean serial run — {ctx}"
            );
        }

        let rows = service.adaptive_rows(keys[u]);
        assert!(!rows.is_empty(), "pool {pool} unit {u}: no loop was adaptively dispatched");
        for row in &rows {
            // Table corruption XORs invocation counts with 0x5a5a; sane
            // counts prove every torn entry was caught by the integrity
            // word and reset, never trusted.
            assert!(
                row.invocations < 0x1000,
                "pool {pool} unit {u}: garbage adaptation state survived: {row:?}"
            );
            assert!(row.threads >= 1, "pool {pool} unit {u}: {row:?}");
        }
        // If the last request's table was not corrupted, the unit's hot
        // loops (trip 40+ > the tiny-trip cutoff, proven parallel) must
        // have re-dispatched to the static winner.
        let last_id = u as u64 * 100 + PER_UNIT - 1;
        if !plan.corrupt_decision_table(keys[u], last_id, 1) {
            let hot = rows.iter().max_by_key(|r| (r.trip, r.loop_id)).unwrap();
            assert_eq!(
                (hot.strategy, hot.event),
                ("static", "redispatch"),
                "pool {pool} unit {u}: hot loop did not recover to the measured winner: {hot:?}"
            );
        }
    }

    let stats = service.shutdown();
    assert_eq!(stats.accepted, stats.answered, "pool {pool}: lost answers: {stats:?}");
    assert!(
        stats.retries > 0,
        "pool {pool}: no mid-measurement panic was ever retried: {stats:?}"
    );
    assert!(
        stats.poison_purged > 0,
        "pool {pool}: poisoning never forced a re-execution: {stats:?}"
    );
}

#[test]
fn adaptive_chaos_storm_pool2() {
    adaptive_storm(2);
}

#[test]
fn adaptive_chaos_storm_pool8() {
    adaptive_storm(8);
}

//! Targeted, deterministic checks of each resilience behavior in
//! isolation. The randomized end-to-end storm lives in
//! `chaos_conformance.rs`; these tests pin each mechanism with chaos
//! rates at 0 or 100 so a regression points at one subsystem.
//!
//! Together they are the ladder table: every rung a `ChaosPlan`, a
//! deadline or `exec_engine` reaches deterministically is pinned by
//! [`assert_rung`] to its exact response shape. Three rungs no chaos
//! plan reaches (served from cache or rejected after the last attempt
//! panicked, and a request that kills a worker on every attempt: rate
//! faults and worker kills fire on attempt 1 only) are pinned by the
//! service's unit tests instead.

use polaris_machine::Engine;
use polaris_obs::Recorder;
use polarisd::chaos::{ChaosPlan, Curse};
use polarisd::proto::{fnv1a, Request, Response, Status};
use polarisd::service::{Service, ServiceConfig};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(20);

/// The observable shape of one ladder rung: `(status, exit_code,
/// attempts, cached, reason prefix, degraded_stages, retry_after_ms set,
/// checksum set, run_checksum set)`.
type Rung<'a> = (Status, u8, u32, bool, Option<&'a str>, Vec<&'a str>, bool, bool, bool);

#[track_caller]
fn assert_rung(resp: &Response, want: Rung<'_>) {
    let reason = match (resp.reason.as_deref(), want.4) {
        (Some(got), Some(prefix)) if got.starts_with(prefix) => Some(prefix),
        (got, _) => got,
    };
    let got: Rung<'_> = (
        resp.status,
        resp.exit_code,
        resp.attempts,
        resp.cached,
        reason,
        resp.degraded_stages.iter().map(String::as_str).collect(),
        resp.retry_after_ms.is_some(),
        resp.checksum.is_some(),
        resp.run_checksum.is_some(),
    );
    assert_eq!(got, want, "{resp:?}");
}

const OK: Rung<'static> = (Status::Ok, 0, 1, false, None, Vec::new(), false, true, false);
const CACHED: Rung<'static> =
    (Status::Cached, 0, 0, true, None, Vec::new(), false, true, false);

/// A program that runs far longer than any deadline below.
const SPIN: &str = "program spin\n\
                    integer s\n\
                    s = 0\n\
                    do i = 1, 2000000000\n\
                    \x20 s = s + 1\n\
                    end do\n\
                    print *, s\n\
                    end\n";

fn unit_source(tag: u32) -> String {
    let n = 40 + tag * 8;
    format!(
        "program u{tag}\n\
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

/// What the service must reproduce byte-for-byte: an independent clean
/// compile of the same unit under the same options.
fn clean_checksum(source: &str) -> u64 {
    let mut program = polaris_ir::parse(source).expect("corpus parses");
    let report = polaris_core::compile(&mut program, &polaris_core::PassOptions::polaris())
        .expect("corpus compiles");
    assert!(!report.degraded(), "corpus must compile clean");
    fnv1a(polaris_ir::printer::print_program(&program).as_bytes())
}

fn request(id: u64, source: &str) -> Request {
    Request {
        id,
        client: "test".into(),
        vfa: false,
        deadline_ms: None,
        return_program: false,
        source: source.into(),
    }
}

fn cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        breaker_cooldown: Duration::from_millis(40),
        ..ServiceConfig::default()
    }
}

#[test]
fn clean_compile_is_ok_then_served_from_cache() {
    let src = unit_source(1);
    let want = clean_checksum(&src);
    let service = Service::new(cfg(2));

    let first = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(first.status, Status::Ok);
    assert_eq!(first.exit_code, 0);
    assert_eq!(first.attempts, 1);
    assert_eq!(first.checksum, Some(want));
    assert!(!first.cached);
    assert_rung(&first, OK);

    let second = service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(second.status, Status::Cached);
    assert_eq!(second.exit_code, 0);
    assert!(second.cached);
    assert_eq!(second.checksum, Some(want));
    assert_rung(&second, CACHED);

    let stats = service.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.answered, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn vfa_and_polaris_configs_cache_separately() {
    let src = unit_source(2);
    let service = Service::new(cfg(2));
    let polaris = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    let vfa = service
        .submit(Request { id: 2, vfa: true, ..request(2, &src) })
        .wait_timeout(WAIT)
        .unwrap();
    // Different pass configuration ⇒ different content key ⇒ both are
    // compiles, not a cache hit on the other's entry.
    assert_eq!(polaris.status, Status::Ok);
    assert_eq!(vfa.status, Status::Ok);
    assert_eq!(service.stats().cache_hits, 0);
    assert_eq!(service.cache_len(), 2);
}

#[test]
fn parse_error_is_answered_once_and_never_retried() {
    let service = Service::new(cfg(2));
    let resp = service
        .submit(request(1, "program broken\nthis is not f-mini\n"))
        .wait_timeout(WAIT)
        .unwrap();
    assert_eq!(resp.status, Status::Error);
    assert_eq!(resp.exit_code, 1);
    assert_eq!(resp.attempts, 1, "deterministic failures must not burn retries");
    assert_rung(
        &resp,
        (Status::Error, 1, 1, false, Some("compile error: "), vec![], false, false, false),
    );
    assert!(resp.reason.unwrap().contains("compile error"));
    let stats = service.shutdown();
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.quarantined, 0, "deterministic failures never charge the breaker");
}

#[test]
fn transient_panic_is_retried_to_a_clean_answer() {
    let src = unit_source(3);
    let want = clean_checksum(&src);
    // 100% panic rate, but rate faults are transient by construction
    // (attempt 1 only): the retry compiles clean.
    let chaos = ChaosPlan::seeded(5).with_panic_pct(100);
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);
    let resp = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.attempts, 2);
    assert_eq!(resp.checksum, Some(want));
    assert_rung(&resp, (Status::Ok, 0, 2, false, None, vec![], false, true, false));
    let stats = service.shutdown();
    assert_eq!(stats.retries, 1);
}

#[test]
fn a_request_during_the_half_open_probe_is_quarantined() {
    let src = unit_source(14);
    let key = Service::content_key(&request(0, &src));
    // Ids below 100 are cursed; every other first attempt stalls 300 ms
    // and then compiles clean, so the probe stays in flight that long.
    let chaos = ChaosPlan::seeded(3)
        .with_curse(Curse { key, from_id: 0, to_id: 100 })
        .with_stall(100, 300);
    let cooldown = Duration::from_millis(400);
    let service = Service::with_chaos(
        ServiceConfig { breaker_cooldown: cooldown, ..cfg(2) },
        Recorder::disabled(),
        chaos,
    );
    let r1 = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r1.status, Status::Degraded, "{r1:?}");
    std::thread::sleep(cooldown + Duration::from_millis(20));
    let probe = service.submit(request(200, &src));
    std::thread::sleep(Duration::from_millis(60));
    let r2 = service.submit(request(201, &src)).wait_timeout(WAIT).unwrap();
    assert_rung(
        &r2,
        (
            Status::Quarantined,
            1,
            0,
            false,
            Some("quarantined (half-open probe in flight)"),
            vec!["degraded: rolled back analyze"; 3],
            true,
            false,
            false,
        ),
    );
    assert_rung(&probe.wait_timeout(WAIT).unwrap(), OK);
    let stats = service.shutdown();
    assert_eq!((stats.probes, stats.recovered), (1, 1), "{stats:?}");
}

#[test]
fn a_deadline_already_passed_is_answered_without_a_compile() {
    let src = unit_source(15);
    let service = Service::new(cfg(1));
    let resp = service
        .submit(Request { deadline_ms: Some(0), ..request(1, &src) })
        .wait_timeout(WAIT)
        .unwrap();
    assert_rung(
        &resp,
        (
            Status::Timeout,
            1,
            0,
            false,
            Some("deadline exceeded before compile"),
            vec![],
            true,
            false,
            false,
        ),
    );
    let stats = service.shutdown();
    assert_eq!((stats.retries, stats.cache_misses), (0, 1), "{stats:?}");
}

#[test]
fn executed_requests_answer_ok_error_or_degraded_by_what_the_run_did() {
    let src = unit_source(16);
    let exec = |exec_fuel| ServiceConfig {
        exec_engine: Some(Engine::Vm),
        exec_fuel,
        ..cfg(1)
    };

    let service = Service::new(exec(None));
    let ok = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_rung(&ok, (Status::Ok, 0, 1, false, None, vec![], false, true, true));
    // A cache hit carries the compile's checksum but never re-runs.
    let hit = service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    assert_rung(&hit, CACHED);
    // The compile finishes well inside 40 ms; the run does not.
    let spin = service
        .submit(Request { deadline_ms: Some(40), ..request(3, SPIN) })
        .wait_timeout(WAIT)
        .unwrap();
    assert_rung(
        &spin,
        (
            Status::Degraded,
            1,
            1,
            false,
            Some("deadline during execution: "),
            vec![],
            false,
            true,
            false,
        ),
    );
    service.shutdown();

    let service = Service::new(exec(Some(10)));
    let starved = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_rung(
        &starved,
        (Status::Error, 1, 1, false, Some("execution error: "), vec![], false, true, false),
    );
    let stats = service.shutdown();
    assert_eq!((stats.retries, stats.quarantined), (0, 0), "{stats:?}");
}

#[test]
fn cursed_unit_is_quarantined_then_recovers_through_a_probe() {
    let src = unit_source(4);
    let want = clean_checksum(&src);
    let key = Service::content_key(&request(0, &src));
    let chaos = ChaosPlan::seeded(9).with_curse(Curse { key, from_id: 0, to_id: 100 });
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);

    // Every attempt of a cursed request panics in `analyze`; the pipeline
    // rolls the stage back each time, so after all retries the request is
    // served the degraded program — and three consecutive failures
    // (threshold 3) open the breaker.
    let r1 = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r1.status, Status::Degraded);
    assert_eq!(r1.exit_code, 1);
    assert_eq!(r1.attempts, 3);
    assert!(r1.reason.as_deref().unwrap().contains("rolled back"));
    assert_eq!(r1.degraded_stages, vec!["analyze".to_string()]);
    let rolled_back = "degraded: rolled back analyze";
    assert_rung(
        &r1,
        (Status::Degraded, 1, 3, false, Some(rolled_back), vec!["analyze"], false, true, false),
    );

    // Quarantined: answered from stored diagnostics, no compile at all.
    let r2 = service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r2.status, Status::Quarantined);
    assert_eq!(r2.attempts, 0);
    assert!(!r2.degraded_stages.is_empty(), "serves the stored diagnostics");
    assert!(r2.retry_after_ms.is_some());
    assert_rung(
        &r2,
        (
            Status::Quarantined,
            1,
            0,
            false,
            Some("quarantined after 3 repeated failures (cooling down)"),
            vec![rolled_back; 3],
            true,
            false,
            false,
        ),
    );

    // After the cooldown, a request outside the curse window is admitted
    // as the half-open probe, compiles clean, and closes the breaker.
    std::thread::sleep(Duration::from_millis(55));
    let r3 = service.submit(request(200, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r3.status, Status::Ok);
    assert_eq!(r3.checksum, Some(want));
    assert_rung(&r3, OK);

    let stats = service.shutdown();
    assert!(stats.quarantined >= 1, "{stats:?}");
    assert_eq!(stats.recovered, 1, "{stats:?}");
    assert!(stats.probes >= 1, "{stats:?}");
}

#[test]
fn cached_units_absorb_a_curse_without_charging_the_breaker() {
    let src = unit_source(5);
    let want = clean_checksum(&src);
    let key = Service::content_key(&request(0, &src));
    // Curse starts at id 10: id 1 compiles clean and populates the cache.
    let chaos = ChaosPlan::seeded(2).with_curse(Curse { key, from_id: 10, to_id: 100 });
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);

    assert_eq!(service.submit(request(1, &src)).wait_timeout(WAIT).unwrap().status, Status::Ok);
    // The cursed request never reaches the pipeline — the cache rung of
    // the ladder answers it, so the curse cannot open the breaker.
    let r = service.submit(request(10, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r.status, Status::Cached);
    assert_eq!(r.checksum, Some(want));
    assert_rung(&r, CACHED);
    let stats = service.shutdown();
    assert_eq!(stats.quarantined, 0);
}

#[test]
fn failed_probe_reopens_the_breaker() {
    let src = unit_source(13);
    let key = Service::content_key(&request(0, &src));
    // Everything below id 100 is cursed; nothing is ever cached.
    let chaos = ChaosPlan::seeded(7).with_curse(Curse { key, from_id: 0, to_id: 100 });
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);

    let r1 = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r1.status, Status::Degraded); // 3 failed attempts → open
    std::thread::sleep(Duration::from_millis(55));
    // The probe is admitted but is itself cursed: it must fail and
    // re-open the breaker for a fresh cooldown.
    let r2 = service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r2.status, Status::Degraded);
    let r3 = service.submit(request(3, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r3.status, Status::Quarantined, "re-opened: back to serving diagnostics");
    // A clean probe after the next cooldown still recovers it.
    std::thread::sleep(Duration::from_millis(55));
    let r4 = service.submit(request(200, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(r4.status, Status::Ok);
    let stats = service.shutdown();
    assert!(stats.quarantined >= 2, "opened at least twice: {stats:?}");
    assert_eq!(stats.recovered, 1);
    assert!(stats.probes >= 2);
}

#[test]
fn poisoned_cache_entry_is_purged_and_recompiled_not_served() {
    let src = unit_source(6);
    let want = clean_checksum(&src);
    // Poison the cache entry after every response.
    let chaos = ChaosPlan::seeded(4).with_poison_pct(100);
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);

    let first = service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(first.status, Status::Ok);
    // The entry is now corrupted. The integrity check must catch it: a
    // full recompile (status ok, not cached), never the poisoned bytes.
    let second = service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    assert_eq!(second.status, Status::Ok, "poisoned entry must not be served");
    assert_eq!(second.checksum, Some(want));
    let stats = service.shutdown();
    assert_eq!(stats.poison_purged, 1);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn deadline_blow_mid_compile_degrades_instead_of_hanging() {
    let src = unit_source(7);
    // Every first attempt stalls 300ms inside the induction stage; the
    // request carries a 30ms deadline. The watchdog must cancel the
    // compile cooperatively and the caller gets a degraded answer fast.
    let chaos = ChaosPlan::seeded(8).with_stall(100, 300);
    let service = Service::with_chaos(cfg(2), Recorder::disabled(), chaos);
    let resp = service
        .submit(Request { deadline_ms: Some(30), ..request(1, &src) })
        .wait_timeout(WAIT)
        .expect("must answer well before the hang detector");
    assert_eq!(resp.status, Status::Degraded);
    assert_eq!(resp.exit_code, 1);
    assert_eq!(resp.attempts, 1, "deadline blows are never retried");
    assert!(resp.reason.as_deref().unwrap().contains("deadline"));
    assert!(!resp.degraded_stages.is_empty(), "stages after the stall rolled back");
    // The watchdog fires during the stall; `induction` still completes
    // and every stage after it is cancelled.
    let stages = polaris_core::STAGE_NAMES[4..].to_vec();
    assert_rung(
        &resp,
        (Status::Degraded, 1, 1, false, Some("deadline: "), stages, false, true, false),
    );
    let stats = service.shutdown();
    assert!(stats.deadline_cancels >= 1, "{stats:?}");
    assert_eq!(stats.retries, 0);
}

#[test]
fn generous_deadline_is_not_hit_and_result_is_clean() {
    let src = unit_source(8);
    let want = clean_checksum(&src);
    let service = Service::new(cfg(2));
    let resp = service
        .submit(Request { deadline_ms: Some(5_000), ..request(1, &src) })
        .wait_timeout(WAIT)
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.checksum, Some(want));
    assert_eq!(service.stats().deadline_cancels, 0);
}

#[test]
fn overload_sheds_the_oldest_queued_request_with_a_hint() {
    let src = unit_source(9);
    // One worker, tiny queue, every compile stalls 80ms: submissions
    // outrun the drain and the queue must shed.
    let chaos = ChaosPlan::seeded(3).with_stall(100, 80);
    let service = Service::with_chaos(
        ServiceConfig { workers: 1, queue_capacity: 2, ..cfg(1) },
        Recorder::disabled(),
        chaos,
    );
    let tickets: Vec<_> = (0..6).map(|i| service.submit(request(i, &src))).collect();
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait_timeout(WAIT).unwrap()).collect();
    let shed: Vec<_> = responses
        .iter()
        .filter(|r| r.status == Status::Rejected)
        .collect();
    assert!(!shed.is_empty(), "queue of 2 cannot absorb 6 stalled requests");
    for r in &shed {
        assert!(r.reason.as_deref().unwrap().contains("shed"));
        assert!(r.retry_after_ms.is_some(), "shed responses carry a backoff hint");
        assert_rung(
            r,
            (Status::Rejected, 1, 0, false, Some("shed: queue full"), vec![], true, false, false),
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.shed, shed.len() as u64);
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.answered, 6, "shed requests are still answered");
}

#[test]
fn dead_worker_is_respawned_and_the_orphan_is_answered() {
    let src = unit_source(10);
    let want = clean_checksum(&src);
    // Every request's first attempt kills its worker. The watchdog must
    // respawn the (only) worker and re-queue the orphan, which then
    // compiles clean on attempt 2.
    let chaos = ChaosPlan::seeded(6).with_kill_pct(100);
    let service = Service::with_chaos(
        ServiceConfig { workers: 1, ..cfg(1) },
        Recorder::disabled(),
        chaos,
    );
    for id in 1..=2 {
        let resp = service.submit(request(id, &src)).wait_timeout(WAIT).unwrap();
        // id 1 compiles on attempt 2; id 2 hits the cache it populated
        // (cache reads happen before the kill roll).
        assert!(resp.status == Status::Ok || resp.status == Status::Cached, "{resp:?}");
        assert_eq!(resp.checksum, Some(want));
        let retried_ok = (Status::Ok, 0, 2, false, None, vec![], false, true, false);
        assert_rung(&resp, if id == 1 { retried_ok } else { CACHED });
    }
    let stats = service.shutdown();
    assert!(stats.respawns >= 1, "{stats:?}");
    assert_eq!(stats.answered, 2);
}

#[test]
fn counters_and_spans_land_in_the_recorder() {
    let src = unit_source(11);
    let service = Service::with_recorder(cfg(2), Recorder::virtual_clock());
    service.submit(request(1, &src)).wait_timeout(WAIT).unwrap();
    service.submit(request(2, &src)).wait_timeout(WAIT).unwrap();
    let rec = service.recorder().clone();
    service.shutdown(); // workers end their spans before we read events
    let counters = rec.counters();
    assert_eq!(counters["polarisd.requests.accepted"], 2);
    assert_eq!(counters["polarisd.requests.answered"], 2);
    assert_eq!(counters["polarisd.cache.hits"], 1);
    assert_eq!(counters["polarisd.cache.misses"], 1);
    let events = rec.events();
    assert!(
        events.iter().any(|e| e.cat == "polarisd" && e.name.starts_with("request:")),
        "per-request spans recorded"
    );
    polaris_obs::validate_nesting(&events).expect("span stream well-nested per worker");
}

#[test]
fn shutdown_is_graceful_and_final_stats_balance() {
    let src = unit_source(12);
    let service = Service::new(cfg(2));
    let tickets: Vec<_> = (0..8).map(|i| service.submit(request(i, &src))).collect();
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.answered, 8);
    // Shutdown drained the queue: every ticket resolves, compiled or
    // served from the cache, never rejected.
    for t in tickets {
        let resp = t.wait_timeout(Duration::from_secs(1));
        assert!(resp.is_some());
        let resp = resp.unwrap();
        assert_rung(&resp, if resp.cached { CACHED } else { OK });
    }
}

//! The engine axis of the chaos suite: with execution enabled
//! (`exec_engine`), a seeded storm of panics injected *inside statement
//! dispatch* must be isolated and retried by the per-attempt fault
//! boundary exactly as compile-stage panics are — identically under the
//! tree-walker and the bytecode VM, and identically across pool sizes.
//!
//! Per configuration (pool ∈ {2, 8} × engine ∈ {tree-walk, vm}):
//!
//! * every accepted request is answered (`accepted == answered`);
//! * every `ok` response carries the run checksum of a clean
//!   out-of-band execution of the same unit;
//! * injected exec panics are retried (`stats.retries > 0`) and the
//!   retry succeeds — a dispatch panic never surfaces to the client.
//!
//! Across all four configurations the `(status, exit_code,
//! run_checksum)` sequence must be byte-identical: fault handling may
//! not depend on which engine dispatched the statement or how many
//! workers raced.

use polaris_machine::{Engine, MachineConfig};
use polaris_obs::Recorder;
use polarisd::chaos::ChaosPlan;
use polarisd::proto::{fnv1a, Request, Status};
use polarisd::service::{Service, ServiceConfig};
use std::time::Duration;

const REQUESTS: u64 = 40;
const SEED: u64 = 0xbc_0ffee;
const HANG: Duration = Duration::from_secs(20);

/// One unique unit per request id — no cache hits, so every request
/// executes, and the per-key chaos roll is the same in every
/// configuration.
fn unit_source(id: u64) -> String {
    let n = 24 + id;
    format!(
        "program e{id}\n\
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

/// Clean out-of-band checksum: compile and execute the unit with no
/// service and no chaos in the way.
fn clean_run_checksum(src: &str, engine: Engine) -> u64 {
    let (program, report) =
        polaris_core::parse_and_compile(src, &polaris_core::PassOptions::polaris()).unwrap();
    assert!(!report.degraded());
    let out = polaris_machine::run(&program, &MachineConfig::serial().with_engine(engine))
        .expect("clean corpus executes")
        .output;
    fnv1a(out.join("\n").as_bytes())
}

fn run_config(pool: usize, engine: Engine) -> Vec<(Status, u8, Option<u64>)> {
    let plan = ChaosPlan::seeded(SEED).with_exec_panic_pct(30);
    let cfg = ServiceConfig {
        workers: pool,
        exec_engine: Some(engine),
        exec_fuel: Some(1_000_000),
        ..ServiceConfig::default()
    };
    let service = Service::with_chaos(cfg, Recorder::disabled(), plan);

    let mut outcomes = Vec::new();
    for id in 0..REQUESTS {
        let resp = service
            .submit(Request {
                id,
                client: format!("e{}", id % 4),
                vfa: false,
                deadline_ms: None,
                return_program: false,
                source: unit_source(id),
            })
            .wait_timeout(HANG)
            .unwrap_or_else(|| panic!("pool {pool} {engine:?}: request {id} hung"));
        let ctx = format!("pool {pool} {engine:?} request {id}: {resp:?}");
        assert_eq!(resp.status, Status::Ok, "a dispatch panic leaked to the client — {ctx}");
        assert_eq!(resp.exit_code, 0, "{ctx}");
        assert_eq!(
            resp.run_checksum,
            Some(clean_run_checksum(&unit_source(id), engine)),
            "served execution output differs from a clean run — {ctx}"
        );
        outcomes.push((resp.status, resp.exit_code, resp.run_checksum));
    }

    let stats = service.shutdown();
    assert_eq!(
        stats.accepted, stats.answered,
        "pool {pool} {engine:?}: accepted requests went unanswered"
    );
    assert!(
        stats.retries > 0,
        "pool {pool} {engine:?}: the storm injected no exec panics — the retry \
         path was not exercised (stats: {stats:?})"
    );
    outcomes
}

#[test]
fn exec_panics_are_isolated_and_retried_identically_across_engines_and_pools() {
    let mut all = Vec::new();
    for pool in [2usize, 8] {
        for engine in [Engine::TreeWalk, Engine::Vm] {
            all.push(((pool, engine), run_config(pool, engine)));
        }
    }
    let (baseline_cfg, baseline) = &all[0];
    for (cfg, outcomes) in &all[1..] {
        assert_eq!(
            outcomes, baseline,
            "{cfg:?} diverged from {baseline_cfg:?}: fault handling must not \
             depend on the engine or the pool size"
        );
    }
}

//! Regenerate Figure 6: speedup and potential slowdown of the PD test
//! on the TRACK NLFILT/300 partially parallel loop, versus processor
//! count.
//!
//! Panel 1 (speedup): the kernel's scatter loop is parallel in 90% of
//! its invocations; the failing invocations pay the test and re-execute
//! serially. Speedup over the serial program is reported for 1..8
//! processors (the paper used an 8-processor Alliant FX/80).
//!
//! Panel 2 (potential slowdown): an always-colliding variant measures
//! (T_seq + T_pdt)/T_seq — the price of speculating wrongly, which
//! shrinks as processors are added because the test itself is parallel.
//!
//! The right column of panel 1 is the real-thread PD curve: the same
//! program through the machine's threaded backend, whose lanes mark
//! their own shadows and commit only if the test passes (wall-clock,
//! machine-dependent; the output is asserted equal to serial at every p).

use polaris_bench::bar;
use polaris_core::PassOptions;
use polaris_machine::{run, run_serial, MachineConfig, Schedule};

fn main() {
    let track = polaris_benchmarks::track();

    println!("Figure 6 (simulated): TRACK NLFILT-style loop, 90% parallel invocations");
    println!();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("Speedup vs processors (simulated cycles; right column: the same");
    println!("program, PD test included, on real threads — wall-clock, {cores} core(s)):");
    let serial = run_serial(&track.program()).unwrap();
    let mut pol = track.program();
    polaris_core::compile(&mut pol, &PassOptions::polaris()).unwrap();
    for p in 1..=8usize {
        let r = run(&pol, &MachineConfig::challenge_8().with_procs(p)).unwrap();
        assert_eq!(r.output, serial.output);
        let s = serial.cycles as f64 / r.cycles as f64;
        let rt = run(&pol, &MachineConfig::threaded(p, Schedule::Static)).unwrap();
        assert_eq!(rt.output, serial.output);
        println!(
            "  p={p}  speedup {s:5.2}x  |{:<40}  threaded wall {:7.1}ms",
            bar(s, 8.0),
            rt.wall.as_secs_f64() * 1e3
        );
    }

    println!();
    println!("Potential slowdown vs processors (all invocations fail the test,");
    println!("measured on the NLFILT loop itself: (T_seq + T_pdt)/T_seq):");
    let fail_src = track.source.replace("mod(inv, 10) .eq. 0", "inv .ge. 1");
    let fail_prog = polaris_ir::parse(&fail_src).unwrap();
    let fail_serial = run_serial(&fail_prog).unwrap();
    let mut fail_pol = polaris_ir::parse(&fail_src).unwrap();
    polaris_core::compile(&mut fail_pol, &PassOptions::polaris()).unwrap();
    for p in 1..=8usize {
        let r = run(&fail_pol, &MachineConfig::challenge_8().with_procs(p)).unwrap();
        assert_eq!(r.output, fail_serial.output);
        // the loop that attempted speculation:
        let spec_cycles: u64 = r
            .loops
            .values()
            .filter(|s| s.spec_fail + s.spec_success > 0)
            .map(|s| s.cycles)
            .sum();
        let base_cycles: u64 = fail_serial
            .loops
            .iter()
            .filter(|(l, _)| {
                r.loops
                    .get(*l)
                    .map(|s| s.spec_fail + s.spec_success > 0)
                    .unwrap_or(false)
            })
            .map(|(_, s)| s.cycles)
            .sum();
        let slow = if p == 1 || base_cycles == 0 {
            1.0
        } else {
            spec_cycles as f64 / base_cycles as f64
        };
        println!("  p={p}  slowdown {slow:5.3}  |{}", bar((slow - 1.0).max(0.0), 0.5));
    }
}

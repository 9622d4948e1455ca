//! Which fixed computation slows as the operations do when the host slows?
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml \
//!     --example yardstick_probe -- SECONDS compile|exec
//! ```
//!
//! Runs rounds over the 26 kernels (checked compiles, or serial VM runs
//! of the restructured programs) and, in between the operations, the
//! benchmark's yardstick and three loops it was chosen over. Prints, per
//! 10-second window, how much slower than in the fastest window each
//! was, and at the end how far the window medians of the round time
//! spread, as measured and divided by each candidate. The outputs behind
//! the choice are in `results/yardstick-probe-*.txt`.

#[path = "../src/stats.rs"]
#[allow(dead_code)]
mod stats;
#[path = "../src/yardstick.rs"]
#[allow(dead_code)]
mod yardstick;

use polaris::{MachineConfig, PassOptions, Program};
use stats::median;
use std::hint::black_box;
use std::time::Instant;

const WINDOW_S: f64 = 10.0;
const NAMES: [&str; 4] = ["yardstick", "alloc", "sort", "arena"];

fn ms_of<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64() * 1e3
}

/// The yardstick of the first version: allocate, fill, sum and free
/// 30 000 small blocks on the process's own heap.
fn alloc() -> u64 {
    let blocks: Vec<Box<[u64; 8]>> = (0..black_box(30_000)).map(|i| Box::new([i; 8])).collect();
    blocks.iter().map(|b| b[3]).sum()
}

fn sort(template: &[u64], work: &mut Vec<u64>) -> u64 {
    work.clear();
    work.extend_from_slice(template);
    work.sort_unstable();
    work[work.len() / 2]
}

/// What `alloc` does to memory, without the allocator: 80-byte chunks of
/// a private arena, taken off a free list, filled, summed and put back.
struct Arena {
    chunks: Vec<[u64; 10]>,
    free_head: usize,
    live: Vec<usize>,
}

impl Arena {
    fn new(n: usize) -> Arena {
        let chunks = (0..n).map(|i| [0, i as u64 + 1, 0, 0, 0, 0, 0, 0, 0, 0]).collect();
        Arena { chunks, free_head: 0, live: Vec::with_capacity(n) }
    }

    fn run(&mut self) -> u64 {
        self.live.clear();
        for i in 0..black_box(self.chunks.len() as u64 - 1) {
            let at = self.free_head;
            self.free_head = self.chunks[at][1] as usize;
            self.chunks[at][2..].copy_from_slice(&[i; 8]);
            self.live.push(at);
        }
        let sum = self.live.iter().map(|at| self.chunks[*at][5]).sum();
        for at in &self.live {
            self.chunks[*at][1] = self.free_head as u64;
            self.free_head = *at;
        }
        sum
    }
}

fn spread(values: &[f64]) -> f64 {
    let v = stats::sorted(values.to_vec());
    (stats::percentile(&v, 75.0) - stats::percentile(&v, 25.0)) / stats::percentile(&v, 50.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args.next().and_then(|s| s.parse().ok()).expect("SECONDS compile|exec");
    let compile = match args.next().as_deref() {
        Some("compile") => true,
        Some("exec") => false,
        _ => panic!("SECONDS compile|exec"),
    };
    use polaris::benchmarks as b;
    let sources: Vec<&str> = b::all()
        .into_iter()
        .chain([b::track()])
        .chain(b::irregular().into_iter().map(|(k, _)| k))
        .chain([b::skewed()])
        .chain(b::locality().into_iter().map(|(k, _)| k))
        .map(|k| k.source)
        .collect();
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| polaris::parallelize(s, &PassOptions::polaris()).expect("kernel compiles").program)
        .collect();
    let mut arena = Arena::new(30_001);
    let mut x = 99u64;
    let template: Vec<u64> = (0..12_000)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 20
        })
        .collect();
    let mut work = Vec::with_capacity(template.len());

    // per window: medians of [round, candidates...]
    let mut windows: Vec<[f64; 5]> = Vec::new();
    let mut rows: Vec<[f64; 5]> = Vec::new();
    let (started, mut window_started) = (Instant::now(), Instant::now());
    let mut turn = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let mut round = 0.0;
        let (mut sums, mut counts) = ([0.0; 4], [0u32; 4]);
        for (source, program) in sources.iter().zip(&programs) {
            round += if compile {
                ms_of(|| polaris::parallelize(black_box(source), &PassOptions::polaris()))
            } else {
                ms_of(|| polaris::machine::run(black_box(program), &MachineConfig::serial()))
            };
            // one candidate per gap, in turn, each right after an operation
            let which = turn % 4;
            sums[which] += match which {
                0 => yardstick::run_once(),
                1 => ms_of(alloc),
                2 => ms_of(|| sort(black_box(&template), &mut work)),
                _ => ms_of(|| arena.run()),
            };
            counts[which] += 1;
            turn += 1;
        }
        let mut row = [round; 5];
        for k in 0..4 {
            row[k + 1] = sums[k] / f64::from(counts[k].max(1));
        }
        rows.push(row);
        if window_started.elapsed().as_secs_f64() >= WINDOW_S {
            let column = |k: usize| median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
            windows.push([column(0), column(1), column(2), column(3), column(4)]);
            rows.clear();
            window_started = Instant::now();
        }
    }

    let fastest: Vec<f64> =
        (0..5).map(|k| windows.iter().map(|w| w[k]).fold(f64::INFINITY, f64::min)).collect();
    println!("slow-down of each {WINDOW_S}-second window against the fastest window");
    println!("{:>8} {:>10} {:>10} {:>10} {:>10}", "round", NAMES[0], NAMES[1], NAMES[2], NAMES[3]);
    for w in &windows {
        let s: Vec<f64> = (0..5).map(|k| w[k] / fastest[k]).collect();
        println!("{:>8.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}", s[0], s[1], s[2], s[3], s[4]);
    }
    println!("\nquartile distance / median of the {} window medians", windows.len());
    println!(
        "{:<22} {:.3}",
        "round as measured",
        spread(&windows.iter().map(|w| w[0]).collect::<Vec<_>>())
    );
    for (k, name) in NAMES.iter().enumerate() {
        let ratios: Vec<f64> = windows.iter().map(|w| w[0] / w[k + 1]).collect();
        println!("{:<22} {:.3}", format!("round / {name}"), spread(&ratios));
    }
}

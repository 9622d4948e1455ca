//! Seeded random F-Mini program generation and byte-level mutation.
//!
//! The differential fuzz harness (`tests/fuzz_differential.rs`) is built
//! on two generators, both fully deterministic from a `u64` seed:
//!
//! * [`generate_program`] emits a *well-formed* F-Mini program by
//!   construction: every array subscript is provably in `1..=N`, every
//!   loop has a bounded trip count, real arithmetic is restricted to
//!   non-negative monotone forms (so the reassociation restructuring
//!   does stays within the differential harness's relative tolerance),
//!   and integer arithmetic is wrapping-safe. Such programs must
//!   compile, must validate at every pipeline stage boundary, and must
//!   produce identical output serially and restructured — any
//!   divergence is a compiler bug, not a fuzzer artifact.
//! * [`mutate_bytes`] takes well-formed source and corrupts it (bit
//!   flips, splices, truncations, token-ish insertions). The frontend
//!   must refuse such inputs with a [`CompileError`](crate::CompileError)
//!   — never a panic, never a stack overflow.
//!
//! The generator deliberately produces the idioms the restructurer
//! targets — additive inductions, sum/histogram reductions, privatizable
//! temporaries, loop-invariant conditionals — so the differential tests
//! exercise the transformation paths, not just the parser.

/// SplitMix64: tiny, seedable, and good enough for corpus generation.
/// (Same construction as the vendored proptest's `TestRng`.)
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

const REAL_SCALARS: [&str; 4] = ["S", "T", "U", "V"];
const INT_SCALARS: [&str; 2] = ["L", "M"];
const ARRAYS: [&str; 3] = ["A", "B", "C"];
const LOOP_VARS: [&str; 3] = ["I", "J", "K"];
/// Positive constants only: keeps every generated real value
/// non-negative, so reductions are monotone sums and the reassociation
/// restructuring does cannot leave the differential harness's tolerance.
const REAL_CONSTS: [&str; 7] = ["0.25", "0.5", "1.0", "1.5", "2.0", "2.5", "3.0"];

struct Gen {
    rng: FuzzRng,
    /// The shared array extent (PARAMETER N).
    n: u64,
    out: String,
    indent: usize,
}

impl Gen {
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.rng.chance(num, den)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    // ---- expressions --------------------------------------------------

    /// An array subscript guaranteed inside `1..=n` for any loop variable
    /// in `vars` (all loops run over subranges of `1..=n`).
    fn subscript(&mut self, vars: &[&'static str]) -> String {
        if !vars.is_empty() && self.chance(3, 4) {
            let v = *self.rng.pick(vars);
            if self.chance(1, 3) {
                format!("n + 1 - {v}")
            } else {
                v.to_string()
            }
        } else {
            format!("{}", 1 + self.rng.below(self.n))
        }
    }

    /// A real-valued expression. `forbid` excludes one name from the
    /// operands (the assignment target, so self-reference stays under the
    /// caller's control and multiplicative self-feedback cannot compound
    /// values to infinity).
    fn rexpr(&mut self, depth: u32, forbid: &str, vars: &[&'static str]) -> String {
        if depth == 0 || self.chance(2, 5) {
            // leaf
            loop {
                match self.rng.below(4) {
                    0 => return self.rng.pick(&REAL_CONSTS).to_string(),
                    1 => {
                        let s = *self.rng.pick(&REAL_SCALARS);
                        if s != forbid {
                            return s.to_string();
                        }
                    }
                    2 => {
                        let a = *self.rng.pick(&ARRAYS);
                        if a != forbid {
                            let sub = self.subscript(vars);
                            return format!("{a}({sub})");
                        }
                    }
                    _ => {
                        if let Some(v) = vars.last() {
                            return v.to_string();
                        }
                    }
                }
            }
        }
        let lhs = self.rexpr(depth - 1, forbid, vars);
        match self.rng.below(10) {
            0..=5 => {
                let rhs = self.rexpr(depth - 1, forbid, vars);
                format!("{lhs} + {rhs}")
            }
            6..=8 => {
                let c = *self.rng.pick(&REAL_CONSTS);
                format!("({lhs}) * {c}")
            }
            _ => {
                let c = *self.rng.pick(&["2.0", "4.0", "8.0"]);
                format!("({lhs}) / {c}")
            }
        }
    }

    /// An integer-valued expression over small operands (wrapping-safe:
    /// magnitudes stay far from `i64` limits for any bounded loop nest).
    fn iexpr(&mut self, depth: u32, forbid: &str, vars: &[&'static str]) -> String {
        if depth == 0 || self.chance(1, 2) {
            loop {
                match self.rng.below(3) {
                    0 => return format!("{}", self.rng.below(6)),
                    1 => {
                        let s = *self.rng.pick(&INT_SCALARS);
                        if s != forbid {
                            return s.to_string();
                        }
                    }
                    _ => {
                        if let Some(v) = vars.last() {
                            return v.to_string();
                        }
                    }
                }
            }
        }
        let lhs = self.iexpr(depth - 1, forbid, vars);
        match self.rng.below(4) {
            0 | 1 => format!("{lhs} + {}", self.iexpr(depth - 1, forbid, vars)),
            2 => format!("{lhs} - {}", 1 + self.rng.below(4)),
            _ => format!("({lhs}) * {}", 1 + self.rng.below(3)),
        }
    }

    fn condition(&mut self, vars: &[&'static str]) -> String {
        let op = *self.rng.pick(&["<", "<=", ">", ">=", "==", "/="]);
        match self.rng.below(3) {
            0 if !vars.is_empty() => {
                let v = *self.rng.pick(vars);
                format!("{v} {op} {}", 1 + self.rng.below(self.n))
            }
            1 => {
                let s = *self.rng.pick(&REAL_SCALARS);
                format!("{s} {op} {}", self.rng.pick(&REAL_CONSTS))
            }
            _ => {
                let a = *self.rng.pick(&INT_SCALARS);
                let b = *self.rng.pick(&INT_SCALARS);
                format!("{a} {op} {b}")
            }
        }
    }

    // ---- statements ---------------------------------------------------

    fn gen_stmt(&mut self, depth: u32, vars: &mut Vec<&'static str>) {
        let can_loop = depth < 3 && vars.len() < LOOP_VARS.len();
        match self.rng.below(if can_loop { 10 } else { 7 }) {
            // scalar assignment (privatizable temporary when re-read)
            0 | 1 => {
                let s = *self.rng.pick(&REAL_SCALARS);
                let e = self.rexpr(2, s, vars);
                self.line(&format!("{s} = {e}"));
            }
            // plain array store
            2 | 3 => {
                let a = *self.rng.pick(&ARRAYS);
                let sub = self.subscript(vars);
                let e = self.rexpr(2, a, vars);
                self.line(&format!("{a}({sub}) = {e}"));
            }
            // sum reduction into a scalar
            4 => {
                let s = *self.rng.pick(&REAL_SCALARS);
                let e = self.rexpr(1, s, vars);
                self.line(&format!("{s} = {s} + {e}"));
            }
            // histogram (single-address) reduction into an array cell
            5 => {
                let a = *self.rng.pick(&ARRAYS);
                let sub = self.subscript(vars);
                let e = self.rexpr(1, a, vars);
                self.line(&format!("{a}({sub}) = {a}({sub}) + {e}"));
            }
            // integer scalar update (induction candidate when additive)
            6 => {
                let s = *self.rng.pick(&INT_SCALARS);
                let e = self.iexpr(1, "", vars);
                self.line(&format!("{s} = {s} + {e}"));
            }
            // IF block (or logical IF)
            7 => {
                let cond = self.condition(vars);
                if self.chance(1, 3) {
                    let s = *self.rng.pick(&REAL_SCALARS);
                    let e = self.rexpr(1, s, vars);
                    self.line(&format!("if ({cond}) {s} = {e}"));
                } else {
                    self.line(&format!("if ({cond}) then"));
                    self.indent += 1;
                    let then_stmts = 1 + self.rng.below(2);
                    self.gen_block(depth + 1, vars, then_stmts);
                    self.indent -= 1;
                    if self.chance(1, 2) {
                        self.line("else");
                        self.indent += 1;
                        let else_stmts = 1 + self.rng.below(2);
                        self.gen_block(depth + 1, vars, else_stmts);
                        self.indent -= 1;
                    }
                    self.line("end if");
                }
            }
            // DO loop
            _ => self.gen_loop(depth, vars),
        }
    }

    fn gen_loop(&mut self, depth: u32, vars: &mut Vec<&'static str>) {
        let v = LOOP_VARS[vars.len()];
        let header = match self.rng.below(4) {
            0 => format!("do {v} = 1, n"),
            1 => format!("do {v} = 2, n"),
            2 => format!("do {v} = 1, n, 2"),
            _ => format!("do {v} = n, 1, -1"),
        };
        self.line(&header);
        self.indent += 1;
        vars.push(v);
        let stmts = 1 + self.rng.below(3);
        self.gen_block(depth + 1, vars, stmts);
        vars.pop();
        self.indent -= 1;
        self.line("end do");
    }

    fn gen_block(&mut self, depth: u32, vars: &mut Vec<&'static str>, stmts: u64) {
        for _ in 0..stmts {
            self.gen_stmt(depth, vars);
        }
    }

    /// The TRFD-style idiom the paper's induction substitution exists
    /// for: a wrap-around counter threading a loop nest, used as a
    /// subscript. `M` is reset so it stays inside `1..=n`.
    fn gen_induction_idiom(&mut self) {
        let a = *self.rng.pick(&ARRAYS);
        let e = self.rexpr(1, a, &["I"]);
        self.line("m = 0");
        self.line("do i = 1, n");
        self.indent += 1;
        self.line("m = m + 1");
        self.line(&format!("{a}(m) = {a}(m) + {e}"));
        self.indent -= 1;
        self.line("end do");
    }
}

/// Generate a self-contained, well-formed F-Mini program from `seed`.
///
/// Guarantees (by construction, for every seed):
/// * parses and compiles under any [`PassOptions`](crate::PassOptions),
/// * executes without traps: all subscripts in bounds, no division by a
///   variable, bounded loops only,
/// * prints a result checksum, so semantic divergence is observable.
pub fn generate_program(seed: u64) -> String {
    let mut rng = FuzzRng::new(seed);
    let n = 8 + rng.below(17); // array extent 8..=24
    let mut g = Gen { rng, n, out: String::new(), indent: 0 };

    g.line("program fuzz");
    g.line(&format!("parameter (n = {n})"));
    g.line("real a(n), b(n), c(n)");
    g.line("real s, t, u, v");
    g.line("integer l, m");
    // Deterministic initial state.
    for (i, s) in REAL_SCALARS.iter().enumerate() {
        let c = REAL_CONSTS[(i + g.rng.below(3) as usize) % REAL_CONSTS.len()];
        g.line(&format!("{s} = {c}"));
    }
    g.line("l = 1");
    g.line("m = 2");
    g.line("do i = 1, n");
    g.indent += 1;
    g.line("a(i) = i * 0.5");
    g.line("b(i) = n + 1 - i");
    g.line("c(i) = 1.0");
    g.indent -= 1;
    g.line("end do");

    // Main body: a few top-level constructs, loops preferred.
    let top = 2 + g.rng.below(3);
    let mut vars: Vec<&'static str> = Vec::new();
    for _ in 0..top {
        if g.chance(3, 5) {
            g.gen_loop(0, &mut vars);
        } else if g.chance(1, 3) {
            g.gen_induction_idiom();
        } else {
            g.gen_stmt(0, &mut vars);
        }
    }

    // Observable checksum: scalars plus a full-array sum.
    g.line("print *, s, t, u, v, l, m");
    g.line("do i = 1, n");
    g.indent += 1;
    g.line("s = s + a(i) + b(i) + c(i)");
    g.indent -= 1;
    g.line("end do");
    g.line("print *, s");
    g.line("end");
    g.out
}

/// Characters the mutator splices in: F-Mini's own alphabet, so
/// mutations explore the parser's decision space instead of dying at
/// the lexer's first "unexpected character".
const SPLICE: &[u8] = b"()*,+-=/.<>:' \n0123456789abcdefghijklmnopqrstuvwxyz!$&";

/// Corrupt well-formed `source` into an arbitrary byte soup the
/// frontend must reject gracefully. Applies 1–8 random edits; the
/// result is lossily re-encoded as UTF-8 (the parser takes `&str`).
pub fn mutate_bytes(source: &str, seed: u64) -> String {
    let mut rng = FuzzRng::new(seed ^ 0xDEAD_BEEF_CAFE_F00D);
    let mut bytes = source.as_bytes().to_vec();
    let edits = 1 + rng.below(8);
    for _ in 0..edits {
        if bytes.is_empty() {
            bytes.push(*rng.pick(SPLICE));
            continue;
        }
        let pos = rng.below(bytes.len() as u64) as usize;
        match rng.below(6) {
            // flip a bit
            0 => bytes[pos] ^= 1 << rng.below(8),
            // overwrite with an alphabet byte
            1 => bytes[pos] = *rng.pick(SPLICE),
            // insert an alphabet byte
            2 => bytes.insert(pos, *rng.pick(SPLICE)),
            // delete a byte
            3 => {
                bytes.remove(pos);
            }
            // truncate (tests incomplete-input handling)
            4 => bytes.truncate(pos),
            // duplicate a random slice (tests repeated-construct handling)
            _ => {
                let end = pos + rng.below((bytes.len() - pos).min(32) as u64 + 1) as usize;
                let slice: Vec<u8> = bytes[pos..end].to_vec();
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(at..at, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_program(42), generate_program(42));
        assert_ne!(generate_program(1), generate_program(2));
        assert_eq!(mutate_bytes("x = 1", 7), mutate_bytes("x = 1", 7));
    }

    #[test]
    fn generated_programs_parse_and_have_observable_output() {
        for seed in 0..64 {
            let src = generate_program(seed);
            let p = polaris_ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(p.units.len(), 1);
            assert!(src.contains("print *"), "seed {seed} has no output");
        }
    }

    #[test]
    fn mutations_actually_change_the_source() {
        let src = generate_program(0);
        let mut changed = 0;
        for seed in 0..32 {
            if mutate_bytes(&src, seed) != src {
                changed += 1;
            }
        }
        assert!(changed >= 30, "mutator too tame: {changed}/32");
    }
}

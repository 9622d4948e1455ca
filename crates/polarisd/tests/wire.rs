//! End-to-end tests of the `polarisd` binary over both transports:
//! JSON-lines on stdin/stdout, and the localhost TCP listener.

use polarisd::proto::{fnv1a, Request, Response, Status};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SRC: &str = "program wire\n\
                   real v(64)\n\
                   s = 0.0\n\
                   do i = 1, 64\n\
                   \x20 v(i) = i * 2.0\n\
                   end do\n\
                   do i = 1, 64\n\
                   \x20 s = s + v(i)\n\
                   end do\n\
                   print *, s\n\
                   end\n";

fn clean_checksum() -> u64 {
    let mut program = polaris_ir::parse(SRC).unwrap();
    polaris_core::compile(&mut program, &polaris_core::PassOptions::polaris()).unwrap();
    fnv1a(polaris_ir::printer::print_program(&program).as_bytes())
}

fn request(id: u64, source: &str) -> String {
    Request {
        id,
        client: "wire-test".into(),
        vfa: false,
        deadline_ms: None,
        return_program: false,
        source: source.into(),
    }
    .to_json()
}

/// Watchdog for the whole test: a child that outlives this is a hang.
struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn stdio_round_trip_answers_every_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_polarisd"))
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn polarisd");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    // Request 1 is answered before the duplicate is sent, so request 2
    // deterministically finds the cache populated (sending both at once
    // would race two compiles of the same unit across the two workers).
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{}", request(1, SRC)).unwrap();
    }
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let r1 = Response::parse(first.trim()).expect("first response parses");
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{}", request(2, SRC)).unwrap();
        writeln!(stdin, "{}", request(3, "not a program")).unwrap();
        writeln!(stdin, "this line is not json").unwrap();
    }
    drop(child.stdin.take()); // EOF: daemon answers what it has and exits
    let mut child = KillOnDrop(child);

    let mut by_id: HashMap<u64, Response> = HashMap::new();
    by_id.insert(r1.id, r1);
    for line in reader.lines() {
        let line = line.expect("read response line");
        let resp = Response::parse(&line).expect("every output line is a polarisd/v1 response");
        by_id.insert(resp.id, resp);
    }
    assert_eq!(by_id.len(), 4, "four lines in, four responses out");

    let want = clean_checksum();
    let r1 = &by_id[&1];
    let r2 = &by_id[&2];
    assert_eq!(r1.exit_code, 0);
    assert_eq!(r2.exit_code, 0);
    assert_eq!(r1.checksum, Some(want));
    assert_eq!(r2.checksum, Some(want));
    assert_eq!(r1.status, Status::Ok, "{r1:?}");
    assert_eq!(r2.status, Status::Cached, "{r2:?}");
    assert_eq!(by_id[&3].status, Status::Error);
    assert_eq!(by_id[&3].exit_code, 1);
    // The non-JSON line is answered on id 0 rather than dropped.
    assert_eq!(by_id[&0].status, Status::Error);
    assert!(by_id[&0].reason.as_deref().unwrap().contains("bad request"));

    assert!(child.0.wait().expect("daemon exits at stdin EOF").success());
}

/// Forty lines sent at once — cold sources, a repeated one, and lines
/// that are not JSON — are all answered, in request order: the ids come
/// back as they went in (a non-JSON line's answer on id 0).
#[test]
fn pipelined_lines_are_answered_in_request_order() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_polarisd"))
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn polarisd");
    let stdout = child.stdout.take().unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut child = KillOnDrop(child);
    let mut want = Vec::new();
    for id in 1..=40u64 {
        let line = match id % 4 {
            0 => "this line is not json".to_string(),
            1 => request(id, &SRC.replace("2.0", &format!("{id}.0"))),
            _ => request(id, SRC),
        };
        want.push(if id % 4 == 0 { 0 } else { id });
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin); // EOF: the daemon answers what it has and exits
    let got: Vec<u64> = BufReader::new(stdout)
        .lines()
        .map(|line| Response::parse(&line.expect("read response line")).expect("a polarisd/v1 response").id)
        .collect();
    assert_eq!(got, want, "every line answered, in request order");
    assert!(child.0.wait().expect("daemon exits at stdin EOF").success());
}

/// In-order answers have a price: a cached request sent right behind a
/// slow one waits for it. The row records that wait: a source of 60
/// loops takes a checked compile of 9–17 ms in a release build (60–80 in
/// a debug one), and the cached line behind it, which the service
/// answers at once, is written just after the slow one's.
#[test]
fn a_cached_line_behind_a_slow_one_waits_for_it() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_polarisd"))
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn polarisd");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut stdin = child.stdin.take().unwrap();
    let mut child = KillOnDrop(child);
    let mut next = || Response::parse(&lines.next().expect("a response line").unwrap()).unwrap();
    writeln!(stdin, "{}", request(1, SRC)).unwrap();
    assert_eq!(next().id, 1, "the warm-up");
    let loops: String = (1..=60).map(|k| format!("do i = 1, 64\n  v(i) = v(i) + {k}.0\nend do\n")).collect();
    let slow = format!("program slow\nreal v(64)\n{loops}print *, v(1)\nend\n");
    let sent = std::time::Instant::now();
    writeln!(stdin, "{}\n{}", request(2, &slow), request(3, SRC)).unwrap();
    let (slow, slow_ms) = (next(), sent.elapsed().as_secs_f64() * 1e3);
    let (cached, cached_ms) = (next(), sent.elapsed().as_secs_f64() * 1e3);
    println!("wire: a cached answer came {cached_ms:.1} ms after it was sent, behind a slow one of {slow_ms:.1} ms");
    assert_eq!((slow.id, slow.exit_code), (2, 0));
    assert!(cached.id == 3 && cached.cached, "{cached:?}");
    drop(stdin);
    assert!(child.0.wait().expect("daemon exits at stdin EOF").success());
}

#[test]
fn tcp_round_trip_on_an_ephemeral_port() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_polarisd"))
        .args(["--workers", "2", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn polarisd");
    let stdout = child.stdout.take().unwrap();
    let child = KillOnDrop(child);

    let mut announce = String::new();
    BufReader::new(stdout).read_line(&mut announce).unwrap();
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad announce line: {announce:?}"));

    let stream = TcpStream::connect(addr).expect("connect to announced address");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{}", request(7, SRC)).unwrap();
    writeln!(writer, "{}", request(8, SRC)).unwrap();
    writer.flush().unwrap();

    let mut by_id = HashMap::new();
    let mut lines = BufReader::new(stream).lines();
    for _ in 0..2 {
        let line = lines.next().expect("connection stays open").unwrap();
        let resp = Response::parse(&line).unwrap();
        by_id.insert(resp.id, resp);
    }
    let want = clean_checksum();
    assert_eq!(by_id[&7].checksum, Some(want));
    assert_eq!(by_id[&8].checksum, Some(want));
    assert_eq!(by_id[&8].exit_code, 0);
    drop(child); // kills the listener
}

//! The `polarisd` daemon: JSON-lines (`polarisd/v1`) over stdin/stdout,
//! plus an optional localhost TCP listener.
//!
//! ```text
//! polarisd [--workers N] [--queue N] [--deadline-ms MS] [--listen ADDR] [--stdio]
//! ```
//!
//! With `--listen 127.0.0.1:0` the chosen address is announced on stdout
//! as `listening on <addr>` before requests are served. Each request line
//! is answered by exactly one response line, in request order, so a
//! response that takes long holds back the ones behind it on its stream.
//! A stream is served by two threads, a reader and a writer, and holds at
//! most `--queue` requests between them: a reader that runs ahead of the
//! writer waits.

use polarisd::proto::{Request, Response, Status};
use polarisd::service::{Service, ServiceConfig, Ticket};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: polarisd [--workers N] [--queue N] [--deadline-ms MS] \
         [--listen ADDR] [--stdio]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                cfg.workers = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--queue" => {
                cfg.queue_capacity =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--deadline-ms" => {
                let ms: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                cfg.default_deadline = Some(Duration::from_millis(ms));
            }
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--stdio" => stdio = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("polarisd: unknown argument {other:?}");
                usage();
            }
        }
    }
    let queue = cfg.queue_capacity;
    let service = Arc::new(Service::new(cfg));

    match listen {
        Some(addr) => serve_tcp(&service, queue, &addr, stdio),
        None => serve(&service, queue, std::io::stdin().lock(), std::io::stdout()),
    }
}

/// Serve one stream of request lines. The reader submits each line,
/// which does not block, and passes its ticket — or the response to a
/// line that is not a request — to one writer thread over a channel of
/// `queue` answers at most; the writer waits them in order.
fn serve(service: &Service, queue: usize, input: impl BufRead, mut output: impl Write + Send) {
    let (tx, rx) = mpsc::sync_channel::<Result<Ticket, Response>>(queue);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for answer in rx {
                let resp = answer.map_or_else(|resp| resp, Ticket::wait);
                if writeln!(output, "{}", resp.to_json()).and_then(|()| output.flush()).is_err() {
                    break;
                }
            }
        });
        for line in input.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let answer = Request::parse(&line).map(|req| service.submit(req)).map_err(|e| {
                // Not even parseable as a request envelope: answer on id 0
                // so the caller sees *something* rather than silence.
                let mut resp = Response::empty(0, Status::Error);
                resp.reason = Some(format!("bad request: {e}"));
                resp
            });
            if tx.send(answer).is_err() {
                break; // the writer's stream is gone
            }
        }
        drop(tx);
    });
}

/// TCP mode: each connection is a stream of its own.
fn serve_tcp(service: &Arc<Service>, queue: usize, addr: &str, also_stdio: bool) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("polarisd: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = listener.local_addr().expect("listener has a local addr");
    println!("listening on {local}");
    let _ = std::io::stdout().flush();

    if also_stdio {
        let service = Arc::clone(service);
        std::thread::spawn(move || serve(&service, queue, std::io::stdin().lock(), std::io::stdout()));
    }
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            if let Ok(reader) = stream.try_clone() {
                serve(&service, queue, BufReader::new(reader), stream);
            }
        });
    }
}

//! The load side: closed-loop request loops over keep-alive connections,
//! sweep jobs polled to their CSV, and the in-process oracle every answer is
//! compared against.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ayd_serve::{AppState, HttpClient, Json, Request, ServerConfig};

/// Connections (and load threads) of every concurrent phase: the host has
/// two cores, and the server needs them too.
pub const CONNECTIONS: usize = 2;

/// The in-process reference: `api::route` on a state built like the
/// server's. Its cache is large so verification never pays eviction; cached
/// and fresh answers are bit-identical by the service's contract.
pub struct Oracle {
    state: Arc<AppState>,
}

impl Oracle {
    pub fn new() -> Self {
        Self {
            state: AppState::new(&ServerConfig {
                threads: CONNECTIONS,
                cache_capacity: 1 << 20,
                ..ServerConfig::default()
            }),
        }
    }

    /// The body `api::route` answers for a POST of `body` to `target`.
    pub fn answer(&self, target: &str, body: &str, csv: bool) -> (u16, String) {
        let (_, response) = ayd_serve::api::route(&self.state, &post(target, body, csv));
        (
            response.status,
            String::from_utf8(response.body).expect("the service renders UTF-8"),
        )
    }
}

/// The parsed form of a POST the benchmark sends.
pub fn post(target: &str, body: &str, csv: bool) -> Request {
    let mut headers = vec![("host".to_string(), "ayd-serve".to_string())];
    if csv {
        headers.push(("accept".to_string(), "text/csv".to_string()));
    }
    headers.push(("content-length".to_string(), body.len().to_string()));
    Request {
        method: "POST".to_string(),
        target: target.to_string(),
        http1_0: false,
        headers,
        body: body.as_bytes().to_vec(),
    }
}

/// The raw bytes of that POST, as the client writes them.
pub fn post_bytes(target: &str, body: &str, csv: bool) -> Vec<u8> {
    let mut head = format!("POST {target} HTTP/1.1\r\nhost: ayd-serve\r\n");
    if csv {
        head.push_str("accept: text/csv\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// A keep-alive connection of the load loops. Unlike the service's own
/// test client it honours `connection: close`, and it tells a connection
/// the server closed before answering (see [`closed_loop`]) from other
/// failures.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    closed: bool,
}

struct Answer {
    status: u16,
    body: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            closed: false,
        })
    }

    fn send(&mut self, request: &[u8]) -> std::io::Result<Answer> {
        // Any failure before the first response byte — a write into a
        // closed socket, a reset, or end-of-stream — means the server had
        // closed the connection without answering.
        fn unanswered<E>(_: E) -> std::io::Error {
            std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection closed before a status line",
            )
        }
        self.writer.write_all(request).map_err(unanswered)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err(unanswered(())),
            Err(e)
                if line.is_empty()
                    && !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(unanswered(e))
            }
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    self.closed = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Answer {
            status,
            body: String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?,
        })
    }
}

/// What a loop does with each 200 answer.
pub enum Check<'a> {
    /// Compare with the expected body of the request's key.
    Expected(&'a [String]),
    /// Keep `(key, body)` for verification after the timed phase.
    Keep,
}

/// One request of a loop: its body, whether it asks for CSV, and its key
/// (the index of the expected answer, or of the generated query).
pub struct Outgoing {
    pub body: String,
    pub csv: bool,
    pub key: u64,
}

/// What one closed loop (all its connections) saw.
#[derive(Default)]
pub struct LoopResult {
    pub latencies_us: Vec<f64>,
    /// Completion time of each answer, seconds from the loop's start
    /// (parallel to `latencies_us`).
    pub done_at_s: Vec<f64>,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub mismatched: u64,
    /// Requests resent on a fresh connection because the server had closed
    /// the previous one without answering.
    pub reconnects: u64,
    pub kept: Vec<(u64, String)>,
    pub elapsed_s: f64,
}

impl LoopResult {
    fn absorb(&mut self, other: LoopResult) {
        self.latencies_us.extend(other.latencies_us);
        self.done_at_s.extend(other.done_at_s);
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.reconnects += other.reconnects;
        self.kept.extend(other.kept);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// A closed loop over [`CONNECTIONS`] keep-alive connections: each sends its
/// next request only after the previous answer arrived. `limit` bounds the
/// run by time (`Duration`) and by request count per connection (`u64`).
/// One connection runs on the calling thread, the other on a scoped thread.
///
/// The server ends a keep-alive connection after a fixed number of requests
/// without announcing it (its last response still says `keep-alive`), so
/// the next request on that connection reads end-of-stream before any
/// response byte. Such a request is sent once more on a fresh connection,
/// as HTTP clients do for a stale keep-alive connection, and counted in
/// `reconnects`; any other failure counts as failed.
pub fn closed_loop(
    addr: &str,
    target: &str,
    limit: (Duration, u64),
    make: &(dyn Fn(usize, u64) -> Outgoing + Sync),
    check: &Check<'_>,
) -> Result<LoopResult, String> {
    let start = Instant::now();
    let run = |connection: usize| -> Result<LoopResult, String> {
        let connect = || Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"));
        let mut conn = connect()?;
        let mut out = LoopResult::default();
        let mut k = 0u64;
        while start.elapsed() < limit.0 && k < limit.1 {
            let request = make(connection, k);
            k += 1;
            let raw = post_bytes(target, &request.body, request.csv);
            let sent = Instant::now();
            let mut response = conn.send(&raw);
            if matches!(&response, Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted) {
                out.reconnects += 1;
                conn = connect()?;
                response = conn.send(&raw);
            }
            let latency = sent.elapsed();
            out.attempted += 1;
            match response {
                Ok(response) if response.status == 200 => {
                    out.ok += 1;
                    out.latencies_us.push(latency.as_secs_f64() * 1e6);
                    out.done_at_s.push(start.elapsed().as_secs_f64());
                    match check {
                        Check::Expected(expected) => {
                            if expected[request.key as usize] != response.body {
                                out.mismatched += 1;
                            }
                        }
                        Check::Keep => out.kept.push((request.key, response.body)),
                    }
                }
                Ok(_) => out.failed += 1,
                Err(_) => {
                    out.failed += 1;
                    conn.closed = true;
                }
            }
            if conn.closed {
                conn = connect()?;
            }
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        Ok(out)
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..CONNECTIONS)
            .map(|connection| scope.spawn(move || run(connection)))
            .collect();
        let mut total = run(0)?;
        for handle in others {
            total.absorb(handle.join().expect("load thread panicked")?);
        }
        Ok(total)
    })
}

/// Length of the slices a timed loop is cut into.
pub const SLICE_S: f64 = 1.0;

impl LoopResult {
    /// Answers per second and median latency of every whole [`SLICE_S`]
    /// slice of the loop. Their medians are the loop's throughput and
    /// latency: a burst of host noise spoils a slice, not the run.
    pub fn slices(&self) -> Vec<(f64, f64)> {
        let count = (self.elapsed_s / SLICE_S).floor() as usize;
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); count];
        for (&at, &latency) in self.done_at_s.iter().zip(&self.latencies_us) {
            if let Some(slice) = latencies.get_mut((at / SLICE_S) as usize) {
                slice.push(latency);
            }
        }
        latencies
            .into_iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| (slice.len() as f64 / SLICE_S, crate::stats::median(&slice)))
            .collect()
    }
}

/// One served sweep job, from submit to the last CSV byte.
pub struct JobRun {
    pub csv: String,
    pub seconds: f64,
    pub polls: u64,
}

/// Interval between status polls: under 1 % of a job's time.
const POLL: Duration = Duration::from_millis(5);

/// Submits `body` to `/v1/sweep` and polls until the CSV arrives.
pub fn run_job(client: &mut HttpClient, body: &str, timeout: Duration) -> Result<JobRun, String> {
    let start = Instant::now();
    let accepted = client
        .post_json("/v1/sweep", body)
        .map_err(|e| format!("sweep submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!(
            "sweep submit: status {} body {}",
            accepted.status, accepted.body
        ));
    }
    let id = Json::parse(&accepted.body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_f64))
        .ok_or("sweep submit: no id")? as u64;
    let path = format!("/v1/sweep/{id}");
    let mut polls = 0;
    loop {
        let poll = client
            .get(&path, Some("text/csv"))
            .map_err(|e| format!("sweep poll: {e}"))?;
        polls += 1;
        if poll.status != 200 {
            return Err(format!("sweep poll: status {}", poll.status));
        }
        if poll.content_type.starts_with("text/csv") {
            return Ok(JobRun {
                csv: poll.body,
                seconds: start.elapsed().as_secs_f64(),
                polls,
            });
        }
        if start.elapsed() > timeout {
            return Err(format!("sweep job {id} unfinished after {timeout:?}"));
        }
        std::thread::sleep(POLL);
    }
}

/// Verifies kept answers against the oracle on [`CONNECTIONS`] threads;
/// returns the number of mismatches.
pub fn verify_kept(
    oracle: &Oracle,
    target: &str,
    kept: &[(u64, String)],
    body_of: &(dyn Fn(u64) -> String + Sync),
) -> u64 {
    let chunk = kept.len().div_ceil(CONNECTIONS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = kept
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|(key, answer)| {
                            let (status, expected) = oracle.answer(target, &body_of(*key), false);
                            status != 200 || &expected != answer
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .sum()
    })
}

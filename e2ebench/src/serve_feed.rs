//! `serve_feed`: a closed loop against an in-process `pka serve`. Each of
//! [`CLIENTS`] connections (one per core) runs feed-backed stream sessions
//! back to back: create the session, POST its records as NDJSON chunks,
//! GET `/progress` every few POSTs, `finish`, then poll `/result`. Sessions
//! name no `shards`, so the server runs its default engine, and write
//! periodic checkpoints to a temporary directory inside the working tree.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pka_gpu::{GpuConfig, KernelId};
use pka_profile::{LightweightRecord, Profiler};
use pka_server::{PkaServer, ServerConfig};
use pka_stream::{
    JsonlSource, KernelSource, SourceRecord, StreamConfig, StreamError, StreamOutcome, StreamPks,
};
use pka_workloads::Workload;
use serde_json::Value;

use crate::layers::{nanos, timed, with_registry, Tracer};
use crate::passes::measure;
use crate::per_layer::{check_sum, ServerLayer, Traced};
use crate::report::Report;
use crate::traced::fnv_hex;
use crate::{repeated_setup, stats, Args, DIGEST_SEED};

/// The launch stream the fed records are cut from.
const SOURCE: &str = "mlperf_gnmt_train";
/// Concurrent client connections, one per core of the 2-core reference
/// host (`README.md`, "serve_feed parameters").
const CLIENTS: usize = 2;
/// Sessions each client runs back to back per pass.
const SESSIONS_PER_CLIENT: usize = 3;
/// Records per session.
const SESSION_RECORDS: u64 = 200_000;
/// Detailed-prefix length of every session (the first records carry the
/// detailed view), as in the `pka serve` session recipes of
/// `EXPERIMENTS.md`.
const PREFIX: u64 = 20_000;
/// Records between periodic checkpoints, as in the same recipes.
const CHECKPOINT_EVERY: u64 = 100_000;
/// A `GET /progress` after every this many POSTs. Chosen: the workload asks
/// for a progress read "every few POSTs", and nothing in the repository
/// fixes the cadence.
const PROGRESS_EVERY: usize = 4;
/// Source label of the fed sessions and of the direct runs alike, so their
/// checkpoints compare byte for byte.
const SOURCE_NAME: &str = "feed:e2ebench";
/// Pause between `/result` polls while the session finishes.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// Longest wait for a reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// The set-up warm-up session: a short prefix and a few chunks take it
/// through every phase of a session at a fraction of a session's cost.
const WARMUP_PREFIX: u64 = 2_000;
const WARMUP_CHUNKS: usize = 3;

/// One client's record stream: NDJSON text and its POST chunk ranges.
struct Input {
    text: String,
    chunks: Vec<Range<usize>>,
}

/// splitmix64: the per-client window offsets derive from the seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// NDJSON lines per `POST /records`: one bounded feed queue's worth at the
/// server's default `--feed-capacity`, so a POST fills the queue once.
fn chunk_lines() -> u64 {
    ServerConfig::default().feed_capacity as u64
}

/// Cuts `SESSION_RECORDS` launches starting at `offset` out of `w`,
/// renumbered from 0, detailed view on the prefix.
fn make_input(w: &Workload, profiler: &Profiler, offset: u64) -> Result<Input, String> {
    let detailed = profiler
        .detailed(w, offset..offset + PREFIX)
        .map_err(|e| format!("profiling the fed prefix: {e}"))?;
    let mut detailed = detailed.into_iter();
    let mut text = String::with_capacity(SESSION_RECORDS as usize * 160);
    let mut chunks = Vec::new();
    let mut chunk_start = 0;
    let chunk_lines = chunk_lines();
    for i in 0..SESSION_RECORDS {
        let kernel = w.kernel(KernelId::new(offset + i));
        let record = SourceRecord {
            lightweight: LightweightRecord::new(KernelId::new(i), &kernel),
            detailed: if i < PREFIX { detailed.next() } else { None },
        };
        text.push_str(&serde_json::to_string(&record.to_jsonl()).map_err(|e| e.to_string())?);
        text.push('\n');
        if (i + 1) % chunk_lines == 0 || i + 1 == SESSION_RECORDS {
            chunks.push(chunk_start..text.len());
            chunk_start = text.len();
        }
    }
    Ok(Input { text, chunks })
}

/// The in-process server; dropping it shuts the server down and joins it.
struct Server {
    server: Arc<PkaServer>,
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start() -> Result<Self, String> {
        let config = ServerConfig::default().with_addr("127.0.0.1:0");
        let server = Arc::new(PkaServer::bind(config).map_err(|e| format!("bind: {e}"))?);
        let addr = server.addr().map_err(|e| e.to_string())?;
        let running = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || running.run())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            server,
            addr,
            thread: Some(thread),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.server.request_stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Fields drop in order: the server stops before its directory goes.
struct State {
    server: Server,
    inputs: Vec<Input>,
    tmp: TempDir,
}

/// A scratch directory under the working tree, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly if another
        // run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn setup(seed: u64) -> Result<State, String> {
    let w = pka_workloads::mlperf::workloads()
        .into_iter()
        .find(|w| w.name() == SOURCE)
        .ok_or_else(|| format!("workload {SOURCE} is missing"))?;
    let profiler = Profiler::new(GpuConfig::v100());
    let span = w.kernel_count() - SESSION_RECORDS;
    let inputs = (0..CLIENTS as u64)
        .map(|c| {
            make_input(
                &w,
                &profiler,
                mix(seed.wrapping_mul(CLIENTS as u64) + c) % span,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tmp = TempDir::new()?;
    let server = Server::start()?;
    let mut stats = ClientStats::default();
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    run_session(
        &mut client,
        (0, &inputs[0]),
        (WARMUP_CHUNKS, WARMUP_PREFIX),
        &tmp.0.join("warmup.json"),
        &mut stats,
    );
    if stats.failed > 0 {
        return Err(format!("warm-up session failed: {:?}", stats.failures));
    }
    Ok(State {
        server,
        inputs,
        tmp,
    })
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server fails the request instead of the whole run.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// What one client observed.
#[derive(Debug, Default)]
struct ClientStats {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    post_ms: Vec<f64>,
    progress_ms: Vec<f64>,
    create_ms: Vec<f64>,
    finish_to_result_ms: Vec<f64>,
    status: BTreeMap<u16, u64>,
    result_polls: u64,
    records: u64,
    /// Per finished session: its input's index, the result's `report` and
    /// the final checkpoint bytes.
    sessions: Vec<(usize, Value, Vec<u8>)>,
}

impl ClientStats {
    /// Counts one request; `expected` lists the statuses that are not a
    /// failure.
    fn request(
        &mut self,
        what: &str,
        r: &std::io::Result<(u16, Vec<u8>)>,
        expected: &[u16],
    ) -> bool {
        self.attempted += 1;
        let ok = match r {
            Ok((code, _)) => {
                *self.status.entry(*code).or_default() += 1;
                expected.contains(code)
            }
            Err(_) => false,
        };
        if !ok {
            self.failed += 1;
            let got = match r {
                Ok((code, body)) => format!("{code} {}", String::from_utf8_lossy(body)),
                Err(e) => e.to_string(),
            };
            self.failures.push(format!("{what}: {got}"));
        }
        ok
    }

    fn merge(&mut self, other: ClientStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.post_ms.extend(other.post_ms);
        self.progress_ms.extend(other.progress_ms);
        self.create_ms.extend(other.create_ms);
        self.finish_to_result_ms.extend(other.finish_to_result_ms);
        for (k, v) in other.status {
            *self.status.entry(k).or_default() += v;
        }
        self.result_polls += other.result_polls;
        self.records += other.records;
        self.sessions.extend(other.sessions);
    }

    /// Adds the request counts to `report` and prints the failures.
    fn report_to(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
    }
}

fn parse(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// One feed-backed session with detailed prefix `prefix` over the first
/// `chunks` chunks of input `idx`.
fn run_session(
    client: &mut Client,
    (idx, input): (usize, &Input),
    (chunks, prefix): (usize, u64),
    ckpt: &Path,
    s: &mut ClientStats,
) {
    let spec = format!(
        "{{\"mode\":\"stream\",\"source\":\"feed\",\"source_name\":\"{SOURCE_NAME}\",\
         \"prefix\":{prefix},\"checkpoint_every\":{CHECKPOINT_EVERY},\"checkpoint_path\":\"{}\"}}",
        ckpt.display()
    );
    let t = Instant::now();
    let r = client.call("POST", "/v1/sessions", &spec);
    s.create_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if !s.request("create session", &r, &[200]) {
        return;
    }
    let Some(id) = r
        .ok()
        .and_then(|(_, b)| parse(&b)?.get("id")?.as_str().map(String::from))
    else {
        s.attempted += 1;
        s.failed += 1;
        s.failures
            .push("create session: no id in the response".into());
        return;
    };
    let base = format!("/v1/sessions/{id}");
    for (i, range) in input.chunks.iter().take(chunks).enumerate() {
        let body = &input.text[range.clone()];
        let t = Instant::now();
        let r = client.call("POST", &format!("{base}/records"), body);
        s.post_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !s.request("post records", &r, &[200]) {
            return;
        }
        s.records += body.bytes().filter(|&b| b == b'\n').count() as u64;
        if (i + 1) % PROGRESS_EVERY == 0 {
            let t = Instant::now();
            let r = client.call("GET", &format!("{base}/progress"), "");
            s.progress_ms.push(t.elapsed().as_secs_f64() * 1e3);
            s.request("get progress", &r, &[200]);
        }
    }
    let r = client.call("POST", &format!("{base}/finish"), "");
    if !s.request("finish", &r, &[200]) {
        return;
    }
    let finished = Instant::now();
    let result = loop {
        let r = client.call("GET", &format!("{base}/result"), "");
        s.result_polls += 1;
        if !s.request("get result", &r, &[200, 202]) {
            return;
        }
        match r {
            Ok((200, body)) => break body,
            _ => std::thread::sleep(POLL_PAUSE),
        }
    };
    s.finish_to_result_ms
        .push(finished.elapsed().as_secs_f64() * 1e3);
    let r = client.call("GET", &format!("{base}/checkpoint"), "");
    if !s.request("get checkpoint", &r, &[200]) {
        return;
    }
    let report = parse(&result)
        .and_then(|v| v.get("report").cloned())
        .unwrap_or(Value::Null);
    s.sessions
        .push((idx, report, r.map(|(_, b)| b).unwrap_or_default()));
}

/// One closed-loop pass: `clients` connections, each running `sessions`
/// sessions on its own input.
fn http_pass(state: &State, clients: usize, sessions: usize) -> ClientStats {
    let per_client: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut s = ClientStats::default();
                    let mut client = match Client::connect(state.server.addr) {
                        Ok(cl) => cl,
                        Err(e) => {
                            s.attempted += 1;
                            s.failed += 1;
                            s.failures.push(format!("connect: {e}"));
                            return s;
                        }
                    };
                    for k in 0..sessions {
                        let idx = (c + k * clients) % state.inputs.len();
                        let ckpt = state.tmp.0.join(format!("c{c}-s{k}.json"));
                        let input = (idx, &state.inputs[idx]);
                        run_session(&mut client, input, (usize::MAX, PREFIX), &ckpt, &mut s);
                    }
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut merged = ClientStats::default();
    for s in per_client {
        merged.merge(s);
    }
    merged
}

fn stream_config() -> StreamConfig {
    StreamConfig::default()
        .with_prefix(PREFIX)
        .with_checkpoint_every(CHECKPOINT_EVERY)
}

/// The fed lines as the stream engine reads them, with the time spent
/// pulling records (line read and JSON parse) summed when `on`.
struct TimedJsonl {
    inner: JsonlSource,
    on: bool,
    ns: u64,
}

impl TimedJsonl {
    fn time<R>(&mut self, f: impl FnOnce(&mut JsonlSource) -> R) -> R {
        if !self.on {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.ns += nanos(t0);
        r
    }
}

impl KernelSource for TimedJsonl {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        self.time(|s| s.next_record(want_detailed))
    }

    fn next_features_into(&mut self, out: &mut Vec<f64>) -> Result<bool, StreamError> {
        self.time(|s| s.next_features_into(out))
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        self.inner.skip(n)
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        self.inner.restart()
    }
}

/// Runs the default engine directly over one input's lines, writing
/// checkpoints like a session does. The engine's record pulls from the
/// JSON-lines source are timed as the `json.parse` layer inside
/// `stream.run`.
fn direct_run(t: &Tracer, input: &Input, ckpt: &Path) -> Result<(StreamOutcome, u64), String> {
    let mut source = TimedJsonl {
        inner: JsonlSource::from_reader(SOURCE_NAME, Cursor::new(input.text.clone())),
        on: t.is_on(),
        ns: 0,
    };
    let mut checkpoints = 0u64;
    let outcome = t.span("stream.run", || {
        let r = StreamPks::new(stream_config()).run(&mut source, |cp| {
            checkpoints += 1;
            t.span("stream.checkpoint_write", || cp.write_to(ckpt))
        });
        t.leaf("json.parse", source.ns);
        r
    });
    let outcome = outcome.map_err(|e| format!("direct stream run: {e}"))?;
    if outcome.report.records != SESSION_RECORDS {
        return Err(format!(
            "direct stream run read {} of {SESSION_RECORDS} records",
            outcome.report.records
        ));
    }
    t.span("stream.checkpoint_write", || {
        outcome.final_checkpoint.write_to(ckpt)
    })
    .map_err(|e| format!("final checkpoint: {e}"))?;
    Ok((outcome, checkpoints + 1))
}

/// Each session's result and checkpoint equal the direct run on its input.
fn check_sessions(
    sessions: &[(usize, Value, Vec<u8>)],
    expected: &[Option<StreamOutcome>],
    report: &mut Report,
) {
    for (idx, got_report, got_ckpt) in sessions {
        let Some(Some(want)) = expected.get(*idx) else {
            report.op(false, || {
                format!("no direct run of input {idx} to compare with")
            });
            continue;
        };
        report.check(
            "session result equals direct run",
            got_report,
            &want.report.to_value(),
        );
        let mut bytes = want.final_checkpoint.to_json();
        bytes.push('\n');
        report.op(*got_ckpt == bytes.as_bytes(), || {
            format!("session checkpoint differs from the direct run on input {idx}")
        });
    }
}

/// Per fed input at [`DIGEST_SEED`]: FNV-1a of the stream selection (K,
/// group counts, projected cycles), as rendered by [`check_digests`].
const SELECTION_DIGESTS: [&str; CLIENTS] = ["6e89bc669550172b", "3481edbd72f87972"];

fn check_digests(expected: &[Option<StreamOutcome>], report: &mut Report) {
    for (i, o) in expected.iter().enumerate() {
        let d = o.as_ref().map(|o| {
            let r = &o.report;
            format!(
                "input{i} k={} counts={:?} projected={}",
                r.selected_k, r.group_counts, r.projected_cycles
            )
        });
        let want = SELECTION_DIGESTS.get(i).map(|w| w.to_string());
        report.check("stream selection digest", d.as_deref().map(fnv_hex), want);
    }
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(|| setup(args.seed))?;
    let mut report = Report::default();
    if args.trace {
        traced_run(&state, &mut report);
        return Ok(report);
    }

    let (passes, timing) = measure(args.seconds, || {
        http_pass(&state, CLIENTS, SESSIONS_PER_CLIENT)
    });
    let mut all = ClientStats::default();
    for s in passes {
        all.merge(s);
    }
    all.report_to(&mut report);
    // The reference runs, one thread per input.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (state.inputs.iter().enumerate())
            .map(|(i, input)| {
                let ckpt = state.tmp.0.join(format!("direct-{i}.json"));
                scope.spawn(move || direct_run(&Tracer::new(false), input, &ckpt))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let expected: Vec<Option<StreamOutcome>> = runs
        .into_iter()
        .map(|run| {
            let run = run.unwrap_or_else(|_| Err("direct stream run panicked".into()));
            report.op_result("direct stream run", run).map(|(o, _)| o)
        })
        .collect();
    check_sessions(&all.sessions, &expected, &mut report);
    if args.seed == DIGEST_SEED {
        check_digests(&expected, &mut report);
    }

    timing.emit(&mut report, setup_s, all.records as f64, "records_per_s");
    report.named("post_p50_ms", stats::percentile(&all.post_ms, 50.0), "ms");
    report.named("post_p99_ms", stats::percentile(&all.post_ms, 99.0), "ms");
    report.named(
        "progress_p50_ms",
        stats::percentile(&all.progress_ms, 50.0),
        "ms",
    );
    report.named(
        "progress_p99_ms",
        stats::percentile(&all.progress_ms, 99.0),
        "ms",
    );
    report.named("post_samples", all.post_ms.len() as f64, "count");
    report.named("progress_samples", all.progress_ms.len() as f64, "count");
    let errors: Vec<f64> = expected
        .iter()
        .flatten()
        .map(|o| o.selection.error_pct())
        .collect();
    report.named("selection_error_pct", stats::median(&errors), "%");
    Ok(report)
}

fn traced_run(state: &State, report: &mut Report) {
    // The HTTP side, one client so that its wall compares with the
    // one-thread direct runs below.
    let (http, http_wall) = timed(|| http_pass(state, 1, state.inputs.len()));
    http.report_to(report);

    // Input by input: untraced, registry on, traced.
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut untraced_wall, mut obs_wall) = (0.0, 0.0);
    let (mut expected, mut records, mut checkpoints) = (Vec::new(), 0, 0);
    for (i, input) in state.inputs.iter().enumerate() {
        let ckpt = state.tmp.0.join(format!("direct-{i}.json"));
        let (untraced, t) = timed(|| direct_run(&off, input, &ckpt));
        untraced_wall += t;
        let (with_obs, t) = with_registry(|| timed(|| direct_run(&off, input, &ckpt)));
        obs_wall += t;
        let traced = tracer.pass(|| direct_run(&tracer, input, &ckpt));
        let Some((untraced, _)) = report.op_result("direct stream run", untraced) else {
            expected.push(None);
            continue;
        };
        if let Some((o, _)) = report.op_result("direct stream run", with_obs) {
            report.check(
                "registry on leaves results unchanged",
                &o.report,
                &untraced.report,
            );
        }
        if let Some((t, n)) = report.op_result("traced direct stream run", traced) {
            report.check(
                "traced run equals the untraced run",
                &t.report,
                &untraced.report,
            );
            records += t.report.records;
            checkpoints += n;
        }
        expected.push(Some(untraced));
    }
    check_sessions(&http.sessions, &expected, report);
    let trace = tracer.finish();
    check_sum(report, &trace);

    let code = |f: fn(u16) -> bool| {
        http.status
            .iter()
            .filter(|(c, _)| f(**c))
            .map(|(_, n)| n)
            .sum()
    };
    let stream_total_s = trace.layer("stream.run").total_ns as f64 / 1e9;
    let server = ServerLayer {
        create_ms: stats::median(&http.create_ms),
        finish_to_result_ms: stats::median(&http.finish_to_result_ms),
        status_200: code(|c| c == 200),
        status_202: code(|c| c == 202),
        status_4xx: code(|c| (400..500).contains(&c)),
        status_5xx: code(|c| c >= 500),
        result_polls: http.result_polls,
        post_p50_ms: stats::percentile(&http.post_ms, 50.0),
        post_p99_ms: stats::percentile(&http.post_ms, 99.0),
        progress_p50_ms: stats::percentile(&http.progress_ms, 50.0),
        progress_p99_ms: stats::percentile(&http.progress_ms, 99.0),
        http_overhead_s: http_wall - stream_total_s,
    };
    let mut traced = Traced::new(trace, untraced_wall, obs_wall);
    traced.stream_records = records;
    traced.stream_checkpoints = checkpoints;
    traced.server = server;
    traced.emit(report);
}

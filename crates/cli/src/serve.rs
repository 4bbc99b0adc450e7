//! `matsciml serve` / `matsciml query` — the TCP property-prediction
//! server over the batched [`InferenceServer`] engine, plus its
//! line-protocol client.
//!
//! The wire protocol is newline-delimited JSON, one request and one
//! response per line, documented normatively in `docs/SERVING.md`:
//!
//! ```text
//! → {"id":1,"index":3}
//! ← {"id":1,"ok":true,"predictions":[[0.8132]],"error":null,"counters":null}
//! ```
//!
//! A connection may send any number of requests; each is answered in
//! order. `{"cmd":"stats"}` returns the server's counters,
//! `{"cmd":"reload","path":"new.mckpt"}` hot-swaps the served model
//! between batches, and `{"cmd":"shutdown"}` stops the server after
//! draining queued work.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use matsciml::obs::{Event, Json, RunStartEvent, SummaryEvent, SCHEMA};
use matsciml::prelude::*;
use serde::{Deserialize, Serialize};

use crate::args::Args;
use crate::commands::dataset_by_name;

/// One request line. Exactly one of `index`, `indices`, `structure`,
/// `structures`, or `cmd` should be set; `id` is echoed back verbatim.
#[derive(Deserialize, Serialize)]
struct WireRequest {
    /// Client correlation id, echoed in the response.
    #[serde(default)]
    id: Option<u64>,
    /// Predict one entry of the server's dataset.
    #[serde(default)]
    index: Option<usize>,
    /// Predict several dataset entries in one request.
    #[serde(default)]
    indices: Option<Vec<usize>>,
    /// Predict one client-supplied structure (`generate` JSON shape).
    #[serde(default)]
    structure: Option<Sample>,
    /// Predict several client-supplied structures.
    #[serde(default)]
    structures: Option<Vec<Sample>>,
    /// Control verb: `stats`, `reload`, or `shutdown`.
    #[serde(default)]
    cmd: Option<String>,
    /// Checkpoint path for `{"cmd":"reload"}`.
    #[serde(default)]
    path: Option<String>,
}

/// One response line.
#[derive(Deserialize, Serialize)]
struct WireResponse {
    id: Option<u64>,
    ok: bool,
    /// `[structure][out_dim]` rows, present on successful predictions.
    predictions: Option<Vec<Vec<f32>>>,
    error: Option<String>,
    /// Present on `{"cmd":"stats"}` responses.
    counters: Option<BTreeMap<String, u64>>,
}

impl WireResponse {
    fn ok(id: Option<u64>, predictions: Vec<Vec<f32>>) -> Self {
        WireResponse { id, ok: true, predictions: Some(predictions), error: None, counters: None }
    }

    fn err(id: Option<u64>, error: impl std::fmt::Display) -> Self {
        WireResponse { id, ok: false, predictions: None, error: Some(error.to_string()), counters: None }
    }
}

/// Serve-config snapshot embedded in the run record's `run_start` line.
#[derive(Serialize)]
struct ServeSnapshot {
    addr: String,
    dataset: String,
    size: usize,
    workers: usize,
    max_batch: usize,
    queue_cap: usize,
    head: usize,
    precision: String,
}

/// `matsciml serve` — load a model, bind a TCP address, serve batched
/// predictions until a client sends `{"cmd":"shutdown"}`.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    let ckpt_path = args.get("ckpt").map(str::to_string);
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let workers = args.num_or("workers", 2usize)?;
    let max_batch = args.num_or("max-batch", 16usize)?;
    let queue_cap = args.num_or("queue-cap", 64usize)?;
    let head = args.num_or("head", 0usize)?;
    let ds_name = args.str_or("dataset", "mp");
    let size = args.num_or("size", 512usize)?;
    let seed = args.num_or("seed", 0u64)?;
    let run_dir = args.get("run-dir").map(str::to_string);
    let precision_arg = args.str_or("precision", "f32");
    args.reject_unknown()?;
    let precision = Precision::parse(&precision_arg)
        .ok_or_else(|| format!("--precision: unknown precision `{precision_arg}` (f32|f16|bf16)"))?;

    let path = ckpt_path.ok_or("pass --ckpt FILE.mckpt")?;
    // Accepts full training checkpoints and `save_model` artifacts alike.
    let loaded = load_infer_model(&path).map_err(|e| e.to_string())?;
    match loaded.stored_precision {
        Some(p) => eprintln!("loaded quantized model {path} ({} storage)", p.name()),
        None => eprintln!("loaded model {path}"),
    }
    let model = loaded.model;
    if head >= model.heads.len() {
        return Err(format!("--head {head} out of range: model has {} heads", model.heads.len()));
    }

    let obs = match &run_dir {
        Some(dir) => Obs::jsonl(std::path::Path::new(dir).join("serve.jsonl"))
            .map_err(|e| format!("cannot create run record in {dir}: {e}"))?,
        None => Obs::null(),
    };
    if obs.enabled() {
        obs.emit(&Event::run_start(RunStartEvent {
            schema: SCHEMA.to_string(),
            world_size: workers as u64,
            per_rank_batch: max_batch as u64,
            steps: 0,
            seed,
            simd_isa: matsciml::tensor::simd_isa().to_string(),
            threads: rayon::current_num_threads() as u64,
            config: Json::snapshot(&ServeSnapshot {
                addr: addr.clone(),
                dataset: ds_name.clone(),
                size,
                workers,
                max_batch,
                queue_cap,
                head,
                precision: precision.name().to_string(),
            })
            .unwrap_or_else(|_| Json::null()),
        }));
    }
    let t_run = obs.timer();

    let dataset: Arc<dyn Dataset> = Arc::from(dataset_by_name(&ds_name, size, seed)?);
    let server = Arc::new(InferenceServer::start(
        model,
        Compose::standard(4.5, Some(12)),
        Some(dataset),
        ServeConfig { workers, max_batch, queue_cap, head, precision, ..Default::default() },
        obs.clone(),
    ));

    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!(
        "serving on {addr} ({workers} workers, max batch {max_batch}, queue cap {queue_cap}, \
         {} inference) — stop with `matsciml-cli query --addr {addr} --shutdown`",
        precision.name()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        // Drop the handles of handlers whose clients already hung up, so
        // a long-lived server holds one handle per open connection only.
        handlers.retain(|h| !h.is_finished());
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        handlers.push(std::thread::spawn(move || {
            if let Err(e) = handle_connection(conn, &server, &stop, &addr) {
                eprintln!("connection error: {e}");
            }
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    server.shutdown();

    if obs.enabled() {
        if let Some(rec) = obs.recorder() {
            let counters = rec.counters();
            obs.emit(&Event::summary(SummaryEvent {
                steps: counters.get("serve/requests").copied().unwrap_or(0),
                wall_time_us: matsciml::obs::Obs::lap_ns(t_run) / 1_000,
                stopped_early: false,
                skipped_updates: 0,
                spike_steps: Vec::new(),
                phases: rec.quantiles(),
                counters,
                final_val: BTreeMap::new(),
            }));
        }
        obs.flush();
    }
    if let Some(dir) = &run_dir {
        eprintln!("serve record: {dir}/serve.jsonl");
    }
    eprintln!("server stopped");
    Ok(())
}

/// Longest request line a connection may send, in bytes, newline
/// excluded: 4 MiB, room for a few thousand client structures in one
/// `structures` request. A longer line is answered with an error and
/// the connection is closed, so a client that never sends a newline
/// cannot grow the handler's buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// After the over-long-line error, the handler half-closes the
/// connection and reads and discards what the client still sends, for at
/// most this long and this many bytes, before it drops the socket.
/// Dropping a socket with unread input sends a reset, which would fail a
/// client still writing its line before it reads the error.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// See [`DRAIN_TIMEOUT`].
const MAX_DRAIN_BYTES: usize = 64 << 20;

/// Serve one client connection: requests in, responses out, line by line.
fn handle_connection(
    conn: TcpStream,
    server: &InferenceServer,
    stop: &AtomicBool,
    addr: &str,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // At most one byte past the cap: enough to tell an over-long
        // line from one that ends exactly at it.
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE_BYTES {
            let error = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; closing the connection");
            send(&mut writer, &WireResponse::err(None, error))?;
            writer.shutdown(Shutdown::Write)?;
            drain(&mut reader);
            break;
        }
        let (response, shutdown) = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => respond(line, server),
            Err(e) => (WireResponse::err(None, format!("malformed request: {e}")), false),
        };
        send(&mut writer, &response)?;
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it can observe the stop flag.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
    Ok(())
}

/// Read and discard the client's remaining input until it closes its
/// side, [`DRAIN_TIMEOUT`] passes or [`MAX_DRAIN_BYTES`] are read.
fn drain(reader: &mut BufReader<TcpStream>) {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut chunk = vec![0u8; 64 << 10];
    let mut drained = 0;
    while drained < MAX_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Write one response line.
fn send(writer: &mut TcpStream, response: &WireResponse) -> std::io::Result<()> {
    let json = serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"encode: {e}\"}}"));
    writer.write_all(json.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Decode one request line and produce its response; the bool asks the
/// caller to begin server shutdown.
fn respond(line: &str, server: &InferenceServer) -> (WireResponse, bool) {
    let req: WireRequest = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return (WireResponse::err(None, format!("malformed request: {e}")), false),
    };
    let id = req.id;
    match req {
        WireRequest { cmd: Some(cmd), path, .. } => match cmd.as_str() {
            "stats" => {
                let counters = server.obs().recorder().map(|r| r.counters()).unwrap_or_default();
                (
                    WireResponse { id, ok: true, predictions: None, error: None, counters: Some(counters) },
                    false,
                )
            }
            "reload" => match path {
                Some(path) => match server.reload(&path) {
                    Ok(()) => (
                        WireResponse { id, ok: true, predictions: None, error: None, counters: None },
                        false,
                    ),
                    Err(e) => (WireResponse::err(id, e), false),
                },
                None => (WireResponse::err(id, "reload needs a `path`"), false),
            },
            "shutdown" => (
                WireResponse { id, ok: true, predictions: None, error: None, counters: None },
                true,
            ),
            other => (WireResponse::err(id, format!("unknown cmd `{other}`")), false),
        },
        WireRequest { index: Some(i), .. } => match server.predict_indices(vec![i]) {
            Ok(rows) => (WireResponse::ok(id, rows), false),
            Err(e) => (WireResponse::err(id, e), false),
        },
        WireRequest { indices: Some(ix), .. } => match server.predict_indices(ix) {
            Ok(rows) => (WireResponse::ok(id, rows), false),
            Err(e) => (WireResponse::err(id, e), false),
        },
        WireRequest { structure: Some(s), .. } => match server.predict_samples(vec![s]) {
            Ok(rows) => (WireResponse::ok(id, rows), false),
            Err(e) => (WireResponse::err(id, e), false),
        },
        WireRequest { structures: Some(ss), .. } => match server.predict_samples(ss) {
            Ok(rows) => (WireResponse::ok(id, rows), false),
            Err(e) => (WireResponse::err(id, e), false),
        },
        _ => (
            WireResponse::err(id, "empty request: set index, indices, structure, structures, or cmd"),
            false,
        ),
    }
}

/// `matsciml query` — one-shot client for a running server.
pub fn cmd_query(args: &Args) -> Result<(), String> {
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let index = args.get("index").map(str::to_string);
    let indices = args.get("indices").map(str::to_string);
    let file = args.get("file").map(str::to_string);
    let stats = args.flag("stats");
    let shutdown = args.flag("shutdown");
    let reload = args.get("reload").map(str::to_string);
    let id = args.num_or("id", 0u64)?;
    args.reject_unknown()?;

    let blank = WireRequest {
        id: Some(id),
        index: None,
        indices: None,
        structure: None,
        structures: None,
        cmd: None,
        path: None,
    };
    let request = if shutdown {
        WireRequest { cmd: Some("shutdown".into()), ..blank }
    } else if stats {
        WireRequest { cmd: Some("stats".into()), ..blank }
    } else if let Some(path) = reload {
        WireRequest { cmd: Some("reload".into()), path: Some(path), ..blank }
    } else if let Some(i) = index {
        let i: usize = i.parse().map_err(|_| format!("--index: cannot parse `{i}`"))?;
        WireRequest { index: Some(i), ..blank }
    } else if let Some(list) = indices {
        let ix = list
            .split(',')
            .map(|t| t.trim().parse::<usize>().map_err(|_| format!("--indices: cannot parse `{t}`")))
            .collect::<Result<Vec<_>, _>>()?;
        WireRequest { indices: Some(ix), ..blank }
    } else if let Some(path) = file {
        // One JSON structure per line, the `generate` output shape.
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let structures = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str::<Sample>(l).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        WireRequest { structures: Some(structures), ..blank }
    } else {
        return Err(
            "pass --index N, --indices A,B,C, --file FILE.jsonl, --reload CKPT, --stats, or --shutdown"
                .into(),
        );
    };

    let stream = TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&request).map_err(|e| e.to_string())?;
    writer.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
    writer.write_all(b"\n").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if line.is_empty() {
        return Err("server closed the connection without responding".into());
    }
    // Echo the raw response line: it is already the documented JSON shape.
    println!("{}", line.trim_end());
    let response: WireResponse = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    if response.ok {
        Ok(())
    } else {
        Err(response.error.unwrap_or_else(|| "request failed".into()))
    }
}

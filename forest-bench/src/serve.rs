//! `serve`: the `forest-serve` binary as its own process on loopback with
//! one registered tenant graph (ExactMatroid), under a closed loop on at
//! most `nproc` (and at most two) connections: a writer sending
//! `ApplyUpdates` batches of 8 (4 deletes of live edges, 4 random inserts)
//! back to back, and a reader cycling `ColorOfEdge`, `ForestOfVertex` and
//! `ArboricityWatermark`. One job is one request round trip.
//!
//! The server's layers live in another process, so the traced run replays
//! the same seeded request streams through `ServerState::handle` and the
//! `protocol` codec in-process; what the socket adds is the round trip
//! minus those two.

use crate::measure::{self, Samples, SpanFold, JOB_SPAN, SERVE_OPS};
use crate::{Ctx, Outcome, Scale};
use forest_decomp::api::{EdgeUpdate, Engine, Validate};
use forest_graph::{EdgeId, VertexId};
use forest_obs::{Span, Stopwatch};
use forest_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use forest_serve::{Client, GraphSource, Request, Response, ServerState};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

const TENANT: &str = "bench";
const GRAPH: &str = "g";

#[derive(Clone, Copy)]
struct Sizes {
    vertices: u64,
    edges: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            vertices: 2_000,
            edges: 6_000,
        },
        Scale::Tiny => Sizes {
            vertices: 200,
            edges: 600,
        },
    }
}

fn register_request(ctx: &Ctx, sizes: &Sizes) -> Request {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let n = sizes.vertices;
    let edges = std::iter::repeat_with(|| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|(u, v)| u != v)
        .take(sizes.edges)
        .collect();
    Request::RegisterGraph {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        engine: Engine::ExactMatroid,
        epsilon: 0.5,
        seed: 13,
        source: GraphSource::Edges {
            num_vertices: n,
            edges,
        },
    }
}

/// Index of a request's operation in [`SERVE_OPS`].
fn op_of(req: &Request) -> usize {
    match req {
        Request::ApplyUpdates { .. } => 0,
        Request::ColorOfEdge { .. } => 1,
        Request::ForestOfVertex { .. } => 2,
        _ => 3,
    }
}

/// The writer's seeded stream: batches of 4 deletes of live edges and 4
/// random inserts. It learns the ids of its inserts from the responses, so
/// the same seed against the same server state gives the same stream.
struct WriterStream {
    rng: StdRng,
    live: Vec<u64>,
    n: u64,
}

impl WriterStream {
    fn new(ctx: &Ctx, sizes: &Sizes) -> Self {
        WriterStream {
            rng: StdRng::seed_from_u64(ctx.seed ^ 0x7772_6974_6572),
            live: (0..sizes.edges as u64).collect(),
            n: sizes.vertices,
        }
    }

    fn next(&mut self) -> Request {
        let mut updates = Vec::with_capacity(8);
        for _ in 0..4 {
            let slot = self.rng.gen_range(0..self.live.len());
            let id = usize::try_from(self.live.swap_remove(slot)).expect("edge ids fit usize");
            updates.push(EdgeUpdate::delete(EdgeId::new(id)));
        }
        while updates.len() < 8 {
            let (u, v) = (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
            if u != v {
                updates.push(EdgeUpdate::insert(
                    VertexId::new(u as usize),
                    VertexId::new(v as usize),
                ));
            }
        }
        Request::ApplyUpdates {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            updates,
        }
    }

    /// Checks an `ApplyUpdates` answer and learns its inserted ids.
    fn observe(&mut self, resp: &Response) -> Result<(), String> {
        match resp {
            Response::Applied {
                applied: 8,
                inserted_edges,
                ..
            } if inserted_edges.len() == 4 => {
                self.live.extend(inserted_edges);
                Ok(())
            }
            other => Err(format!("unexpected ApplyUpdates answer {other:?}")),
        }
    }
}

/// The reader's seeded stream, cycling the three query kinds.
struct ReaderStream {
    rng: StdRng,
    step: u64,
    sizes: Sizes,
}

impl ReaderStream {
    fn new(ctx: &Ctx, sizes: Sizes) -> Self {
        ReaderStream {
            rng: StdRng::seed_from_u64(ctx.seed ^ 0x7265_6164_6572),
            step: 0,
            sizes,
        }
    }

    fn next(&mut self) -> Request {
        self.step += 1;
        let (tenant, graph) = (TENANT.to_string(), GRAPH.to_string());
        match self.step % 3 {
            1 => Request::ColorOfEdge {
                tenant,
                graph,
                edge: self.rng.gen_range(0..self.sizes.edges as u64),
            },
            // Colors 0 and 1 exist at every epoch: a random graph with
            // this density never falls below two forests.
            2 => Request::ForestOfVertex {
                tenant,
                graph,
                color: self.step % 2,
                vertex: self.rng.gen_range(0..self.sizes.vertices),
            },
            _ => Request::ArboricityWatermark { tenant, graph },
        }
    }

    fn check(&self, resp: &Response) -> Result<(), String> {
        match resp {
            Response::EdgeColor { .. } => Ok(()),
            Response::VertexForest { root, .. } if *root < self.sizes.vertices => Ok(()),
            Response::Watermark {
                lower_bound,
                color_budget,
                num_vertices,
                ..
            } if lower_bound <= color_budget && *num_vertices == self.sizes.vertices => Ok(()),
            other => Err(format!("unexpected query answer {other:?}")),
        }
    }
}

/// The server process; shut down and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn start(ctx: &Ctx) -> Result<ServerProc, String> {
        let bin = ctx
            .server_bin
            .as_ref()
            .ok_or("the serve workload needs --server-bin")?;
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout missing")?);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("forest-serve listening on "))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {line:?}"));
        };
        Ok(ServerProc {
            child,
            addr,
            _stdout: stdout,
        })
    }

    fn peak_rss_mb(&self) -> f64 {
        measure::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let stopped = Client::connect(self.addr)
                .map(|mut c| c.shutdown().is_ok())
                .unwrap_or(false);
            let clock = Stopwatch::start();
            while stopped && clock.elapsed().as_secs() < 10 {
                if !matches!(self.child.try_wait(), Ok(None)) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A started server with the tenant graph registered over the writer's
/// connection.
struct Served {
    writer: Client,
    server: ServerProc,
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> Result<Served, String> {
    let server = ServerProc::start(ctx)?;
    let mut writer = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    match writer.call(&register_request(ctx, sizes)) {
        Ok(Response::Registered { .. }) => Ok(Served { writer, server }),
        other => Err(format!("register failed: {other:?}")),
    }
}

/// Round trips of one load phase, per operation, in microseconds.
#[derive(Default)]
struct Load {
    per_op: [Samples; 4],
    all: Samples,
    attempted: u64,
    failed: u64,
    batches: u64,
    problems: Vec<String>,
    max_threads: usize,
    connections: usize,
    seconds: f64,
}

impl Load {
    fn merge(&mut self, other: Load) {
        for (a, b) in self.per_op.iter_mut().zip(other.per_op) {
            for v in b.values() {
                a.push(*v);
            }
        }
        for v in other.all.values() {
            self.all.push(*v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.batches += other.batches;
        self.problems.extend(other.problems);
        self.max_threads = self.max_threads.max(other.max_threads);
        self.connections += other.connections;
    }

    fn record(&mut self, op: usize, nanos: u64) {
        let us = nanos as f64 / 1e3;
        self.per_op[op].push(us);
        self.all.push(us);
        self.attempted += 1;
    }

    fn reads(&self) -> Samples {
        self.per_op[1..]
            .iter()
            .flat_map(|s| s.values().iter().copied())
            .collect()
    }
}

/// One connection's closed loop: sends the next request of each role in
/// turn until `seconds` have passed.
fn lane(
    client: &mut Client,
    mut writer: Option<&mut WriterStream>,
    mut reader: Option<&mut ReaderStream>,
    seconds: f64,
) -> Load {
    let mut load = Load {
        max_threads: measure::thread_count(),
        ..Load::default()
    };
    let clock = Stopwatch::start();
    while clock.elapsed().as_secs_f64() < seconds {
        if let Some(w) = writer.as_deref_mut() {
            let req = w.next();
            let t = Stopwatch::start();
            let resp = client.call(&req);
            load.record(0, t.elapsed_nanos());
            match resp {
                Ok(resp) => match w.observe(&resp) {
                    Ok(()) => load.batches += 1,
                    Err(p) => {
                        load.problems.push(p);
                        break;
                    }
                },
                Err(e) => {
                    load.failed += 1;
                    eprintln!("serve: ApplyUpdates failed: {e}");
                    // The stream can no longer track the live edges.
                    break;
                }
            }
        }
        if let Some(r) = reader.as_deref_mut() {
            let req = r.next();
            let t = Stopwatch::start();
            let resp = client.call(&req);
            load.record(op_of(&req), t.elapsed_nanos());
            match resp {
                Ok(resp) => {
                    if let Err(p) = r.check(&resp) {
                        load.problems.push(p);
                    }
                }
                Err(e) => {
                    load.failed += 1;
                    eprintln!("serve: query failed: {e}");
                }
            }
        }
    }
    load.seconds = clock.elapsed().as_secs_f64();
    load
}

/// Runs the closed loop for `seconds` on `min(nproc, 2)` connections: the
/// writer on the served connection, the reader on a second one (or, with
/// one CPU, interleaved on the same connection).
fn run_load(
    served: &mut Served,
    writer: &mut WriterStream,
    reader: &mut ReaderStream,
    seconds: f64,
) -> Result<Load, String> {
    if measure::nproc() < 2 {
        let mut load = lane(&mut served.writer, Some(writer), Some(reader), seconds);
        load.connections = 1;
        return Ok(load);
    }
    let mut reader_client =
        Client::connect(served.server.addr).map_err(|e| format!("connect: {e}"))?;
    let writer_client = &mut served.writer;
    let (mut load, reads) = std::thread::scope(|s| {
        let reads = s.spawn(|| lane(&mut reader_client, None, Some(reader), seconds));
        let load = lane(writer_client, Some(writer), None, seconds);
        (load, reads.join())
    });
    load.merge(reads.map_err(|_| "the reader thread panicked")?);
    load.connections = 2;
    Ok(load)
}

/// In-process timings of one replayed request.
struct Replayed {
    op: usize,
    handle_us: f64,
    codec_us: f64,
}

/// Sends `req` through the codec and `ServerState::handle` in-process,
/// each call under its own span.
fn replay_one(state: &ServerState, req: &Request) -> Result<(Replayed, Response), String> {
    let us = |t: &Stopwatch| t.elapsed_nanos() as f64 / 1e3;
    let (decoded, codec_in) = {
        let _s = Span::enter("bench.protocol.request_codec");
        let t = Stopwatch::start();
        let decoded = decode_request(&encode_request(req)).map_err(|e| e.to_string())?;
        (decoded, us(&t))
    };
    let (resp, handle_us) = {
        let _s = Span::enter("bench.server.handle");
        let t = Stopwatch::start();
        let resp = state.handle(&decoded);
        (resp, us(&t))
    };
    let (back, codec_out) = {
        let _s = Span::enter("bench.protocol.response_codec");
        let t = Stopwatch::start();
        let back = decode_response(&encode_response(&resp)).map_err(|e| e.to_string())?;
        (back, us(&t))
    };
    let replayed = Replayed {
        op: op_of(req),
        handle_us,
        codec_us: codec_in + codec_out,
    };
    Ok((replayed, back))
}

/// What an in-process replay measured.
#[derive(Default)]
struct Replay {
    /// Timings of the requests of untraced cycles.
    requests: Vec<Replayed>,
    /// Wall time of untraced and of traced cycles, in microseconds.
    untraced_cycles: Samples,
    traced_cycles: Samples,
}

/// Replays cycles of one write and three reads for `seconds`, each cycle
/// under the job span, with the recorder on for every other cycle, so
/// traced and untraced cycles see the same evolving state.
fn replay(
    state: &ServerState,
    writer: &mut WriterStream,
    reader: &mut ReaderStream,
    seconds: f64,
    out: &mut Outcome,
) -> Replay {
    let recorder = forest_obs::recorder();
    recorder.clear();
    let mut replay = Replay::default();
    let clock = Stopwatch::start();
    let mut traced = false;
    while clock.elapsed().as_secs_f64() < seconds {
        traced = !traced;
        let batch = writer.next();
        let reads: Vec<Request> = (0..3).map(|_| reader.next()).collect();
        if traced {
            recorder.enable();
        }
        let t = Stopwatch::start();
        let job = Span::enter(JOB_SPAN);
        let mut answers = Vec::with_capacity(4);
        for req in std::iter::once(&batch).chain(&reads) {
            out.attempted += 1;
            match replay_one(state, req) {
                Ok((r, resp)) => {
                    if !traced {
                        replay.requests.push(r);
                    }
                    answers.push(resp);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("serve: replayed request failed: {e}");
                }
            }
        }
        drop(job);
        let cycle_us = t.elapsed_nanos() as f64 / 1e3;
        recorder.disable();
        if traced {
            replay.traced_cycles.push(cycle_us);
        } else {
            replay.untraced_cycles.push(cycle_us);
        }
        let mut answers = answers.into_iter();
        if let Err(p) = answers
            .next()
            .map_or(Err("no answer".into()), |a| writer.observe(&a))
        {
            out.problem(format!("replay: {p}"));
            break;
        }
        for a in answers {
            if let Err(p) = reader.check(&a) {
                out.problem(format!("replay: {p}"));
            }
        }
    }
    replay
}

/// A fresh in-process server state with the tenant graph registered.
fn in_process_state(ctx: &Ctx, sizes: &Sizes) -> Result<ServerState, String> {
    let state = ServerState::new();
    match state.handle(&register_request(ctx, sizes)) {
        Response::Registered { .. } => Ok(state),
        other => Err(format!("in-process register failed: {other:?}")),
    }
}

/// Replays the writer's first `batches` batches in-process and checks the
/// final state against what the server answered: the same seeded stream
/// must give byte-identical snapshot reports, and that report must be a
/// valid decomposition of the surviving edges.
fn check_against_server(
    ctx: &Ctx,
    sizes: &Sizes,
    batches: u64,
    server_bytes: &[u8],
    out: &mut Outcome,
) {
    let state = match in_process_state(ctx, sizes) {
        Ok(state) => state,
        Err(p) => return out.problem(p),
    };
    let mut writer = WriterStream::new(ctx, sizes);
    for _ in 0..batches {
        let resp = state.handle(&writer.next());
        if let Err(p) = writer.observe(&resp) {
            out.problem(format!("in-process replay: {p}"));
            return;
        }
    }
    let Some(entry) = state.lookup(TENANT, GRAPH) else {
        out.problem("in-process graph missing");
        return;
    };
    let snap = entry.reader().current();
    match snap.cold_report() {
        Ok(report) => {
            if let Err(e) = report.validate(snap.compact_graph().0) {
                out.problem(format!("snapshot report failed validation: {e}"));
            }
            if report.canonical_bytes() != server_bytes {
                out.problem("the server's snapshot bytes differ from the in-process replay's");
            }
        }
        Err(e) => out.problem(format!("in-process cold run failed: {e}")),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sizes = sizes(ctx.scale);
    let (mut served, setup_s) =
        measure::repeated_setup(measure::SETUP_REPEATS, || setup(ctx, &sizes))?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let mut writer = WriterStream::new(ctx, &sizes);
    let mut reader = ReaderStream::new(ctx, sizes);

    let load_seconds = if ctx.trace {
        ctx.seconds * 0.5
    } else {
        ctx.seconds
    };
    let load = run_load(&mut served, &mut writer, &mut reader, load_seconds)?;
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.load_threads = load.max_threads;
    out.load_connections = load.connections;
    for p in &load.problems {
        out.problem(p.clone());
    }

    // The final state, over the writer's connection.
    let colors = match served.writer.call(&Request::ArboricityWatermark {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
    }) {
        Ok(Response::Watermark { color_budget, .. }) => color_budget as f64,
        other => return Err(format!("final watermark failed: {other:?}")),
    };
    let server_bytes = match served.writer.call(&Request::SnapshotBytes {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
    }) {
        Ok(Response::Snapshot { bytes, .. }) => bytes,
        other => return Err(format!("final snapshot failed: {other:?}")),
    };
    let server_rss = served.server.peak_rss_mb();
    drop(served);
    check_against_server(ctx, &sizes, load.batches, &server_bytes, &mut out);

    if !ctx.trace {
        out.record_jobs(&load.all.scaled(1e-3));
        out.metrics
            .set("edges_per_s", 8.0 * load.batches as f64 / load.seconds);
        out.metrics.set("colors", colors);
        out.metrics
            .set("peak_rss_mb", measure::peak_rss_mb("self") + server_rss);
        return Ok(out);
    }

    let m = &mut out.metrics;
    let reads = load.reads();
    m.set("serve.query_us", reads.median());
    m.set("serve.query_us_tail", reads.tail().1);
    m.set("serve.update_us", load.per_op[0].median());
    m.set("serve.update_us_tail", load.per_op[0].tail().1);
    m.set("serve.ops_per_s", load.attempted as f64 / load.seconds);

    // In-process replay of the same seeded streams on a fresh state:
    // untraced cycles give the layer timings, traced ones the attribution.
    let state = in_process_state(ctx, &sizes)?;
    let mut writer = WriterStream::new(ctx, &sizes);
    let mut reader = ReaderStream::new(ctx, sizes);
    let stats_before = wire_stats(&state)?;
    let (batches_before, batch_nanos_before) = measure::histogram("dynamic.batch_nanos");
    let replay = replay(
        &state,
        &mut writer,
        &mut reader,
        ctx.seconds * 0.5,
        &mut out,
    );
    let (batches_after, batch_nanos_after) = measure::histogram("dynamic.batch_nanos");
    let stats_after = wire_stats(&state)?;
    let fold = SpanFold::fold(&forest_obs::recorder().drain());
    fold.print_table("serve");
    out.record_coverage(&[fold.totals(JOB_SPAN)]);

    let m = &mut out.metrics;
    for (op, name) in SERVE_OPS.iter().enumerate() {
        let of_op = |f: fn(&Replayed) -> f64| -> Samples {
            replay
                .requests
                .iter()
                .filter(|r| r.op == op)
                .map(f)
                .collect()
        };
        let handle = of_op(|r| r.handle_us).median();
        let codec = of_op(|r| r.codec_us).median();
        m.set(&format!("server.handle_us.{name}"), handle);
        m.set(&format!("server.codec_us.{name}"), codec);
        m.set(
            &format!("server.transport_us.{name}"),
            load.per_op[op].median() - handle - codec,
        );
    }
    let batches = batches_after.saturating_sub(batches_before).max(1);
    m.set(
        "dynamic.apply_batch_us",
        batch_nanos_after.saturating_sub(batch_nanos_before) as f64 / 1e3 / batches as f64,
    );
    let fallbacks = |s: &forest_serve::WireStats| s.exchanges + s.budget_raises + s.compactions;
    let updates = stats_after
        .updates
        .saturating_sub(stats_before.updates)
        .max(1);
    m.set(
        "dynamic.fallback_rate",
        (fallbacks(&stats_after) - fallbacks(&stats_before)) as f64 / updates as f64,
    );
    m.set(
        "versioned.publish_us",
        fold.mean_self_us("versioned.publish"),
    );
    m.set(
        "trace.overhead_frac",
        replay.traced_cycles.median() / replay.untraced_cycles.median() - 1.0,
    );
    Ok(out)
}

fn wire_stats(state: &ServerState) -> Result<forest_serve::WireStats, String> {
    match state.handle(&Request::Stats {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
    }) {
        Response::StatsReport { stats, .. } => Ok(stats),
        other => Err(format!("stats failed: {other:?}")),
    }
}

//! The benchmark's only door into the workspace: every call into
//! `hin-core`, `hin-linalg`, `hin-query`, `hin-serve` and `hin-synth` is in
//! this file, so a later change to one of those interfaces has exactly one
//! place to be followed up in.
//!
//! The surface is kept to entry points the serving path itself needs —
//! generate a network, parse/resolve/plan/execute, start and stop the three
//! serving stacks, checkpoint/evict/restore, the wire codec, the snapshot
//! codec, and the kernels with their counters. Nothing here names an
//! execution-mode variant, a policy field, a shard count, a legacy format
//! or an opt-in switch: every configuration is `Default` except the cache
//! byte budget and the telemetry master switch.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hin_core::{Hin, TypeId};
use hin_linalg::counters::{self, KernelCounters};
use hin_linalg::{kernel_threads, spmm_chain, spvm_chain, Csr, SparseVec};
use hin_query::{
    parse, plan_steps, resolve, CacheConfig, CacheSnapshot, Engine, ParsedQuery, ResolvedQuery,
};
use hin_serve::wire::Message;
use hin_serve::{
    RemoteConfig, RemoteServerHandle, Router, RouterConfig, ServeConfig, Server, ServerHandle,
    ServerStats, ShardListener, TelemetryConfig,
};
use hin_synth::DblpConfig;

pub use hin_query::QueryOutput as Answer;
pub use hin_serve::Ticket;

use crate::workload::{NetShape, TargetKind, Ty};

/// Result rows of an answer, best first.
pub fn items(answer: &Answer) -> &[(String, f64)] {
    &answer.items
}

/// Type name of an answer's objects.
pub fn object_type(answer: &Answer) -> &str {
    &answer.object_type
}

/// Wait for a ticket at most `limit`; errors (timeout included) as text.
pub fn wait(ticket: Ticket, limit: Duration) -> Result<Answer, String> {
    ticket.wait_timeout(limit).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// synth + core
// ---------------------------------------------------------------------------

/// A generated bibliographic network.
pub struct Network {
    hin: Arc<Hin>,
    types: [TypeId; 4],
    pub shape: NetShape,
    /// Wall time of `DblpConfig::generate`.
    pub generate_ms: f64,
}

impl Network {
    pub fn generate(shape: NetShape, seed: u64) -> Network {
        let t0 = Instant::now();
        let data = DblpConfig {
            n_areas: shape.areas,
            authors_per_area: shape.authors_per_area,
            venues_per_area: shape.venues_per_area,
            terms_per_area: shape.terms_per_area,
            shared_terms: shape.shared_terms,
            n_papers: shape.papers,
            seed,
            ..DblpConfig::default()
        }
        .generate();
        let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
        Network {
            types: [data.author, data.paper, data.venue, data.term],
            hin: Arc::new(data.hin),
            shape,
            generate_ms,
        }
    }

    pub fn nodes(&self) -> usize {
        self.hin.total_nodes()
    }

    pub fn edges(&self) -> usize {
        self.hin.total_edges()
    }

    fn adjacency(&self, src: Ty, dst: Ty) -> &Csr {
        let id = |ty: Ty| self.types[ty as usize];
        self.hin
            .adjacency(id(src), id(dst))
            .expect("the star schema links paper to every other type")
    }

    /// Row `node` of the `src → dst` adjacency: `(column ids, weights)`.
    pub fn row(&self, src: Ty, dst: Ty, node: usize) -> (&[u32], &[f64]) {
        self.adjacency(src, dst).row(node)
    }

    fn operands(&self, path: &[Ty]) -> Vec<&Csr> {
        path.windows(2)
            .map(|s| self.adjacency(s[0], s[1]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

pub struct Parsed(ParsedQuery);
pub struct Resolved(ResolvedQuery);

pub fn parse_query(query: &str) -> Parsed {
    Parsed(parse(query).expect("generated queries are in the grammar"))
}

/// What `Engine::execute_traced` reports about one execution.
pub struct ExecTrace {
    /// `TraceMode::as_str()` of the mode that actually ran.
    pub mode: &'static str,
    /// Evaluation + assembly, without the engine's own parse and plan.
    pub exec_ns: u64,
}

/// An engine driven directly, with no serving layer in front.
pub struct DirectEngine {
    engine: Engine,
    hin: Arc<Hin>,
}

impl DirectEngine {
    pub fn new(net: &Network, cache_budget: Option<usize>) -> DirectEngine {
        let hin = Arc::clone(&net.hin);
        let engine = match cache_budget {
            Some(bytes) => Engine::with_cache_config(Arc::clone(&hin), CacheConfig::bounded(bytes)),
            None => Engine::from_arc(Arc::clone(&hin)),
        };
        DirectEngine { engine, hin }
    }

    pub fn execute(&self, query: &str) -> Result<Answer, String> {
        self.engine.execute(query).map_err(|e| e.to_string())
    }

    pub fn execute_traced(&self, query: &str) -> (Result<Answer, String>, ExecTrace) {
        let (result, trace) = self.engine.execute_traced(query);
        let trace = ExecTrace {
            mode: trace.mode.as_str(),
            exec_ns: trace.exec_ns,
        };
        (result.map_err(|e| e.to_string()), trace)
    }

    pub fn resolve(&self, parsed: &Parsed) -> Resolved {
        Resolved(resolve(&self.hin, &parsed.0).expect("generated queries fit the schema"))
    }

    /// Plan against the live cache, as `Engine::execute` does per query.
    pub fn plan(&self, resolved: &Resolved) {
        let steps = resolved.0.path.steps();
        std::hint::black_box(plan_steps(&self.hin, steps, self.engine.cache()));
    }

    /// Fetch the query's whole-path commuting matrix through the cache
    /// (a lookup once the span is resident); returns its nonzero count.
    pub fn commuting_nnz(&self, resolved: &Resolved) -> usize {
        self.engine
            .commuting_matrix(&resolved.0.path)
            .expect("resolved paths are valid")
            .nnz()
    }

    /// Restore a snapshot; returns how many entries were admitted.
    pub fn restore(&self, snapshot: &Snapshot) -> u64 {
        self.engine.restore(&snapshot.0).loaded
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Key of the one dataset a routed target serves.
const DATASET: &str = "dblp";

/// What the benchmark reads out of a target's final `ServerStats` (and a
/// remote client's counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct TargetStats {
    pub served: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_coalesced_waits: u64,
    pub cache_bytes: usize,
    pub promotions: u64,
    pub admission_p50_ns: u64,
    pub queue_wait_p50_ns: u64,
    pub dispatch_p50_ns: u64,
    /// Transport retries of the remote client (0 for in-process targets).
    pub remote_retries: u64,
}

impl From<&ServerStats> for TargetStats {
    fn from(s: &ServerStats) -> TargetStats {
        TargetStats {
            served: s.served,
            batches: s.batches,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            cache_coalesced_waits: s.cache_coalesced_waits,
            cache_bytes: s.cache_bytes,
            promotions: s.promotions,
            admission_p50_ns: s.admission_ns.quantile(0.5),
            queue_wait_p50_ns: s.queue_wait_ns.quantile(0.5),
            dispatch_p50_ns: s.dispatch_ns.quantile(0.5),
            remote_retries: 0,
        }
    }
}

fn serve_config(cache_budget: Option<usize>, telemetry: bool) -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        cache: cache_budget.map_or(base.cache, CacheConfig::bounded),
        telemetry: TelemetryConfig {
            enabled: telemetry,
            ..TelemetryConfig::default()
        },
        ..base
    }
}

/// One of the three serving stacks, started over a network.
pub enum Target {
    Local(Server),
    Routed {
        router: Router,
        hin: Arc<Hin>,
    },
    Remote {
        listener: ShardListener,
        handle: RemoteServerHandle,
    },
}

/// A generator thread's way to submit: its own fairness lane on a local
/// server, the shared entry point otherwise.
pub enum Client<'a> {
    Local(ServerHandle),
    Routed(&'a Router),
    Remote(&'a RemoteServerHandle),
}

impl Client<'_> {
    pub fn submit(&self, query: &str) -> Ticket {
        match self {
            Client::Local(handle) => handle.submit(query),
            Client::Routed(router) => router.submit(DATASET, query),
            Client::Remote(handle) => handle.submit(query),
        }
    }
}

impl Target {
    pub fn start(
        kind: TargetKind,
        net: &Network,
        cache_budget: Option<usize>,
        telemetry: bool,
    ) -> Target {
        let hin = Arc::clone(&net.hin);
        let serve = serve_config(cache_budget, telemetry);
        match kind {
            TargetKind::Local => Target::Local(Server::start(hin, serve)),
            TargetKind::Routed => {
                let router = Router::new(RouterConfig {
                    serve,
                    ..RouterConfig::default()
                });
                assert!(router.register(DATASET, Arc::clone(&hin)));
                Target::Routed { router, hin }
            }
            TargetKind::Remote => {
                let listener = ShardListener::start(hin, serve).expect("bind a loopback port");
                let addr = listener.local_addr();
                let handle = RemoteServerHandle::connect(addr, RemoteConfig::default());
                Target::Remote { listener, handle }
            }
        }
    }

    pub fn client(&self) -> Client<'_> {
        match self {
            Target::Local(server) => Client::Local(server.handle()),
            Target::Routed { router, .. } => Client::Routed(router),
            Target::Remote { handle, .. } => Client::Remote(handle),
        }
    }

    /// Drain, join every thread, and return the lifetime statistics.
    pub fn shutdown(self) -> TargetStats {
        match self {
            Target::Local(server) => TargetStats::from(&server.shutdown()),
            Target::Routed { router, .. } => {
                let fleet = router.shutdown();
                let (_, stats) = fleet.datasets.first().expect("one dataset registered");
                TargetStats::from(stats)
            }
            Target::Remote { listener, handle } => {
                let remote = handle.shutdown();
                TargetStats {
                    remote_retries: remote.retries,
                    ..TargetStats::from(&listener.shutdown())
                }
            }
        }
    }

    fn router(&self) -> (&Router, &Arc<Hin>) {
        match self {
            Target::Routed { router, hin } => (router, hin),
            _ => panic!("checkpoint/evict/restore need a routed target"),
        }
    }

    /// `Router::checkpoint`: write the dataset's cache under `dir`; returns
    /// the file.
    pub fn checkpoint(&self, dir: &Path) -> PathBuf {
        let written = self.router().0.checkpoint(dir).expect("write checkpoint");
        let (_, file) = written.into_iter().next().expect("one dataset registered");
        file
    }

    /// `Router::evict`: drain and drop the dataset's server.
    pub fn evict(&self) {
        self.router()
            .0
            .evict(DATASET)
            .expect("dataset was registered");
    }

    /// `Router::register_warm_from_file`; returns entries restored.
    pub fn restore_from(&self, file: &Path) -> u64 {
        let (router, hin) = self.router();
        router
            .register_warm_from_file(DATASET, Arc::clone(hin), file)
            .expect("read checkpoint")
            .expect("dataset was evicted")
            .loaded
    }

    /// `Server::snapshot` of a local target's whole cache.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            Target::Local(server) => Snapshot(server.snapshot(None)),
            _ => panic!("snapshot export needs a local target"),
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot + wire codecs
// ---------------------------------------------------------------------------

pub struct Snapshot(CacheSnapshot);

impl Snapshot {
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    pub fn from_bytes(bytes: &[u8]) -> Snapshot {
        Snapshot(CacheSnapshot::from_bytes(bytes).expect("decode a just-encoded snapshot"))
    }
}

/// Encode a request frame.
pub fn wire_encode_request(id: u64, query: &str, out: &mut Vec<u8>) {
    let msg = Message::Request {
        id,
        ttl_micros: 0,
        query: query.to_string(),
    };
    msg.write_to(out).expect("encode into memory");
}

/// A response message, as the shard sends it for one answer.
#[derive(PartialEq)]
pub struct WireResponse(Message);

impl WireResponse {
    pub fn new(id: u64, answer: &Answer) -> WireResponse {
        WireResponse(Message::Response {
            id,
            result: Ok(answer.clone()),
        })
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        self.0.write_to(out).expect("encode into memory");
    }

    pub fn decode(mut frame: &[u8]) -> Option<WireResponse> {
        Message::read_from(&mut frame).ok().map(WireResponse)
    }
}

/// One frame of the stream a reference child process writes to the
/// measured process: an answer per distinct request, then a closing note.
/// The wire codec doubles as the benchmark's own plumbing here; a codec
/// fault would surface as a reference mismatch, never pass silently.
pub enum Frame {
    Answer(Answer),
    Note(String),
}

impl Frame {
    pub fn write(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Answer(answer) => WireResponse::new(0, answer).encode(out),
            Frame::Note(note) => wire_encode_request(0, note, out),
        }
    }

    /// Read the next frame off the front of `input`.
    pub fn read(input: &mut &[u8]) -> Option<Frame> {
        match Message::read_from(input).ok()? {
            Message::Response { result, .. } => result.ok().map(Frame::Answer),
            Message::Request { query, .. } => Some(Frame::Note(query)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// linalg kernels
// ---------------------------------------------------------------------------

/// Multiply-add and scratch counters of the sparse kernels, process-wide.
pub use hin_linalg::KernelCountersSnapshot as KernelWork;

/// Install the process-wide kernel counter sink (once) and return a reader.
pub fn kernel_counters() -> impl Fn() -> KernelWork {
    let sink = Arc::new(KernelCounters::default());
    assert!(counters::install(Arc::clone(&sink)), "installed once");
    move || sink.snapshot()
}

/// The two halves of a span, each materialised with `spmm_chain`: the
/// operands of the span's last and largest product.
pub struct SpanHalves(Csr, Csr);

impl SpanHalves {
    pub fn of(net: &Network, path: &[Ty]) -> SpanHalves {
        assert!(path.len() >= 3, "a span with at least two steps");
        let mid = path.len() / 2;
        SpanHalves(
            spmm_chain(&net.operands(&path[..=mid])),
            spmm_chain(&net.operands(&path[mid..])),
        )
    }

    /// Serial `Csr::spgemm`; returns the product's nonzero count.
    pub fn spgemm(&self) -> usize {
        self.0.spgemm(&self.1).nnz()
    }

    /// `Csr::spgemm_parallel` on `kernel_threads()` workers.
    pub fn spgemm_parallel(&self) -> usize {
        self.0.spgemm_parallel(&self.1, kernel_threads()).nnz()
    }
}

/// `spvm_chain` from the unit vector of `anchor` along `path`; returns the
/// reached set's size.
pub fn spvm_from(net: &Network, path: &[Ty], anchor: usize) -> usize {
    let start = SparseVec::unit(net.shape.count(path[0]), anchor);
    spvm_chain(&start, &net.operands(path)).nnz()
}

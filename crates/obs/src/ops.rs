//! Live ops endpoint: a dependency-free, line-based TCP server for
//! watching a running engine without stopping it.
//!
//! The protocol is deliberately primitive — the client connects, sends one
//! command line, and the server answers with a text document and closes the
//! connection. That makes it `nc`-scriptable with no HTTP stack, no
//! framing, and no client library:
//!
//! ```text
//! $ echo metrics | nc 127.0.0.1 <port>     # Prometheus text exposition
//! $ echo jobs    | nc 127.0.0.1 <port>     # live job table + path-so-far
//! $ echo "trace 3" | nc 127.0.0.1 <port>   # flight-recorder JSONL dump
//! $ echo profile | nc 127.0.0.1 <port>     # pool wall-clock attribution
//! $ echo memory  | nc 127.0.0.1 <port>     # memory ledger per category
//! ```
//!
//! `trace` output is a well-formed partial event log: it feeds straight
//! into [`ExecutionTrace::parse`] and therefore into the `trace` CLI
//! (`trace report --json -` style pipelines via a temp file).
//!
//! All data sources are optional — the server reports `err: no ... attached`
//! for commands whose source was not wired in, so a bare `metrics`-only
//! deployment works the same as a fully instrumented one.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sparkscore_rdd::{FlightRecorder, JobService, MemoryLedger, PoolProfiler, Registry};

use crate::analyze::critical_paths;
use crate::report::fmt_ns;
use crate::trace::ExecutionTrace;

const HELP: &str = "commands:\n  metrics        Prometheus text exposition of live gauges/counters\n  jobs           live job table: phase, retained events, critical path so far\n  trace          flight-recorder dump of every retained job (JSONL)\n  trace <job>    flight-recorder dump of one job (JSONL)\n  profile        pool profiler wall-clock attribution\n  memory         live memory ledger: used/peak bytes per category\n  queue          job service status: bounds, depth, flow counters, live jobs\n  tenants        per-tenant quotas, backlog, and flow counters\n  help           this text\n";

/// The optional data sources a server exposes. Shared by every connection.
struct Sources {
    registry: Option<Arc<Registry>>,
    recorder: Option<Arc<FlightRecorder>>,
    profiler: Option<Arc<PoolProfiler>>,
    memory: Option<Arc<MemoryLedger>>,
    service: Option<Arc<JobService>>,
}

/// Configures and starts an [`OpsServer`].
pub struct OpsServerBuilder {
    addr: String,
    sources: Sources,
}

impl OpsServerBuilder {
    /// Address to bind; defaults to `127.0.0.1:0` (loopback, ephemeral
    /// port — read the actual port back from [`OpsServer::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Serve this registry's metrics under `metrics`.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.sources.registry = Some(registry);
        self
    }

    /// Serve this recorder's jobs under `jobs` and `trace`.
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.sources.recorder = Some(recorder);
        self
    }

    /// Serve this profiler's attribution under `profile`.
    pub fn profiler(mut self, profiler: Arc<PoolProfiler>) -> Self {
        self.sources.profiler = Some(profiler);
        self
    }

    /// Serve this ledger's per-category residency under `memory`
    /// (e.g. `Engine::memory_ledger`).
    pub fn memory(mut self, ledger: Arc<MemoryLedger>) -> Self {
        self.sources.memory = Some(ledger);
        self
    }

    /// Serve this job service's status under `queue` and `tenants`.
    pub fn service(mut self, service: Arc<JobService>) -> Self {
        self.sources.service = Some(service);
        self
    }

    /// Bind and start the accept thread.
    pub fn start(self) -> io::Result<OpsServer> {
        let listener = TcpListener::bind(&self.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sources = Arc::new(self.sources);
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sparkscore-ops".into())
                .spawn(move || accept_loop(&listener, &stop, &sources))?
        };
        Ok(OpsServer {
            addr,
            stop,
            handle: Mutex::new(Some(handle)),
        })
    }
}

/// A running ops endpoint. Stops (and joins its accept thread) on
/// [`OpsServer::stop`] or drop.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl OpsServer {
    pub fn builder() -> OpsServerBuilder {
        OpsServerBuilder {
            addr: "127.0.0.1:0".to_string(),
            sources: Sources {
                registry: None,
                recorder: None,
                profiler: None,
                memory: None,
                service: None,
            },
        }
    }

    /// The bound address (port is ephemeral under the default bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (possibly idle) accept call with a throwaway
        // connection; if the listener is already gone this just fails.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, sources: &Sources) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(conn) = conn else { continue };
        // One slow or wedged client must not pin the endpoint forever.
        let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = handle_connection(conn, sources);
    }
}

fn handle_connection(conn: TcpStream, sources: &Sources) -> io::Result<()> {
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line)?;
    let response = respond(line.trim(), sources);
    let mut conn = conn;
    conn.write_all(response.as_bytes())?;
    conn.flush()
}

fn respond(line: &str, sources: &Sources) -> String {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words[..] {
        ["metrics"] => sources.registry.as_ref().map_or_else(
            || "err: no registry attached\n".to_string(),
            |r| r.render_prometheus(),
        ),
        ["jobs"] => sources.recorder.as_ref().map_or_else(
            || "err: no recorder attached\n".to_string(),
            |r| jobs_table(r),
        ),
        ["trace"] => sources.recorder.as_ref().map_or_else(
            || "err: no recorder attached\n".to_string(),
            |r| r.dump_all(),
        ),
        ["trace", job] => match (sources.recorder.as_ref(), job.parse::<u64>()) {
            (None, _) => "err: no recorder attached\n".to_string(),
            (Some(_), Err(_)) => format!("err: bad job id {job:?}\n"),
            (Some(r), Ok(job)) => r
                .dump_job(job)
                .unwrap_or_else(|| format!("err: job {job} not retained\n")),
        },
        ["profile"] => sources
            .profiler
            .as_ref()
            .map_or_else(|| "err: no profiler attached\n".to_string(), |p| p.report()),
        ["memory"] => sources.memory.as_ref().map_or_else(
            || "err: no memory ledger attached\n".to_string(),
            |l| memory_table(l),
        ),
        ["queue"] => sources.service.as_ref().map_or_else(
            || "err: no job service attached\n".to_string(),
            |s| queue_table(s),
        ),
        ["tenants"] => sources.service.as_ref().map_or_else(
            || "err: no job service attached\n".to_string(),
            |s| tenants_table(s),
        ),
        ["help"] | [] => HELP.to_string(),
        _ => format!("err: unknown command {line:?}; try help\n"),
    }
}

/// The `memory` table: one line per ledger category — the same category
/// names the Prometheus `sparkscore_mem_*` gauges use — plus a total.
fn memory_table(ledger: &MemoryLedger) -> String {
    ledger.refresh();
    let mut out = String::new();
    out.push_str("category        used_bytes     peak_bytes\n");
    for r in ledger.snapshot() {
        out.push_str(&format!(
            "{:<14}  {:>12}  {:>12}\n",
            r.category.name(),
            r.used,
            r.peak
        ));
    }
    out.push_str(&format!("{:<14}  {:>12}\n", "total", ledger.total_used()));
    out
}

/// The `queue` table: service-wide bounds and flow counters, then one
/// line per retained service job (queued, running, recent terminal).
fn queue_table(service: &JobService) -> String {
    let status = service.queue_status();
    let mut out = format!(
        "queue {}/{} queued, {} running{}{}\n\
         flow: submitted {} rejected {} dispatched {} completed {} failed {} cancelled {}\n",
        status.queued,
        status.capacity,
        status.running,
        if status.paused { "  [paused]" } else { "" },
        if status.shutting_down {
            "  [shutting down]"
        } else {
            ""
        },
        status.stats.submitted,
        status.stats.rejected,
        status.stats.dispatched,
        status.stats.completed,
        status.stats.failed,
        status.stats.cancelled,
    );
    for job in service.jobs() {
        out.push_str(&format!(
            "job {:>4}  {:<10}  tenant {}\n",
            job.id,
            job.state.name(),
            job.tenant,
        ));
    }
    out
}

/// The `tenants` table: one line per tenant — quotas, live backlog, and
/// flow counters.
fn tenants_table(service: &JobService) -> String {
    let tenants = service.tenants();
    if tenants.is_empty() {
        return "no tenants registered\n".to_string();
    }
    let mut out = String::from(
        "tenant            w  queued/max  running/max  submitted  rejected  completed  failed  cancelled\n",
    );
    for t in tenants {
        out.push_str(&format!(
            "{:<16} {:>2}  {:>5}/{:<5} {:>6}/{:<5} {:>9} {:>9} {:>10} {:>7} {:>10}\n",
            t.name,
            t.weight,
            t.queued,
            t.max_queued,
            t.running,
            t.max_running,
            t.stats.submitted,
            t.stats.rejected,
            t.stats.completed,
            t.stats.failed,
            t.stats.cancelled,
        ));
    }
    out
}

/// The `jobs` table: one line per retained job. For a job still in flight
/// the critical path is the path *so far* — exactly what its partial
/// flight-recorder slice supports.
fn jobs_table(recorder: &FlightRecorder) -> String {
    let statuses = recorder.jobs();
    if statuses.is_empty() {
        return "no jobs recorded\n".to_string();
    }
    let mut out = String::new();
    for status in statuses {
        let events = recorder.job_events(status.job).unwrap_or_default();
        let trace = ExecutionTrace::from_events(&events);
        let path = critical_paths(&trace)
            .into_iter()
            .find(|p| p.job == status.job)
            .map_or_else(
                || "no completed stages yet".to_string(),
                |p| {
                    format!(
                        "critical path {} over {} stage(s)",
                        fmt_ns(p.path_ns),
                        p.stages.len()
                    )
                },
            );
        out.push_str(&format!(
            "job {:>4}  {:<8}  {:<12}  events {:>4}/{:<4}  {}{}\n",
            status.job,
            if status.finished {
                "finished"
            } else {
                "running"
            },
            status.tenant.as_deref().unwrap_or("-"),
            status.retained,
            status.seen,
            path,
            if status.finished { "" } else { "  [so far]" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::sample_stream;
    use sparkscore_rdd::EventListener;
    use std::io::Read;

    fn send(addr: SocketAddr, cmd: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect to ops endpoint");
        writeln!(conn, "{cmd}").expect("send command");
        let mut out = String::new();
        conn.read_to_string(&mut out).expect("read response");
        out
    }

    fn recorder_with_sample() -> Arc<FlightRecorder> {
        let recorder = Arc::new(FlightRecorder::new());
        recorder.on_events(&sample_stream());
        recorder
    }

    #[test]
    fn metrics_jobs_and_help_respond() {
        let registry = Arc::new(Registry::new());
        registry.counter("ops_test_total", "test counter").add(3);
        let server = OpsServer::builder()
            .registry(Arc::clone(&registry))
            .recorder(recorder_with_sample())
            .start()
            .expect("start ops server");
        let addr = server.local_addr();

        let metrics = send(addr, "metrics");
        assert!(
            metrics.contains("# TYPE ops_test_total counter"),
            "{metrics}"
        );
        assert!(metrics.contains("ops_test_total 3"), "{metrics}");

        let jobs = send(addr, "jobs");
        assert!(jobs.contains("job    0  finished"), "{jobs}");
        assert!(jobs.contains("job    1  finished"), "{jobs}");
        assert!(jobs.contains("critical path"), "{jobs}");

        let help = send(addr, "help");
        assert!(help.contains("commands:"), "{help}");
        server.stop();
    }

    #[test]
    fn trace_dump_is_parseable_by_the_analyzer() {
        let server = OpsServer::builder()
            .recorder(recorder_with_sample())
            .start()
            .expect("start ops server");
        let addr = server.local_addr();

        let one = send(addr, "trace 0");
        let trace = ExecutionTrace::parse(&one).expect("dump must parse");
        assert_eq!(trace.jobs.len(), 1);
        assert_eq!(trace.jobs[0].job, 0);

        let all = send(addr, "trace");
        let trace = ExecutionTrace::parse(&all).expect("full dump must parse");
        assert_eq!(trace.jobs.len(), 2);
        server.stop();
    }

    #[test]
    fn memory_table_lists_every_ledger_category() {
        use sparkscore_rdd::{MemCategory, MemoryLedger};
        let ledger = Arc::new(MemoryLedger::new());
        ledger.add(MemCategory::BlockCache, 4_096);
        ledger.add(MemCategory::ShuffleStore, 1_024);
        ledger.sub(MemCategory::ShuffleStore, 1_024);
        let server = OpsServer::builder()
            .memory(Arc::clone(&ledger))
            .start()
            .expect("start ops server");
        let table = send(server.local_addr(), "memory");
        // Same category names as the `sparkscore_mem_*` gauges, in the
        // ledger's canonical order.
        let names: Vec<&str> = table
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(
            names,
            vec![
                "block_cache",
                "shuffle_store",
                "dfs_blocks",
                "scratch",
                "total"
            ],
            "{table}"
        );
        let row = |name: &str| -> Vec<String> {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row in {table}"))
                .split_whitespace()
                .map(str::to_string)
                .collect()
        };
        assert_eq!(row("block_cache")[1..], ["4096", "4096"]);
        assert_eq!(row("shuffle_store")[1..], ["0", "1024"]);
        assert_eq!(row("total")[1..], ["4096"]);
        let help = send(server.local_addr(), "help");
        assert!(help.contains("memory"), "{help}");
        server.stop();
    }

    #[test]
    fn in_flight_jobs_show_path_so_far() {
        let recorder = Arc::new(FlightRecorder::new());
        let mut events = sample_stream();
        events.truncate(12); // keep everything up to stage 1's completion,
                             // drop job 0's JobEnd: job 0 is in flight
        recorder.on_events(&events);
        let server = OpsServer::builder()
            .recorder(recorder)
            .start()
            .expect("start ops server");
        let jobs = send(server.local_addr(), "jobs");
        assert!(jobs.contains("running"), "{jobs}");
        assert!(jobs.contains("[so far]"), "{jobs}");
        server.stop();
    }

    #[test]
    fn queue_and_tenants_report_service_state() {
        use sparkscore_cluster::ClusterSpec;
        use sparkscore_rdd::{Engine, JobService, ShutdownMode, TenantConfig};
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let service = JobService::builder(engine)
            .workers(1)
            .start_paused()
            .tenant(
                "acme",
                TenantConfig {
                    max_queued: 4,
                    max_running: 1,
                    weight: 2,
                },
            )
            .tenant("zeta", TenantConfig::default())
            .build();
        let job = service.submit("acme", |_| Ok(())).unwrap();
        let server = OpsServer::builder()
            .service(Arc::clone(&service))
            .start()
            .expect("start ops server");
        let addr = server.local_addr();

        let queue = send(addr, "queue");
        assert!(queue.contains("queue 1/256 queued"), "{queue}");
        assert!(queue.contains("[paused]"), "{queue}");
        assert!(queue.contains("submitted 1"), "{queue}");
        assert!(queue.contains(&format!("job {job:>4}  queued")), "{queue}");
        assert!(queue.contains("tenant acme"), "{queue}");

        let tenants = send(addr, "tenants");
        assert!(tenants.contains("acme"), "{tenants}");
        assert!(tenants.contains("zeta"), "{tenants}");
        let acme_row = tenants.lines().find(|l| l.starts_with("acme")).unwrap();
        assert!(acme_row.contains("1/4"), "queued/max: {acme_row}");

        let help = send(addr, "help");
        assert!(help.contains("queue"), "{help}");
        assert!(help.contains("tenants"), "{help}");

        service.resume();
        service.drain();
        let queue = send(addr, "queue");
        assert!(queue.contains("completed 1"), "{queue}");
        server.stop();
        service.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn missing_sources_and_bad_commands_err() {
        let server = OpsServer::builder().start().expect("start ops server");
        let addr = server.local_addr();
        assert_eq!(send(addr, "metrics"), "err: no registry attached\n");
        assert_eq!(send(addr, "jobs"), "err: no recorder attached\n");
        assert_eq!(send(addr, "profile"), "err: no profiler attached\n");
        assert_eq!(send(addr, "memory"), "err: no memory ledger attached\n");
        assert_eq!(send(addr, "queue"), "err: no job service attached\n");
        assert_eq!(send(addr, "tenants"), "err: no job service attached\n");
        assert!(send(addr, "frobnicate").starts_with("err: unknown command"));
        assert!(send(addr, "trace nope").starts_with("err: no recorder"));
        // stop() is idempotent and Drop tolerates an already-stopped server.
        server.stop();
        server.stop();
    }
}

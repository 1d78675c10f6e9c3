//! The frozen workload definitions. Changing any value here changes the
//! benchmark, and a change that claims a gain may not do that.

/// `batch_join`: transitive closure of a random digraph, run to fixpoint
/// under fire-all with the rule-partitioned RETE (2 workers) and
/// bytecode evaluation. Match dominates (beta joins with negation), the
/// run only adds facts, and conflict sets are wide, so parallel fire and
/// the partitioned apply do real work.
pub mod join {
    pub const NODES: usize = 128;
    pub const EDGES: usize = 240;
    pub const MATCHER_WORKERS: usize = 2;
}

/// `batch_redact`: order matching under the default RETE. Meta-rules
/// redacting to fixpoint dominate, the run removes more than it adds,
/// and working memory stays small, so match retracts instead of growing
/// joins.
pub mod redact {
    pub const ORDERS_PER_SIDE: usize = 480;
    pub const SYMBOLS: usize = 16;
}

/// Batch workloads: programs generated per seed and run in rotation.
pub const INSTANCES: usize = 8;

/// Batch workloads: how often set-up (generation plus one warm-up run)
/// is repeated; `setup_s` is the median.
pub const BATCH_SETUPS: usize = 5;

/// Batch tail percentile, printed with its sample count. A 20 s run
/// completes 35 to 60 programs, so p80 is the highest of the usual
/// percentiles that has close to ten samples beyond it.
pub const BATCH_TAIL_Q: f64 = 0.80;

/// Tolerance for the layer accounting check: a traced run's layer times
/// (compile + vm build + seed + steps) must add up to its wall time
/// within this share.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// `serve_stream`: the real `parulel serve` binary over TCP.
pub mod serve {
    /// Shard worker threads (`--workers`).
    pub const WORKERS: usize = 2;
    /// WAL fsync policy (`--wal-sync`): fsync at most every 100 ms.
    pub const WAL_SYNC: &str = "interval";
    /// Client connections the sessions are multiplexed over.
    pub const CONNECTIONS: usize = 2;
    /// Market sessions opened at set-up.
    pub const SESSIONS: usize = 32;
    /// Symbols per session.
    pub const SYMBOLS: i64 = 8;
    /// Orders per inject frame: uniform in 1..=MAX_BATCH.
    pub const MAX_BATCH: u64 = 6;
    /// Every QUERY_EVERY-th inject/run turn of a session is followed by a
    /// `query` frame (reads beside writes).
    pub const QUERY_EVERY: u64 = 2;
    /// Rows a `query` frame asks for.
    pub const QUERY_LIMIT: u64 = 8;
    /// Offered rate of the measured phase, frames per second, open
    /// loop. Headline latencies come from this phase, which is also the
    /// rate ladder's first rung.
    pub const NOMINAL_FPS: f64 = 1000.0;
    /// Share of `--seconds` spent in the measured phase.
    pub const NOMINAL_SHARE: f64 = 0.6;
    /// Closed-loop saturation phase: frames kept in flight per
    /// connection, and the share of `--seconds` it runs.
    pub const SATURATION_WINDOW: usize = 32;
    pub const SATURATION_SHARE: f64 = 0.1;
    /// The rest of the rate ladder, frames per second, climbed after the
    /// saturation phase until a rung fails.
    pub const LADDER_FPS: [f64; 5] = [1500.0, 2000.0, 3000.0, 4000.0, 6000.0];
    /// Frames per rung: about 1000 injects, so inject p99 has ten samples
    /// beyond it.
    pub const RUNG_FRAMES: usize = 2500;
    /// A rung passes when inject p99 (from scheduled send) stays under
    /// this many milliseconds, nothing is refused, and the backlog is not
    /// growing. The host's scheduling stalls reach tens of milliseconds,
    /// so a tighter limit would measure the host, not the daemon.
    pub const LATENCY_LIMIT_MS: f64 = 50.0;
    /// A phase whose generator p99 lag exceeds this share of the latency
    /// limit did not offer the load it claims: a rung then fails, and a
    /// measured phase's client latencies are not reported.
    pub const MAX_LAG_SHARE: f64 = 0.25;
    /// How often set-up (daemon spawn through all sessions opened) is
    /// repeated; `setup_s` is the median.
    pub const SETUPS: usize = 9;
}

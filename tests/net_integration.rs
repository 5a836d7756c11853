//! End-to-end tests of the TCP query front end: pipelining with
//! out-of-order completion, protocol-level backpressure, malformed
//! input answered with clean error frames, and the unified listener
//! shutdown path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::core::net::lifecycle::MAX_PARK;
use algas::core::net::{frame, NetClient, NetConfig, NetServer, Reply};
use algas::core::obs::json::Value;
use algas::core::obs::{traces_json, FlightConfig, QlogConfig, StatsServer};
use algas::core::runtime::{AlgasServer, RuntimeConfig};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;

const DIM: usize = 16;

fn start_stack(runtime_cfg: RuntimeConfig, net_cfg: NetConfig) -> Stack {
    let ds = DatasetSpec::tiny(800, DIM, Metric::L2, 4242).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let cfg = EngineConfig { k: 10, l: 64, slots: runtime_cfg.n_slots, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("tuning");
    let server = Arc::new(AlgasServer::start(engine, runtime_cfg));
    let net = NetServer::start("127.0.0.1:0", Arc::clone(&server), net_cfg).expect("bind");
    Stack { server, net, queries: ds.queries }
}

struct Stack {
    server: Arc<AlgasServer>,
    net: NetServer,
    queries: algas::vector::VectorStore,
}

impl Stack {
    fn default_runtime() -> RuntimeConfig {
        RuntimeConfig {
            n_slots: 4,
            n_workers: 2,
            n_host_threads: 2,
            queue_capacity: 256,
            ..Default::default()
        }
    }

    fn client(&self) -> NetClient {
        let c = NetClient::connect(self.net.local_addr()).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        c
    }
}

/// Acceptance criterion: one connection, ≥ 8 requests in flight,
/// replies matched by request id — and across rounds, at least one
/// completion arrives out of submission order. Rounds go on until one
/// does, for up to 10 s: most runs need one round, but a busy 2-core
/// box has taken over a hundred.
#[test]
fn pipelined_requests_complete_out_of_order_matched_by_request_id() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    const IN_FLIGHT: usize = 16;
    let deadline = Instant::now() + Duration::from_secs(10);

    // Ground truth per query via the in-process blocking path (the
    // runtime is deterministic per query).
    let oracle: Vec<Vec<u32>> = (0..IN_FLIGHT)
        .map(|i| stack.server.search_blocking(stack.queries.get(i).to_vec()).expect("oracle").ids)
        .collect();

    let mut client = stack.client();
    let mut saw_out_of_order = false;
    let mut rounds = 0;
    while Instant::now() < deadline {
        rounds += 1;
        let base = (rounds as u64) << 32;
        for i in 0..IN_FLIGHT {
            client.send_search(base + i as u64, stack.queries.get(i)).expect("send");
        }
        let mut completion_order = Vec::with_capacity(IN_FLIGHT);
        for _ in 0..IN_FLIGHT {
            match client.recv().expect("recv") {
                Reply::Result { request_id, ids, distances } => {
                    assert_eq!(request_id >> 32, rounds as u64, "reply from a stale round");
                    let i = (request_id & 0xFFFF_FFFF) as usize;
                    assert_eq!(
                        ids, oracle[i],
                        "reply for request {i} must match its own query's TopK \
                         (ids are matched by request id, not arrival order)"
                    );
                    assert_eq!(ids.len(), distances.len());
                    assert!(
                        distances.windows(2).all(|w| w[0] <= w[1]),
                        "distances ascend within a reply"
                    );
                    completion_order.push(i);
                }
                other => panic!("expected RESULT, got {other:?}"),
            }
        }
        if completion_order.windows(2).any(|w| w[0] > w[1]) {
            saw_out_of_order = true;
            break;
        }
    }
    assert!(
        saw_out_of_order,
        "no out-of-order completion in {rounds} rounds (10 s) of {IN_FLIGHT} pipelined \
         requests on 2 workers — the front end appears to serialize"
    );
    let net = stack.net.net_stats();
    assert!(net.frames_in >= (IN_FLIGHT * rounds) as u64);
    assert_eq!(net.protocol_errors, 0);
}

/// Acceptance pin: a wire request id the client logged resolves to a
/// server flight trace AND a query-log line carrying the same id plus
/// queue delay, hops, and the SLO rung — the cross-layer join the
/// observability stack exists for.
#[test]
fn wire_request_ids_resolve_to_flight_traces_and_query_log_lines() {
    let runtime = RuntimeConfig {
        n_slots: 4,
        n_workers: 2,
        n_host_threads: 2,
        queue_capacity: 256,
        // Threshold 0: every completion is "slow", so all N timelines
        // are retained; the query log keeps every completion too.
        flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
        qlog: QlogConfig { enabled: true, ..Default::default() },
        ..Default::default()
    };
    let stack = start_stack(runtime, NetConfig::default());
    let mut client = stack.client();

    const N: usize = 12;
    const BASE_ID: u64 = 0xC0FF_EE00;
    for i in 0..N {
        // FLAG_CLIENT_TS sends: the client-send stamp rides the wire
        // and must come back out in the query log untouched.
        client
            .send_search_ts(BASE_ID + i as u64, stack.queries.get(i), 1_000 + i as u64)
            .expect("send");
    }
    for _ in 0..N {
        match client.recv().expect("recv") {
            Reply::Result { request_id, .. } => {
                assert!(
                    (BASE_ID..BASE_ID + N as u64).contains(&request_id),
                    "stray reply id {request_id:#x}"
                );
            }
            other => panic!("expected RESULT, got {other:?}"),
        }
    }
    if !cfg!(feature = "obs") {
        return; // recorders are zero-sized no-ops without obs
    }

    // Every wire id keys a retained flight trace attributed to this
    // connection (the first accepted: id 1), and the /traces JSON is
    // greppable by the id the client logged.
    let traces = stack.server.flight_traces();
    let doc = traces_json(&traces);
    for i in 0..N {
        let id = BASE_ID + i as u64;
        let t = traces
            .iter()
            .find(|t| t.request_id == id)
            .unwrap_or_else(|| panic!("request {id:#x} has no flight trace"));
        assert_eq!(t.conn, 1, "trace attributed to the accepting connection");
        assert!(t.e2e_ns() > 0);
        assert!(doc.contains(&format!("\"request_id\":{id}")), "{id} missing from /traces");
    }

    // One wide-event line per completion, joinable on the same id.
    let lines = stack.server.qlog_lines();
    assert_eq!(lines.len(), N, "{lines:?}");
    let mut seen_ids = Vec::new();
    for line in &lines {
        let doc = Value::parse(line).expect("query-log line parses as JSON");
        let id = doc.get("request_id").unwrap().as_u64().unwrap();
        let i = (id - BASE_ID) as usize;
        assert!(i < N, "stray query-log id {id:#x}");
        seen_ids.push(id);
        assert_eq!(doc.get("conn").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("client_ts_us").unwrap().as_u64(), Some(1_000 + i as u64));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert!(doc.get("queue_ns").unwrap().as_u64().is_some(), "queue delay present");
        assert!(doc.get("hops").unwrap().as_u64().unwrap() > 0, "graph hops recorded");
        assert!(doc.get("slo_level").unwrap().as_u64().is_some(), "SLO rung present");
        assert!(doc.get("e2e_ns").unwrap().as_u64().unwrap() > 0);
    }
    seen_ids.sort_unstable();
    let expected: Vec<u64> = (0..N as u64).map(|i| BASE_ID + i).collect();
    assert_eq!(seen_ids, expected, "every request logged exactly once");

    // The tail exemplar in the stats snapshot points at one of the
    // wire ids this session actually served.
    let stats = stack.server.runtime_stats();
    assert!(stats.exemplar.e2e_ns > 0);
    assert!(
        (BASE_ID..BASE_ID + N as u64).contains(&stats.exemplar.request_id),
        "exemplar id {:#x} is not one of ours",
        stats.exemplar.request_id
    );
    assert_eq!(stats.qlog.logged, N as u64);
}

#[test]
fn overload_answers_retry_after_with_counted_rejects() {
    let runtime = RuntimeConfig {
        n_slots: 1,
        n_workers: 1,
        n_host_threads: 1,
        queue_capacity: 2,
        ..Default::default()
    };
    let net_cfg = NetConfig { max_inflight: 4, ..Default::default() };
    let stack = start_stack(runtime, net_cfg);
    let mut client = stack.client();

    const FLOOD: usize = 200;
    for i in 0..FLOOD {
        client.send_search(i as u64, stack.queries.get(i % stack.queries.len())).expect("send");
    }
    let mut served = 0;
    let mut rejected = 0;
    let mut min_delay = u32::MAX;
    for _ in 0..FLOOD {
        match client.recv().expect("every request gets an answer") {
            Reply::Result { .. } => served += 1,
            Reply::RetryAfter { delay_us, .. } => {
                rejected += 1;
                min_delay = min_delay.min(delay_us);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(served + rejected, FLOOD);
    assert!(served > 0, "some requests must be admitted");
    assert!(rejected > 0, "a 200-request flood against 1 slot / queue 2 / budget 4 must shed load");
    assert!((100..=200_000).contains(&min_delay), "suggested delay in the clamp band");

    let net = stack.net.net_stats();
    assert_eq!(net.backpressure_rejects, rejected as u64, "rejects flow through obs");
    assert_eq!(net.protocol_errors, 0);

    // Backpressure is protocol-level: the runtime's own queue-full
    // counter only grows when submits raced past the in-flight budget.
    let stats = stack.server.stats();
    assert_eq!(stats.completed, served as u64);
}

#[test]
fn garbage_bytes_get_an_error_frame_then_close_and_server_survives() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut bad = stack.client();
    bad.send_raw(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send garbage");
    match bad.recv() {
        Ok(Reply::Error { code, .. }) => {
            assert_eq!(code, frame::ErrorCode::BadMagic as u16);
            // After the error frame the server closes.
            assert!(bad.recv().is_err(), "connection must close after a framing error");
        }
        Ok(other) => panic!("expected ERROR frame, got {other:?}"),
        Err(e) => panic!("expected a clean error frame before close, got {e}"),
    }

    // The listener is unaffected: a fresh connection serves fine.
    let mut good = stack.client();
    match good.search(7, stack.queries.get(0)).expect("post-garbage search") {
        Reply::Result { request_id, ids, .. } => {
            assert_eq!(request_id, 7);
            assert_eq!(ids.len(), 10);
        }
        other => panic!("expected RESULT, got {other:?}"),
    }
    let net = stack.net.net_stats();
    assert!(net.protocol_errors >= 1);
    assert!(net.connections_closed >= 1);
}

#[test]
fn bad_search_payload_is_recoverable_on_the_same_connection() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();

    // Wrong payload length (3 floats instead of DIM): the frame itself
    // is well-formed, so the error is recoverable.
    client.send_search(1, &[1.0, 2.0, 3.0]).expect("send short query");
    match client.recv().expect("error reply") {
        Reply::Error { request_id, code, .. } => {
            assert_eq!(request_id, 1);
            assert_eq!(code, frame::ErrorCode::BadPayload as u16);
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    // Same connection keeps working.
    match client.search(2, stack.queries.get(1)).expect("follow-up search") {
        Reply::Result { request_id, .. } => assert_eq!(request_id, 2),
        other => panic!("expected RESULT, got {other:?}"),
    }
}

/// Remote input must not reach the distance kernels unchecked: a NaN
/// or infinite component would make every candidate distance NaN/Inf
/// and scramble the candidate order. Refused at the frame boundary,
/// recoverably — the frame itself is well-formed.
#[test]
fn non_finite_search_payload_is_refused_and_the_connection_stays_usable() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();
    for (id, bad) in [(1, f32::NAN), (2, f32::INFINITY), (3, f32::NEG_INFINITY)] {
        let mut query = stack.queries.get(0).to_vec();
        query[DIM / 2] = bad;
        client.send_search(id, &query).expect("send");
        // Same again with the client-timestamp extension.
        client.send_search_ts(id + 10, &query, 42).expect("send flagged");
        for expect in [id, id + 10] {
            match client.recv().expect("error reply") {
                Reply::Error { request_id, code, .. } => {
                    assert_eq!(request_id, expect);
                    assert_eq!(code, frame::ErrorCode::BadPayload as u16, "component {bad}");
                }
                other => panic!("expected ERROR for component {bad}, got {other:?}"),
            }
        }
    }
    // Nothing non-finite reached the runtime, and the connection works.
    assert_eq!(stack.server.stats().submitted, 0);
    match client.search(20, stack.queries.get(1)).expect("follow-up search") {
        Reply::Result { request_id, distances, .. } => {
            assert_eq!(request_id, 20);
            assert!(distances.iter().all(|d| d.is_finite()));
        }
        other => panic!("expected RESULT, got {other:?}"),
    }
    assert_eq!(stack.net.net_stats().protocol_errors, 6);
}

/// Latency pins share the box with sibling tests' spinning runtimes,
/// so a pin is the median of a round of samples and passes on the
/// first of a few rounds that meets its bound. The loops these pins
/// replaced miss them by 2x or more in every round.
fn assert_median_under(bound_us: f64, what: &str, mut sample_round: impl FnMut() -> Vec<f64>) {
    let mut medians = Vec::new();
    for _ in 0..4 {
        let mut round = sample_round();
        round.sort_by(f64::total_cmp);
        let median = round[round.len() / 2];
        if median < bound_us {
            return;
        }
        medians.push(median);
    }
    panic!("{what}: median per round {medians:.0?} us, bound {bound_us:.0} us");
}

/// The hand-off pin: with one request outstanding and 20 ms between
/// requests the loop is parked both when the request arrives and when
/// its reply completes, so client round trip minus the server's own
/// submit→deliver span is two wake-ups plus codec and loopback. A loop
/// that sleeps on a timer instead pays about half its longest sleep
/// on the arrival alone (measured 1.7–2.5 ms here with the former
/// 2 ms ladder cap, against ≈ 0.13 ms).
#[test]
fn parked_loop_hands_off_within_half_a_millisecond() {
    if !cfg!(feature = "obs") {
        return; // the server-side span comes from the query log
    }
    let runtime = RuntimeConfig {
        n_slots: 2,
        n_workers: 1,
        n_host_threads: 1,
        queue_capacity: 16,
        qlog: QlogConfig { enabled: true, ..Default::default() },
        ..Default::default()
    };
    let stack = start_stack(runtime, NetConfig::default());
    let mut client = stack.client();
    const PER_ROUND: u64 = 25;
    let mut next_id = 0u64;
    assert_median_under(500.0, "wire + hand-off overhead", || {
        let first = next_id;
        next_id += PER_ROUND;
        let rtt_us: Vec<f64> = (first..next_id)
            .map(|id| {
                std::thread::sleep(Duration::from_millis(20));
                let sent = Instant::now();
                match client.search(id, stack.queries.get(id as usize)).expect("search") {
                    Reply::Result { request_id, .. } => assert_eq!(request_id, id),
                    other => panic!("expected RESULT, got {other:?}"),
                }
                sent.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        // Join each round trip to the server's span for the same id.
        let overhead_us: Vec<f64> = stack
            .server
            .qlog_lines()
            .iter()
            .filter_map(|line| {
                let doc = Value::parse(line).expect("query-log line parses as JSON");
                let id = doc.get("request_id").unwrap().as_u64().unwrap();
                let e2e_us = doc.get("e2e_ns").unwrap().as_u64().unwrap() as f64 / 1e3;
                (id >= first).then(|| rtt_us[(id - first) as usize] - e2e_us)
            })
            .collect();
        assert_eq!(overhead_us.len(), PER_ROUND as usize, "one query-log line per request");
        overhead_us
    });
}

/// Stop wakes the loop instead of waiting out its park timeout: an
/// idle query listener and an idle stats server both join in well
/// under one `MAX_PARK` (a loop that only notices the flag on its
/// next timeout takes half of it in the median).
#[test]
fn idle_servers_stop_well_under_one_park_interval() {
    let stack = start_stack(
        RuntimeConfig { n_slots: 2, n_workers: 1, n_host_threads: 1, ..Default::default() },
        NetConfig::default(),
    );
    let bound_us = MAX_PARK.as_secs_f64() * 1e6 / 4.0;
    fn timed_stop(stop: impl FnOnce()) -> f64 {
        // Long enough idle for any back-off to reach its longest wait.
        std::thread::sleep(Duration::from_millis(10));
        let started = Instant::now();
        stop();
        started.elapsed().as_secs_f64() * 1e6
    }
    assert_median_under(bound_us, "idle NetServer stop", || {
        (0..15)
            .map(|_| {
                let net = NetServer::start(
                    "127.0.0.1:0",
                    Arc::clone(&stack.server),
                    NetConfig::default(),
                )
                .expect("bind");
                timed_stop(|| net.stop())
            })
            .collect()
    });
    assert_median_under(bound_us, "idle StatsServer stop", || {
        (0..15)
            .map(|_| {
                let source: Arc<AlgasServer> = Arc::clone(&stack.server);
                let http = StatsServer::start("127.0.0.1:0", source).expect("bind");
                timed_stop(|| http.stop())
            })
            .collect()
    });
}

#[test]
fn oversized_and_truncated_frames_never_panic_the_server() {
    let stack = start_stack(
        Stack::default_runtime(),
        NetConfig { max_payload: 4096, ..Default::default() },
    );

    // Oversized: a valid header advertising a payload over the cap.
    let mut over = stack.client();
    let mut raw = Vec::new();
    frame::encode_header(&mut raw, frame::Opcode::Search, 9, 1 << 30);
    over.send_raw(&raw).expect("send oversized header");
    match over.recv().expect("reply") {
        Reply::Error { code, .. } => assert_eq!(code, frame::ErrorCode::Oversize as u16),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // Truncated: half a frame then an abrupt close — no reply owed,
    // nothing to crash.
    let mut trunc = stack.client();
    let mut raw = Vec::new();
    frame::encode_search(&mut raw, 11, stack.queries.get(0));
    trunc.send_raw(&raw[..raw.len() / 2]).expect("send half frame");
    drop(trunc);

    // Server still serves.
    let mut good = stack.client();
    match good.search(12, stack.queries.get(2)).expect("post-truncation search") {
        Reply::Result { request_id, .. } => assert_eq!(request_id, 12),
        other => panic!("expected RESULT, got {other:?}"),
    }
}

#[test]
fn ping_echoes_and_stats_returns_parseable_json_with_net_counters() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();

    client.send_ping(21, b"heartbeat").expect("ping");
    match client.recv().expect("pong") {
        Reply::Pong { request_id, payload } => {
            assert_eq!(request_id, 21);
            assert_eq!(payload, b"heartbeat");
        }
        other => panic!("expected PONG, got {other:?}"),
    }

    match client.search(22, stack.queries.get(3)).expect("search") {
        Reply::Result { .. } => {}
        other => panic!("expected RESULT, got {other:?}"),
    }

    client.send_stats(23).expect("stats");
    match client.recv().expect("stats reply") {
        Reply::Stats { request_id, json } => {
            assert_eq!(request_id, 23);
            let stats = Value::parse(&json).expect("stats JSON parses");
            let at = |block: &str, key: &str| stats.get(block)?.get(key)?.as_u64();
            assert!(at("net", "frames_in") >= Some(2), "the STATS snapshot carries net counters");
            assert!(at("net", "connections_accepted") >= Some(1));
            assert!(at("queries", "completed") >= Some(1));
        }
        other => panic!("expected STATS reply, got {other:?}"),
    }
}

/// Partial-write resume: pipelined large PONG echoes overflow the
/// socket's send buffer while the client isn't reading, forcing the
/// server through its WouldBlock/resume path; every byte must still
/// arrive intact.
#[test]
fn partial_writes_resume_under_a_stalled_reader() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();

    const ECHO: usize = 256 * 1024;
    const COUNT: usize = 8;
    let blob: Vec<u8> = (0..ECHO).map(|i| (i % 251) as u8).collect();
    for i in 0..COUNT {
        client.send_ping(i as u64, &blob).expect("send big ping");
    }
    // Only now start reading: the server has had to buffer ~2 MiB of
    // echo against a full socket buffer.
    let mut seen = [false; COUNT];
    for _ in 0..COUNT {
        match client.recv().expect("pong") {
            Reply::Pong { request_id, payload } => {
                assert_eq!(payload, blob, "echo payload corrupted across partial writes");
                seen[request_id as usize] = true;
            }
            other => panic!("expected PONG, got {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every pipelined ping answered");
}

/// A client that pipelines requests and never reads must not grow the
/// server's memory without bound: once its unflushed replies pass the
/// per-connection cap (8 MiB) the connection is dropped — also while
/// the socket reports no room, which is exactly when the buffer grows.
#[test]
fn a_client_that_never_reads_is_dropped_at_the_write_backlog_cap() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();
    const ECHO: usize = 1 << 20;
    const COUNT: usize = 40;
    let blob = vec![0xA5u8; ECHO];
    // 40 MiB of echo owed; far more than the socket buffers plus the
    // cap can hold. The sends themselves may start failing once the
    // server has dropped the connection.
    for i in 0..COUNT {
        if client.send_ping(i as u64, &blob).is_err() {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while stack.net.net_stats().connections_closed == 0 {
        assert!(Instant::now() < deadline, "the stalled connection was never dropped");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut pongs = 0;
    while let Ok(Reply::Pong { .. }) = client.recv() {
        pongs += 1;
    }
    assert!(pongs < COUNT, "all {COUNT} echoes arrived: nothing was capped");
    // The listener is unaffected.
    let mut good = stack.client();
    assert!(matches!(good.search(1, stack.queries.get(0)), Ok(Reply::Result { .. })));
}

#[test]
fn net_server_starts_and_stops_twice_on_the_same_port() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let addr = stack.net.local_addr();

    let mut c = stack.client();
    assert!(matches!(c.search(1, stack.queries.get(0)), Ok(Reply::Result { .. })));
    stack.net.stop();
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "stopped listener must release the port"
    );

    // Same port, same runtime, second listener generation.
    let net2 = NetServer::start(addr, Arc::clone(&stack.server), NetConfig::default())
        .expect("rebind the same port");
    let mut c2 = NetClient::connect(addr).expect("reconnect");
    c2.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    assert!(matches!(c2.search(2, stack.queries.get(1)), Ok(Reply::Result { .. })));
    net2.stop();
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
}

/// Stop with replies still in flight: the bounded linger drains what
/// the runtime already owes before the connections close.
#[test]
fn stop_drains_in_flight_replies_within_the_linger() {
    let stack = start_stack(Stack::default_runtime(), NetConfig::default());
    let mut client = stack.client();
    const BATCH: usize = 8;
    for i in 0..BATCH {
        client.send_search(i as u64, stack.queries.get(i)).expect("send");
    }
    let stop_started = Instant::now();
    stack.net.stop();
    assert!(stop_started.elapsed() < Duration::from_secs(5), "stop must be bounded");
    // Whatever was accepted before the stop flag is either answered or
    // the connection closed cleanly — but no hang and no panic.
    let mut answered = 0;
    loop {
        match client.recv() {
            Ok(Reply::Result { .. }) => answered += 1,
            Ok(other) => panic!("unexpected reply {other:?}"),
            Err(_) => break, // close after drain
        }
    }
    assert!(answered <= BATCH);
}

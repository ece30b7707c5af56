//! Integration tests for `dds serve`: the single-flight cache, structured
//! failure responses, graceful drain, byte-identity with the CLI's
//! `--json` output for the whole `specs/` corpus, and the keep-alive wire
//! layer — pipelining, framing errors, idle/cap closes, and cache
//! persistence across restarts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use dds_cli::render;
use dds_cli::serve::{client, ServeOptions, Server};
use dds_cli::VerifyRequest;

/// A cheap, always-valid spec.
const QUICK_SPEC: &str = "system quick\n\
    schema {\n  relation E/2\n}\n\
    class free\n\
    registers x\n\
    states {\n  start init\n  acc\n}\n\
    rule start -> acc: E(x_old, x_new)\n\
    property reach {\n  accept acc\n  expect nonempty\n}\n";

/// A heavy spec (~tens of ms release, more under debug): two registers
/// over the free class with an unreachable accept state, so the engine
/// exhausts the whole amalgamation space.
const HEAVY_SPEC: &str = "system heavy\n\
    schema {\n  relation E/2\n  relation red/1\n}\n\
    class free\n\
    registers x y\n\
    states {\n  s0 init\n  s1\n  s2\n  acc\n}\n\
    rule s0 -> s1: E(x_old, x_new) & E(y_old, y_new)\n\
    rule s1 -> s2: E(x_new, x_old) & red(y_new)\n\
    rule s2 -> s1: E(x_old, x_new) & E(y_new, y_old)\n\
    rule s1 -> s0: E(y_new, y_old) & red(x_new)\n\
    property reach {\n  accept acc\n}\n";

fn start(opts: ServeOptions) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        ..opts
    })
    .expect("server starts")
}

#[test]
fn concurrent_identical_requests_run_the_engine_exactly_once() {
    let server = start(ServeOptions {
        workers: 8,
        ..ServeOptions::default()
    });
    let addr = server.addr();

    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client::verify(&addr, HEAVY_SPEC, None, None).expect("request")
            })
        })
        .collect();
    let bodies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for resp in &bodies {
        assert_eq!(resp.status, 200, "{}", resp.body);
        // Bit-identical, *including* wall_ns: everyone replays the one
        // elected run's rendered bytes.
        assert_eq!(resp.body, bodies[0].body);
    }
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 1, "single-flight elected one run");
    assert_eq!(stats.cache_hits as usize, n - 1);
    assert_eq!(stats.verifications as usize, n);
}

#[test]
fn timeout_is_a_structured_error_and_the_server_survives() {
    let server = start(ServeOptions {
        workers: 2,
        timeout_ms: 1,
        ..ServeOptions::default()
    });
    let addr = server.addr();

    let resp = client::verify(&addr, HEAVY_SPEC, None, None).expect("request");
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("\"kind\": \"error\""), "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"timeout\""), "{}", resp.body);

    // The worker that served the timeout is still alive; the abandoned
    // run keeps filling the cache in the background.
    let resp = client::health(&addr).expect("health after timeout");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
}

#[test]
fn a_panicking_run_is_a_500_and_the_server_survives() {
    let server = start(ServeOptions::default());
    let addr = server.addr();
    let spec = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../specs/adversarial/free_r3.dds"),
    )
    .unwrap();

    // Three fresh points of `R/3` make a family of 27 optional facts, over
    // the enumeration's limit: the engine panics instead of exhausting
    // memory, and the daemon reports it.
    let resp = client::verify(&addr, &spec, None, None).expect("request");
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"internal-error\""),
        "{}",
        resp.body
    );

    let resp = client::health(&addr).expect("health after the panic");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);
    server.shutdown();
}

#[test]
fn oversize_bad_json_and_spec_errors_are_structured() {
    let server = start(ServeOptions {
        max_request_bytes: 256,
        ..ServeOptions::default()
    });
    let addr = server.addr();

    // 413: Content-Length over the limit, rejected before reading.
    let resp = client::verify(&addr, &"x".repeat(512), None, None).expect("oversize");
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"oversize\""), "{}", resp.body);

    // 400: not JSON at all.
    let resp = client::raw(&addr, "POST", "/verify", "not json").expect("bad json");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"bad-request\""),
        "{}",
        resp.body
    );

    // 400: JSON but no `spec` field.
    let resp = client::raw(&addr, "POST", "/verify", "{\"label\":\"x\"}").expect("no spec");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // 422: a spec diagnostic, with its 1-based line number.
    let resp = client::verify(&addr, "system broken\nclass nope\n", None, None).expect("spec err");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"spec-error\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"line\":2"), "{}", resp.body);

    // 404: unknown endpoint.
    let resp = client::raw(&addr, "GET", "/nope", "").expect("404");
    assert_eq!(resp.status, 404, "{}", resp.body);

    let stats = server.shutdown();
    assert_eq!(stats.spec_errors, 1);
    assert_eq!(stats.rejected, 4, "413 + two 400s + 404");
}

#[test]
fn health_and_stats_report_the_service_counters() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    let resp = client::health(&addr).expect("health");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"kind\": \"health\""), "{}", resp.body);
    assert!(resp.body.contains("\"status\": \"ok\""), "{}", resp.body);

    // One cold run, one hit.
    assert_eq!(
        client::verify(&addr, QUICK_SPEC, None, None)
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client::verify(&addr, QUICK_SPEC, None, None)
            .unwrap()
            .status,
        200
    );

    let resp = client::stats(&addr).expect("stats");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"kind\": \"stats\""), "{}", resp.body);
    // The default `--threads auto` resolves to the hardware thread count —
    // always at least one worker.
    assert!(resp.body.contains("\"engine_threads\": "), "{}", resp.body);
    assert!(
        !resp.body.contains("\"engine_threads\": 0"),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"engine_runs\": 1"), "{}", resp.body);
    assert!(resp.body.contains("\"cache_hits\": 1"), "{}", resp.body);
    assert!(resp.body.contains("\"cache_hit_rate\""), "{}", resp.body);

    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 1);
    assert_eq!(stats.cache_hits, 1);
    assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let server = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let addr = server.addr();

    let in_flight = std::thread::spawn(move || {
        client::verify(&addr, HEAVY_SPEC, None, None).expect("in-flight request")
    });
    // Give the request time to reach a worker, then start draining.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let resp = client::shutdown(&addr).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains("\"status\": \"draining\""),
        "{}",
        resp.body
    );

    // The in-flight verification still completes with a real answer.
    let resp = in_flight.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"outcome\":\"empty\""), "{}", resp.body);

    let stats = server.wait();
    assert_eq!(stats.verifications, 1);
}

#[test]
fn serve_and_cli_json_are_byte_identical_for_the_spec_corpus() {
    let specs_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .join("specs");
    let mut paths: Vec<_> = std::fs::read_dir(&specs_dir)
        .expect("specs dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dds") && p.is_file())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "empty corpus at {}", specs_dir.display());

    let server = start(ServeOptions::default());
    let addr = server.addr();

    for path in paths {
        let spec = std::fs::read_to_string(&path).unwrap();
        let local = VerifyRequest::new(spec.clone())
            .verify()
            .expect("local run");
        let local_json = render::normalize_wall_ns(&render::json(&[local.report]));

        let resp = client::verify(&addr, &spec, None, None).expect("serve run");
        assert_eq!(resp.status, 200, "{}: {}", path.display(), resp.body);
        assert_eq!(
            render::normalize_wall_ns(&resp.body),
            local_json,
            "{}: serve and CLI JSON must be byte-identical (up to wall_ns)",
            path.display()
        );
    }
    server.shutdown();
}

/// A cheap spec with a parameterized system name — distinct names give
/// distinct fingerprints, hence distinct cached bodies.
fn named_spec(name: &str) -> String {
    format!(
        "system {name}\n\
         schema {{\n  relation E/2\n}}\n\
         class free\n\
         registers x\n\
         states {{\n  start init\n  acc\n}}\n\
         rule start -> acc: E(x_old, x_new)\n\
         property reach {{\n  accept acc\n  expect nonempty\n}}\n"
    )
}

#[test]
fn pipelined_requests_are_answered_in_order_and_byte_identical() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    // Sequential reference run: three distinct specs, three labels.
    let specs: Vec<String> = (0..3).map(|i| named_spec(&format!("pipe_{i}"))).collect();
    let sequential: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let resp = client::verify(&addr, s, Some(&format!("pipe_{i}.dds")), None).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body
        })
        .collect();

    // Pipelined: all three requests written before any response is read.
    let mut conn = client::Conn::connect(&addr).expect("connect");
    for (i, s) in specs.iter().enumerate() {
        let body = client::verify_body(s, Some(&format!("pipe_{i}.dds")), None);
        conn.send("POST", "/verify", &body).expect("send");
    }
    for (i, want) in sequential.iter().enumerate() {
        let resp = conn.recv().expect("recv");
        assert_eq!(resp.status, 200, "{}", resp.body);
        // Replays of the cached bodies: bit-identical *including*
        // wall_ns, and in request order (the ids pin which is which).
        assert_eq!(&resp.body, want, "pipelined response {i} out of order");
        assert!(resp.body.contains(&format!("pipe_{i}::reach")));
        assert!(!resp.closed, "keep-alive must survive a pipelined burst");
    }
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 3);
    assert_eq!(stats.cache_hits, 3);
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    let mut conn = client::Conn::connect(&addr).expect("connect");
    let first = conn.verify(QUICK_SPEC, None, None).expect("first");
    assert_eq!(first.status, 200, "{}", first.body);
    for _ in 0..119 {
        let resp = conn.verify(QUICK_SPEC, None, None).expect("replay");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, first.body, "cache replays are bit-identical");
        assert!(!resp.closed);
    }
    let resp = conn.request("GET", "/stats", "").expect("stats");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"connections\": 1"), "{}", resp.body);

    let stats = server.shutdown();
    assert_eq!(stats.connections, 1, "one keep-alive connection");
    assert_eq!(stats.requests, 121, "120 verifies + 1 stats on it");
    assert_eq!(stats.engine_runs, 1);
    assert_eq!(stats.cache_hits, 119);
}

#[test]
fn malformed_content_length_is_a_structured_400() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /verify HTTP/1.1\r\nHost: dds\r\nContent-Length: banana\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("\"code\":\"bad-request\""), "{raw}");
    assert!(raw.contains("malformed Content-Length"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");

    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(
        stats.requests, 1,
        "a framing error is still a counted request"
    );
}

#[test]
fn oversized_head_is_rejected_without_poisoning_the_server() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"POST /verify HTTP/1.1\r\n").unwrap();
    // Just over the 16 KiB head cap, without a terminating blank line —
    // and nothing more, so the server consumes every written byte before
    // rejecting (a clean FIN, not a reset that could eat the response).
    for _ in 0..600 {
        stream
            .write_all(b"X-Junk: aaaaaaaaaaaaaaaaaaa\r\n")
            .unwrap();
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("request head too large"), "{raw}");
    drop(stream);

    // The connection loop is not poisoned: the next client is served.
    let resp = client::verify(&addr, QUICK_SPEC, None, None).expect("after oversize head");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown();
}

#[test]
fn mid_body_disconnect_does_not_poison_the_server() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /verify HTTP/1.1\r\nHost: dds\r\nContent-Length: 100\r\n\r\nshort")
            .unwrap();
        // Drop mid-body: the server sees EOF before the declared length.
    }
    // The worker that hit the dead socket lives on and serves the next
    // connection normally.
    let resp = client::verify(&addr, QUICK_SPEC, None, None).expect("after disconnect");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let stats = server.shutdown();
    assert!(stats.rejected >= 1, "the dead request was rejected");
    assert!(stats.requests >= stats.rejected, "no stats skew");
}

#[test]
fn wrong_method_on_a_known_path_is_405_with_allow() {
    let server = start(ServeOptions::default());
    let addr = server.addr();

    // Raw read so the Allow header is visible.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /verify HTTP/1.1\r\nHost: dds\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405 "), "{raw}");
    assert!(raw.contains("\r\nAllow: POST\r\n"), "{raw}");
    assert!(raw.contains("\"code\":\"method-not-allowed\""), "{raw}");

    let resp = client::raw(&addr, "DELETE", "/health", "").expect("405 health");
    assert_eq!(resp.status, 405, "{}", resp.body);

    // Unknown paths are still 404.
    let resp = client::raw(&addr, "GET", "/nope", "").expect("404");
    assert_eq!(resp.status, 404, "{}", resp.body);

    let stats = server.shutdown();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.requests, 3);
}

#[test]
fn idle_and_request_cap_close_keep_alive_connections() {
    let server = start(ServeOptions {
        idle_timeout_ms: 200,
        max_conn_requests: 3,
        ..ServeOptions::default()
    });
    let addr = server.addr();

    // Request cap: the third response announces the close.
    let mut conn = client::Conn::connect(&addr).expect("connect");
    for i in 1..=3 {
        let resp = conn.verify(QUICK_SPEC, None, None).expect("capped");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.closed, i == 3, "request {i} of a 3-request cap");
    }
    assert!(
        conn.verify(QUICK_SPEC, None, None).is_err(),
        "the capped connection is gone"
    );

    // Idle timeout: a connection that sends nothing is closed.
    let mut idle = client::Conn::connect(&addr).expect("connect");
    std::thread::sleep(std::time::Duration::from_millis(700));
    assert!(
        idle.verify(QUICK_SPEC, None, None).is_err(),
        "the idle connection is gone"
    );
    server.shutdown();
}

#[test]
fn cache_file_round_trips_across_a_restart() {
    let path =
        std::env::temp_dir().join(format!("dds-serve-cache-test-{}.bin", std::process::id()));
    let path_str = path.to_str().unwrap().to_owned();
    let _ = std::fs::remove_file(&path);

    // First daemon: one cold run, then drain (which persists the cache).
    let server = start(ServeOptions {
        cache_file: Some(path_str.clone()),
        ..ServeOptions::default()
    });
    let addr = server.addr();
    let first = client::verify(&addr, QUICK_SPEC, Some("persist.dds"), None).expect("cold");
    assert_eq!(first.status, 200, "{}", first.body);
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 1);
    assert!(path.exists(), "drain persisted the cache");

    // Second daemon: the same spec replays from the persisted cache with
    // zero engine runs and bit-identical bytes (wall_ns included).
    let server = start(ServeOptions {
        cache_file: Some(path_str.clone()),
        ..ServeOptions::default()
    });
    assert_eq!(server.cache_entries(), 1, "restart reloaded the cache");
    let addr = server.addr();
    let replay = client::verify(&addr, QUICK_SPEC, Some("persist.dds"), None).expect("replay");
    assert_eq!(replay.status, 200);
    assert_eq!(replay.body, first.body, "persisted replay is bit-identical");
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 0, "answered from the persisted cache");
    assert_eq!(stats.cache_hits, 1);

    // A stale or corrupt file is discarded wholesale, never trusted.
    std::fs::write(&path, b"dds-serve-cache 999 schema=9\ngarbage\n").unwrap();
    let server = start(ServeOptions {
        cache_file: Some(path_str),
        ..ServeOptions::default()
    });
    assert_eq!(server.cache_entries(), 0, "stale cache file discarded");
    let addr = server.addr();
    let resp = client::verify(&addr, QUICK_SPEC, Some("persist.dds"), None).expect("cold again");
    assert_eq!(resp.status, 200);
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 1, "the stale file forced a real run");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_spec_that_fails_to_lower_is_422_every_time_and_never_cached() {
    let server = start(ServeOptions::default());
    let addr = server.addr();
    // Parses (so it has a fingerprint) but fails to lower: `accept` names
    // an undeclared state.
    let spec = QUICK_SPEC.replace("accept acc", "accept nowhere");
    for _ in 0..2 {
        let resp = client::verify(&addr, &spec, None, None).expect("request");
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"spec-error\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("nowhere"), "{}", resp.body);
    }
    let resp = client::stats(&addr).expect("stats");
    for counter in [
        "\"cache_hits\": 0",
        "\"engine_runs\": 0",
        "\"cache_entries\": 0",
        "\"spec_errors\": 2",
    ] {
        assert!(resp.body.contains(counter), "{counter}: {}", resp.body);
    }
    server.shutdown();
}

#[test]
fn a_repeated_spec_replays_identical_bytes_without_running() {
    let server = start(ServeOptions::default());
    let addr = server.addr();
    let first = client::verify(&addr, QUICK_SPEC, None, None).expect("cold");
    assert_eq!(first.status, 200, "{}", first.body);
    let cold = server.stats();
    assert_eq!((cold.engine_runs, cold.cache_hits), (1, 0));
    for n in 1..=3 {
        let again = client::verify(&addr, QUICK_SPEC, None, None).expect("hit");
        assert_eq!(again.status, 200, "{}", again.body);
        assert_eq!(again.body, first.body, "a hit replays the cached bytes");
        let stats = server.stats();
        assert_eq!((stats.engine_runs, stats.cache_hits), (1, n));
    }
    let stats = server.shutdown();
    assert_eq!(stats.verifications, 4);
}

#[test]
fn an_old_format_cache_file_is_discarded_on_start() {
    let path = std::env::temp_dir().join(format!("dds-serve-cache-old-{}.bin", std::process::id()));
    // A well-formed file under format version 1 (whose keys were computed
    // differently), holding a bogus body under QUICK_SPEC's current key:
    // replaying it would prove the file was trusted.
    let key = VerifyRequest::new(QUICK_SPEC).parse().unwrap().fingerprint;
    let body = "stale";
    std::fs::write(
        &path,
        format!(
            "dds-serve-cache 1 schema={}\n{key:032x} {}\n{body}\n",
            render::SCHEMA_VERSION,
            body.len()
        ),
    )
    .unwrap();
    let server = start(ServeOptions {
        cache_file: Some(path.to_str().unwrap().to_owned()),
        ..ServeOptions::default()
    });
    assert_eq!(server.cache_entries(), 0, "old-format cache file discarded");
    let resp = client::verify(&server.addr(), QUICK_SPEC, None, None).expect("cold");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_ne!(resp.body, body);
    let stats = server.shutdown();
    assert_eq!(stats.engine_runs, 1, "the old file forced a real run");
    let _ = std::fs::remove_file(&path);
}

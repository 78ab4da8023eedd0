//! The request port and the health listener answer the same probe with
//! the same reply: READY byte for byte, HEALTH with the same field set
//! (its counter values move between the two probes).

use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_serve::{Control, ServeConfig};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one probe line and returns the raw first reply line.
fn probe(addr: SocketAddr, verb: &str) -> String {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(format!("{verb}\n").as_bytes())
        .expect("write probe");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read reply");
    line
}

/// The `key=` names of a HEALTH reply, in order.
fn health_fields(reply: &str) -> Vec<String> {
    let rest = reply
        .strip_prefix("OK healthy ")
        .unwrap_or_else(|| panic!("not a HEALTH reply: {reply:?}"));
    rest.split_whitespace()
        .map(|kv| kv.split('=').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn probes_answer_alike_on_both_ports() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh);
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");

        let ready = probe(addr, "READY");
        assert_eq!(ready, "OK ready\n");
        assert_eq!(probe(health, "READY"), ready, "READY differs between ports");

        let on_request = probe(addr, "HEALTH");
        let on_health = probe(health, "HEALTH");
        assert!(on_request.ends_with('\n') && on_health.ends_with('\n'));
        assert_eq!(
            health_fields(&on_request),
            ["accepted", "completed", "shed", "queue_depth"]
        );
        assert_eq!(
            health_fields(&on_request),
            health_fields(&on_health),
            "HEALTH field sets differ: {on_request:?} vs {on_health:?}"
        );

        ctl.request_shutdown();
        server.join().expect("server thread").expect("serve run");
    });
}

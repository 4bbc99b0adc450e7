//! The serve loop's request-line cap: a client that sends more than
//! `MAX_REQUEST_LINE_BYTES` without a newline gets an error line and a
//! closed connection, and the server goes on serving the next client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The cap `crates/cli/src/serve.rs` documents (4 MiB).
const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// Kills the server if the test fails before it shuts down.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn cli(args: &[&str], dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_matsciml-cli"));
    cmd.args(args).current_dir(dir);
    cmd
}

fn connect(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                // A server that keeps reading fails the test instead of hanging it.
                s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                return s;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("server at {addr} never came up: {e}"),
        }
    }
}

fn request(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut reply).unwrap();
    reply
}

#[test]
fn an_over_long_line_closes_its_connection_and_the_next_client_is_served() {
    let dir = std::env::temp_dir().join(format!("matsciml-cli-line-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let train = cli(&["train", "--steps", "2", "--size", "128", "--hidden", "8", "--save", "m.mckpt"], &dir)
        .output()
        .unwrap();
    assert!(train.status.success(), "train: {}", String::from_utf8_lossy(&train.stderr));

    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let args = ["serve", "--ckpt", "m.mckpt", "--addr", &addr, "--size", "16", "--workers", "1"];
    let child = cli(&args, &dir).stdout(Stdio::null()).stderr(Stdio::null()).spawn().unwrap();
    let mut server = Server(child);

    // One byte past the cap, and a full MiB past it, with no newline: a
    // client that writes everything before it reads still gets the error
    // line, then the end of the stream (not a reset).
    for over in [1, 1 << 20] {
        let mut greedy = connect(&addr);
        greedy.write_all(&vec![b' '; MAX_REQUEST_LINE_BYTES + over]).unwrap();
        let mut reader = BufReader::new(greedy);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":false"), "got {reply}");
        assert!(reply.contains(&format!("exceeds {MAX_REQUEST_LINE_BYTES} bytes")), "got {reply}");
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "the connection is closed after the error");
    }

    // A line exactly at the cap is read whole (and is not JSON).
    {
        let mut exact = connect(&addr);
        let reply = request(&mut exact, &format!("x{}", " ".repeat(MAX_REQUEST_LINE_BYTES - 1)));
        assert!(reply.contains("malformed request"), "got {reply}");
    }

    // The next client is served.
    let mut next = connect(&addr);
    let reply = request(&mut next, r#"{"id":7,"index":0}"#);
    assert!(reply.contains("\"ok\":true") && reply.contains("\"id\":7"), "got {reply}");
    let reply = request(&mut next, r#"{"cmd":"shutdown"}"#);
    assert!(reply.contains("\"ok\":true"), "got {reply}");
    let status = server.0.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

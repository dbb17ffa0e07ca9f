//! The `dbr` binary's output path: a reader that stops early must end the
//! command quietly, never with a panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closing_the_reader_early_is_a_quiet_exit() {
    // Enough k = 64 routes (≈ 300 KiB) to overflow any pipe buffer, so
    // the write is guaranteed to hit the closed pipe.
    let dir = std::env::temp_dir().join(format!("dbr-cli-output-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("pairs.txt");
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut word = || {
        (0..64)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                char::from(b'0' + (state & 1) as u8)
            })
            .collect::<String>()
    };
    let text: String = (0..1500)
        .map(|_| format!("{} {}\n", word(), word()))
        .collect();
    std::fs::write(&file, text).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_dbr"))
        .args(["route", "2", "--batch"])
        .arg(&file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 300];
    stdout.read_exact(&mut head).unwrap();
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.is_empty(),
        "a closed reader is not an error: {stderr}"
    );
    assert!(out.status.success(), "{:?}", out.status);
    // What was read is the route listing: "<distance> <route>" lines.
    let first = String::from_utf8_lossy(&head);
    let (dist, route) = first.split_once(' ').unwrap();
    assert!(dist.parse::<usize>().is_ok(), "{first}");
    assert!(route.starts_with('('), "{first}");
}

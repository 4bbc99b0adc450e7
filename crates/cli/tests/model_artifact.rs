//! The CLI's one model artifact: `train --save` writes a `.mckpt` that
//! `embed --load` and `quantize --ckpt` read, and the removed JSON model
//! flag is refused.

use std::path::Path;
use std::process::{Command, Output};

fn cli(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_matsciml-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the CLI binary runs")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn train_save_feeds_embed_and_quantize() {
    let dir = std::env::temp_dir().join(format!("matsciml-cli-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let train = cli(&["train", "--steps", "2", "--size", "128", "--hidden", "8", "--save", "m.mckpt"], &dir);
    assert_ok(&train, "train --save");
    assert!(dir.join("m.mckpt").is_file());

    let embed = cli(&["embed", "--load", "m.mckpt", "--count", "4"], &dir);
    assert_ok(&embed, "embed --load");
    assert_eq!(String::from_utf8_lossy(&embed.stdout).lines().count(), 4);

    let quantize = cli(&["quantize", "--ckpt", "m.mckpt", "--out", "q.mckpt"], &dir);
    assert_ok(&quantize, "quantize");
    assert!(dir.join("q.mckpt").is_file());

    let serve = cli(&["serve", "--model", "x.json"], &dir);
    assert!(!serve.status.success());
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert!(stderr.contains("unknown flag(s): --model"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

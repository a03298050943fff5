//! Stamps the benchmark binary with the build it came from: the
//! `rustc` version that compiled it, the git commit when the source
//! tree is a git checkout, and a digest of the workspace sources it
//! was built from (present either way, so two results from different
//! sources are never mistaken for one build).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect(&p, files);
        } else if p
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            files.push(p);
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only a git checkout of this very tree names the commit; a source
    // tree unpacked inside some other repository does not.
    let dir = root.to_string_lossy().into_owned();
    let toplevel = command_line("git", &["-C", &dir, "rev-parse", "--show-toplevel"]);
    let commit = toplevel
        .filter(|t| fs::canonicalize(t).ok() == fs::canonicalize(&root).ok())
        .and_then(|_| command_line("git", &["-C", &dir, "rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "none".into());
    let mut files = Vec::new();
    for sub in ["crates", "vendor", "src"] {
        collect(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        let content = fs::read(f).unwrap_or_default();
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&content) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
    for sub in ["crates", "vendor", "src", "Cargo.toml", "Cargo.lock"] {
        println!("cargo:rerun-if-changed={}", root.join(sub).display());
    }
}

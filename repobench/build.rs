//! Stamps provenance into the binary: the compiler version, the git commit
//! when the checkout has one, and a digest of the crates' sources (which
//! identifies the measured code even in a checkout without git metadata).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=REPOBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=REPOBENCH_COMMIT={}",
        git_head(Path::new("../.git")).unwrap_or_else(|| "none".to_string())
    );
    let mut files = Vec::new();
    collect(Path::new("../crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=REPOBENCH_SOURCE={h:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=build.rs");
    for p in ["../.git/HEAD", "../.git/refs/heads", "../.git/packed-refs"] {
        if Path::new(p).exists() {
            println!("cargo:rerun-if-changed={p}");
        }
    }
}

/// Resolves `HEAD` by reading the git metadata files directly (no `git`
/// process, nothing read outside the checkout).
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

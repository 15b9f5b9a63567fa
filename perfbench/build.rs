//! Records the toolchain, commit and build profile for the host header.

use std::path::Path;
use std::process::Command;

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark lives one level below the repository root");
    println!("cargo:rerun-if-changed=build.rs");
    let head_log = root.join(".git/logs/HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = run(Command::new(rustc).arg("--version"));
    // Stop git's repository search at the checkout root: a checkout that
    // is not a repository reports `unknown` instead of an enclosing one.
    let ceiling = root.parent().unwrap_or(root);
    let commit = run(Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", ceiling));
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());

    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
}

/// The command's trimmed stdout, or `unknown` if it fails to run or exits
/// non-zero.
fn run(cmd: &mut Command) -> String {
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

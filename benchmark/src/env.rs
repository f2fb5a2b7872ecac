//! Where the benchmark runs: the `rim` binary it drives and its scratch
//! directory.

use crate::proc::{run_watched, ChildRun};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The built `rim` binary and a scratch directory for one workload.
#[derive(Debug, Clone)]
pub struct Env {
    /// `<target>/release/rim`.
    pub rim: PathBuf,
    /// `<target>/rim-benchmark/<name>`: input and output files.
    pub work: PathBuf,
    /// Worker threads `rim` uses (`available_parallelism`).
    pub threads: usize,
}

/// The repository root: the parent of this package.
fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark package has no parent directory")?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!("{} holds no rim sources", root.display()));
    }
    Ok(root.to_path_buf())
}

/// The cargo target directory this executable was built into: the
/// parent of its profile directory (`<target>/release/rim-benchmark`,
/// or `<target>/debug/deps/<test>` for test binaries).
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut dir = exe.parent().ok_or("executable without a directory")?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().ok_or("deps directory without a parent")?;
    }
    Ok(dir
        .parent()
        .ok_or("profile directory without a parent")?
        .to_path_buf())
}

impl Env {
    /// Builds `rim` in release mode from this checkout's sources into the
    /// benchmark's own target directory, and creates the scratch
    /// directory `name`.
    pub fn prepare(name: &str) -> Result<Env, String> {
        let root = repo_root()?;
        let target = target_dir()?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "rim-cli",
                "--manifest-path",
            ])
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building rim failed ({status})"));
        }
        let rim = target.join("release").join("rim");
        let work = target.join("rim-benchmark").join(name);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Env {
            rim,
            work,
            threads: rim_core::parallel::num_threads(),
        })
    }

    /// A path in the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Runs `rim` with `args` to completion (see [`run_watched`]); `Err`
    /// only when it cannot be started.
    pub fn run_rim(&self, args: &[&str]) -> Result<ChildRun, String> {
        run_watched(Command::new(&self.rim).args(args))
            .map_err(|e| format!("cannot run {}: {e}", self.rim.display()))
    }
}

/// Reads a file, naming it in the error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Writes a file, naming it in the error.
pub fn write(path: &Path, content: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

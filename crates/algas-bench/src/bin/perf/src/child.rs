//! Everything the benchmark does through the operating system: building
//! the programs, running CLI steps, owning the `algas serve` child,
//! reading its `/proc` entries and its HTTP pages.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the run lives: the checkout it was started in, Cargo's target
/// directory there, and this process's scratch directory inside it.
pub struct Layout {
    pub root: PathBuf,
    pub target: PathBuf,
}

impl Layout {
    /// `root` must be the root of an ALGAS checkout.
    pub fn at(root: PathBuf) -> Result<Self, String> {
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).map_err(|e| {
            format!("{}/Cargo.toml: {e} — run from the root of an ALGAS checkout", root.display())
        })?;
        if !manifest.contains("name = \"algas\"") {
            return Err(format!("{}/Cargo.toml is not the algas package", root.display()));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        Ok(Self { root, target })
    }

    /// `cargo build --release --bin algas` in the checkout; the binary's path.
    pub fn build_algas(&self) -> Result<PathBuf, String> {
        let mut cmd = Command::new("cargo");
        cmd.args(["build", "--release", "--quiet", "--bin", "algas"]).current_dir(&self.root);
        run_to_completion(&mut cmd, "cargo build --bin algas")?;
        self.built("algas")
    }

    fn built(&self, name: &str) -> Result<PathBuf, String> {
        let bin = self.target.join("release").join(name);
        if bin.is_file() {
            Ok(bin)
        } else {
            Err(format!("{} missing after the build", bin.display()))
        }
    }

    /// Builds the replay package beside this file's package. It links the
    /// library, so it needs the checkout's `[patch.crates-io]` entries;
    /// they are read from the root manifest and handed over as `--config`,
    /// which keeps the replay's own manifest free of vendored paths.
    pub fn build_replay(&self) -> Result<PathBuf, String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("replay").join("Cargo.toml");
        let root_manifest = std::fs::read_to_string(self.root.join("Cargo.toml"))
            .map_err(|e| format!("Cargo.toml: {e}"))?;
        let mut cmd = Command::new("cargo");
        cmd.args(["build", "--release", "--quiet", "--manifest-path"])
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&self.target)
            .current_dir(&self.root);
        for (name, rel) in crates_io_patches(&root_manifest) {
            let abs = self.root.join(rel);
            cmd.arg("--config").arg(format!(
                "patch.crates-io.{name}.path={}",
                crate::json::quote(&abs.to_string_lossy())
            ));
        }
        run_to_completion(&mut cmd, "cargo build of the replay package")?;
        self.built("algas-perf-replay")
    }
}

/// `(crate, relative path)` of each `name = { path = "…" }` line in the
/// manifest's `[patch.crates-io]` table.
fn crates_io_patches(manifest: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[patch.crates-io]";
        } else if in_table {
            let Some((name, rest)) = line.split_once('=') else { continue };
            let Some(path) = rest.split("path").nth(1).and_then(|p| p.split('"').nth(1)) else {
                continue;
            };
            out.push((name.trim().to_string(), path.to_string()));
        }
    }
    out
}

fn run_to_completion(cmd: &mut Command, what: &str) -> Result<std::process::Output, String> {
    let out = cmd.stdin(Stdio::null()).output().map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what} failed ({}):\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out)
}

/// Runs one program to completion; its standard output and wall seconds.
pub fn timed(program: &Path, args: &[String]) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let what = format!("{} {}", program.display(), args.join(" "));
    let out = run_to_completion(Command::new(program).args(args), &what)?;
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), t0.elapsed().as_secs_f64()))
}

/// First line of `program --version`-style output, or "unknown".
pub fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// A directory removed when the value is dropped, on every exit path.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }

    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `algas serve` child. Dropping it kills the child and waits
/// for it, so no exit path — error return or panic — leaves one behind.
pub struct Server {
    child: Child,
    pub net: SocketAddr,
    pub http: SocketAddr,
    pub command_line: String,
    out_path: PathBuf,
    err_path: PathBuf,
}

impl Server {
    /// Spawns `algas serve <args>` with its output captured under `dir`,
    /// reads the two ephemeral ports off its standard output and waits
    /// for `/readyz`.
    pub fn spawn(algas: &Path, args: &[String], dir: &TempDir, tag: &str) -> Result<Self, String> {
        let out_path = dir.0.join(format!("serve-{tag}.out"));
        let err_path = dir.0.join(format!("serve-{tag}.err"));
        let create =
            |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        // The child idles by spinning: its worker and host threads stay
        // runnable, which on a box with as many such threads as cores
        // would leave the one generator thread waiting for a time slice
        // when a request falls due. Running the child at a lower priority
        // (which needs no privilege) lets the generator preempt it; the
        // child's threads still compete with each other as they always do.
        let child = Command::new("nice")
            .args(["-n", "10"])
            .arg(algas)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(create(&out_path)?)
            .stderr(create(&err_path)?)
            .spawn()
            .map_err(|e| format!("{} serve: {e}", algas.display()))?;
        let command_line = format!("algas serve {}", args.join(" "));
        // From here on the child is owned: an early return drops and kills it.
        let mut server = Self {
            child,
            net: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: SocketAddr::from(([127, 0, 0, 1], 0)),
            command_line,
            out_path,
            err_path,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let printed = std::fs::read_to_string(&server.out_path).unwrap_or_default();
            let addr_after = |marker: &str| {
                printed
                    .lines()
                    .find_map(|l| l.split_once(marker))
                    .and_then(|(_, addr)| addr.trim().parse::<SocketAddr>().ok())
            };
            if let (Some(net), Some(http)) = (
                addr_after("query protocol listening on "),
                addr_after("stats listening on http://"),
            ) {
                server.net = net;
                server.http = http;
                break;
            }
            server.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("serve printed no addresses in 30 s\n{}", server.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        loop {
            if matches!(http_get(server.http, "/readyz", 2.0), Ok((body, _)) if body.trim() == "ok")
            {
                return Ok(server);
            }
            server.check_alive()?;
            if Instant::now() > deadline {
                return Err(format!("/readyz not ok in 30 s\n{}", server.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// An error carrying the log tail if the child has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("serve exited early ({status})\n{}", self.log_tail())),
            Err(e) => Err(format!("serve: {e}")),
        }
    }

    /// The last lines of the child's standard output and error.
    pub fn log_tail(&self) -> String {
        let tail = |p: &Path| {
            let text = std::fs::read_to_string(p).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            lines[lines.len().saturating_sub(20)..].join("\n")
        };
        format!(
            "--- {} ---\n--- stdout tail ---\n{}\n--- stderr tail ---\n{}",
            self.command_line,
            tail(&self.out_path),
            tail(&self.err_path)
        )
    }

    /// CPU seconds (user + system) the child has used, from
    /// `/proc/<pid>/stat`. Ticks are 1/100 s on every Linux this runs on.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name (field 2) may hold spaces; fields resume after ')'.
        let rest =
            stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no ')'"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        // utime and stime are fields 14 and 15, i.e. 11 and 12 after the name.
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok((u + s) as f64 / 100.0),
            _ => Err(format!("{path}: cannot read utime/stime")),
        }
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 GET; the body and the milliseconds it took. The stats
/// server closes after each response, so reading to the end delimits it.
pub fn http_get(addr: SocketAddr, path: &str, timeout_s: f64) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let timeout = Duration::from_secs_f64(timeout_s);
    let err = |e: std::io::Error| format!("GET {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(err)?;
    stream.set_read_timeout(Some(timeout)).map_err(err)?;
    stream.set_write_timeout(Some(timeout)).map_err(err)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(err)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(err)?;
    let (head, body) =
        raw.split_once("\r\n\r\n").ok_or_else(|| format!("GET {path}: malformed response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200") {
        return Err(format!("GET {path}: {status}"));
    }
    Ok((body.to_string(), t0.elapsed().as_secs_f64() * 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_path_patches_out_of_a_manifest() {
        let manifest = "[workspace]\nmembers = []\n\n[patch.crates-io]\n# comment\n\
                        rand = { path = \"vendor/rand\" }\nserde={path=\"vendor/serde\"}\n\
                        git_one = { git = \"https://example.invalid\" }\n\n[package]\nname = \"algas\"\n";
        assert_eq!(
            crates_io_patches(manifest),
            vec![("rand".into(), "vendor/rand".into()), ("serde".into(), "vendor/serde".into())]
        );
        assert!(crates_io_patches("[package]\nname = \"x\"\n").is_empty());
    }
}

//! Server processes: spawns `reproduce serve`, learns its bound address from
//! the first stdout line, and kills and reaps it on drop, so no process
//! outlives the benchmark even when a workload fails half-way.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ayd_serve::HttpClient;

use crate::procfs;
use crate::prom::Snapshot;

pub struct ServerProcess {
    child: Child,
    /// Kept open: the server writes its start-up lines here.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spool directory of a worker (removed on drop).
    spool: Option<PathBuf>,
}

/// Which role to start.
pub enum Role<'a> {
    Standalone,
    Coordinator {
        lease_ms: u64,
    },
    Worker {
        coordinator: &'a str,
        spool: PathBuf,
    },
}

impl ServerProcess {
    pub fn spawn(reproduce: &Path, role: Role<'_>) -> Result<Self, String> {
        let mut command = Command::new(reproduce);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        let mut spool = None;
        match role {
            Role::Standalone => {}
            Role::Coordinator { lease_ms } => {
                command.args(["--coordinator", "--lease-ms", &lease_ms.to_string()]);
            }
            Role::Worker {
                coordinator,
                spool: dir,
            } => {
                command.args(["--worker-of", coordinator, "--threads", "1"]);
                // Workers spool shard rows under the temp directory: keep it
                // inside the benchmark's own output directory.
                std::fs::create_dir_all(&dir).map_err(|e| format!("spool dir: {e}"))?;
                command.env("TMPDIR", &dir);
                spool = Some(dir);
            }
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", reproduce.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("ayd-serve listening on http://")
            .map(str::to_string);
        let mut server = Self {
            child,
            _stdout: stdout,
            addr: String::new(),
            spool,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("server did not announce its address: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn peak_rss_mib(&self) -> f64 {
        procfs::peak_rss_mib(self.pid()).unwrap_or(f64::NAN)
    }

    pub fn cpu_seconds(&self) -> f64 {
        procfs::cpu_seconds(self.pid()).unwrap_or(f64::NAN)
    }

    pub fn client(&self) -> Result<HttpClient, String> {
        HttpClient::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One `/metrics` scrape.
    pub fn metrics(&self) -> Result<Snapshot, String> {
        let response = self
            .client()?
            .get("/metrics", None)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET /metrics: status {}", response.status));
        }
        Snapshot::parse(&response.body)
    }

    /// Polls `/v1/workers` until `want` workers are alive.
    pub fn await_workers(&self, want: usize, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let mut client = self.client()?;
        loop {
            let response = client
                .get("/v1/workers", None)
                .map_err(|e| format!("GET /v1/workers: {e}"))?;
            let alive = ayd_serve::Json::parse(&response.body)
                .ok()
                .and_then(|doc| doc.get("alive").and_then(ayd_serve::Json::as_f64))
                .unwrap_or(0.0);
            if alive as usize >= want {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("{alive} of {want} workers alive after {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.spool {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The server processes of one workload set-up.
pub struct Fleet {
    pub servers: Vec<ServerProcess>,
}

impl Fleet {
    /// The server the load talks to (the coordinator of a cluster).
    pub fn front(&self) -> &ServerProcess {
        &self.servers[0]
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.servers.iter().map(ServerProcess::peak_rss_mib).sum()
    }

    pub fn cpu_seconds(&self) -> Vec<f64> {
        self.servers
            .iter()
            .map(ServerProcess::cpu_seconds)
            .collect()
    }
}

//! Chunking and replica placement.

use mr_net::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifies a chunk cluster-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u64);

/// Identifies a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Static configuration of the file system.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Number of data nodes.
    pub nodes: usize,
    /// Chunk ("block") size in bytes; the paper's testbed used 64 MB.
    pub chunk_bytes: u64,
    /// Replication factor; the paper's testbed used 3.
    pub replication: usize,
}

impl DfsConfig {
    /// The paper's testbed settings over `nodes` data nodes.
    pub fn paper_defaults(nodes: usize) -> Self {
        DfsConfig {
            nodes,
            chunk_bytes: 64 << 20,
            replication: 3,
        }
    }
}

/// One replicated block of a file.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Cluster-wide id.
    pub id: ChunkId,
    /// Owning file.
    pub file: FileId,
    /// Position within the file.
    pub index: u32,
    /// Payload size (the final chunk of a file may be short).
    pub bytes: u64,
    /// Nodes holding a replica; always distinct.
    pub replicas: Vec<NodeId>,
}

/// Where a reader should fetch a chunk from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSource {
    /// The replica to read.
    pub node: NodeId,
    /// True when the replica is on the reader itself (no network needed).
    pub local: bool,
}

struct FileMeta {
    #[allow(dead_code)]
    name: String,
    chunks: Vec<ChunkId>,
}

/// The namenode: chunk metadata and placement policy.
pub struct Dfs {
    cfg: DfsConfig,
    files: Vec<FileMeta>,
    chunks: Vec<Chunk>,
    /// Replica count per node, for balance reporting.
    node_load: Vec<u64>,
    /// Which nodes are up; dead nodes never receive new replicas.
    alive: Vec<bool>,
    rng: StdRng,
}

impl Dfs {
    /// An empty file system with deterministic placement from `seed`.
    pub fn new(cfg: DfsConfig, seed: u64) -> Self {
        assert!(cfg.nodes >= 1, "need at least one node");
        assert!(
            cfg.replication >= 1 && cfg.replication <= cfg.nodes,
            "replication {} must be in 1..={}",
            cfg.replication,
            cfg.nodes
        );
        assert!(cfg.chunk_bytes > 0, "chunk size must be positive");
        Dfs {
            node_load: vec![0; cfg.nodes],
            alive: vec![true; cfg.nodes],
            files: Vec::new(),
            chunks: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xD15C_0000_0000_0001),
            cfg,
        }
    }

    /// Loads a file of `bytes` into the FS, chunking and placing replicas.
    pub fn create_file(&mut self, name: &str, bytes: u64) -> FileId {
        assert!(bytes > 0, "empty files are not useful to MapReduce");
        let id = FileId(self.files.len() as u32);
        let n_chunks = bytes.div_ceil(self.cfg.chunk_bytes);
        let mut chunk_ids = Vec::with_capacity(n_chunks as usize);
        for index in 0..n_chunks {
            let sz = if index == n_chunks - 1 {
                bytes - index * self.cfg.chunk_bytes
            } else {
                self.cfg.chunk_bytes
            };
            let cid = ChunkId(self.chunks.len() as u64);
            let replicas = self.place_replicas(None);
            for &r in &replicas {
                self.node_load[r.0 as usize] += 1;
            }
            self.chunks.push(Chunk {
                id: cid,
                file: id,
                index: index as u32,
                bytes: sz,
                replicas,
            });
            chunk_ids.push(cid);
        }
        self.files.push(FileMeta {
            name: name.to_string(),
            chunks: chunk_ids,
        });
        id
    }

    /// Chunk ids of `file`, in file order.
    pub fn file_chunks(&self, file: FileId) -> &[ChunkId] {
        &self.files[file.0 as usize].chunks
    }

    /// Metadata for a chunk.
    pub fn chunk(&self, id: ChunkId) -> &Chunk {
        &self.chunks[id.0 as usize]
    }

    /// Picks the replica a task running on `reader` should fetch `id` from:
    /// the local replica when one exists, otherwise a deterministic
    /// round-robin choice among the replicas (standing in for HDFS's
    /// network-distance tie-break, which is irrelevant on one switch).
    pub fn read_source(&self, id: ChunkId, reader: NodeId) -> ReadSource {
        let chunk = self.chunk(id);
        if chunk.replicas.contains(&reader) {
            return ReadSource {
                node: reader,
                local: true,
            };
        }
        let pick = chunk.replicas[(id.0 as usize) % chunk.replicas.len()];
        ReadSource {
            node: pick,
            local: false,
        }
    }

    /// Whether any replica of `id` lives on `node`.
    pub fn is_local(&self, id: ChunkId, node: NodeId) -> bool {
        self.chunk(id).replicas.contains(&node)
    }

    /// Placement for a freshly written output block from `writer`:
    /// HDFS-style pipeline — first replica local, remaining on random
    /// distinct remote nodes.
    pub fn write_targets(&mut self, writer: NodeId) -> Vec<NodeId> {
        self.place_replicas(Some(writer))
    }

    /// Drops every replica stored on `node` (disk lost) and marks the
    /// node dead, so it never receives new replicas. Chunks that lose
    /// all replicas are reported back — the job must regenerate them
    /// (see [`Dfs::restore_chunk`]).
    pub fn fail_node(&mut self, node: NodeId) -> Vec<ChunkId> {
        if !self.alive[node.0 as usize] {
            return Vec::new();
        }
        self.alive[node.0 as usize] = false;
        let mut lost = Vec::new();
        for chunk in &mut self.chunks {
            let before = chunk.replicas.len();
            chunk.replicas.retain(|&r| r != node);
            if chunk.replicas.len() < before {
                self.node_load[node.0 as usize] -= 1;
                if chunk.replicas.is_empty() {
                    lost.push(chunk.id);
                }
            }
        }
        lost
    }

    /// Re-ingests a chunk whose replicas were all lost to failures,
    /// placing a fresh replica set on surviving nodes. Models the job
    /// driver re-loading that slice of the input from its external
    /// source (the paper's workloads are generated, so the source is
    /// always available); the ingest traffic itself is not charged to
    /// the simulated network.
    pub fn restore_chunk(&mut self, id: ChunkId) {
        assert!(
            self.chunks[id.0 as usize].replicas.is_empty(),
            "restore_chunk is only for fully lost chunks"
        );
        let replicas = self.place_replicas(None);
        for &r in &replicas {
            self.node_load[r.0 as usize] += 1;
        }
        self.chunks[id.0 as usize].replicas = replicas;
    }

    /// Replica count per node — for balance assertions and reporting.
    pub fn node_load(&self) -> &[u64] {
        &self.node_load
    }

    /// Samples `replication` distinct *alive* nodes by rejection (fewer
    /// when the cluster has shrunk below the replication factor), so
    /// placement stays uniform and never targets a failed node.
    fn place_replicas(&mut self, first: Option<NodeId>) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::with_capacity(self.cfg.replication);
        if let Some(f) = first {
            out.push(f);
        }
        let mut available = (0..self.cfg.nodes as u32)
            .map(NodeId)
            .filter(|n| self.alive[n.0 as usize] && !out.contains(n))
            .count();
        while out.len() < self.cfg.replication && available > 0 {
            let cand = NodeId(self.rng.gen_range(0..self.cfg.nodes as u32));
            if self.alive[cand.0 as usize] && !out.contains(&cand) {
                out.push(cand);
                available -= 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn dfs(nodes: usize) -> Dfs {
        Dfs::new(DfsConfig::paper_defaults(nodes), 7)
    }

    #[test]
    fn chunk_count_is_ceiling_division() {
        let mut fs = dfs(16);
        let f = fs.create_file("wiki", 3 * 1024 * MB); // 3 GB
        assert_eq!(fs.file_chunks(f).len(), 48);
        let g = fs.create_file("odd", 65 * MB); // 64 MB + 1 MB tail
        assert_eq!(fs.file_chunks(g).len(), 2);
        let chunks = fs.file_chunks(g).to_vec();
        assert_eq!(fs.chunk(chunks[0]).bytes, 64 * MB);
        assert_eq!(fs.chunk(chunks[1]).bytes, MB);
    }

    #[test]
    fn replicas_are_distinct_and_exactly_r() {
        let mut fs = dfs(16);
        let f = fs.create_file("data", 1024 * MB);
        for &cid in fs.file_chunks(f) {
            let reps = &fs.chunk(cid).replicas;
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct: {reps:?}");
        }
    }

    #[test]
    fn read_prefers_local_replica() {
        let mut fs = dfs(16);
        let f = fs.create_file("data", 640 * MB);
        for &cid in fs.file_chunks(f) {
            let holder = fs.chunk(cid).replicas[1];
            let src = fs.read_source(cid, holder);
            assert!(src.local);
            assert_eq!(src.node, holder);
        }
    }

    #[test]
    fn remote_read_picks_a_replica() {
        let mut fs = dfs(16);
        let f = fs.create_file("data", 64 * MB);
        let cid = fs.file_chunks(f)[0];
        let outsider = (0..16u32)
            .map(NodeId)
            .find(|n| !fs.is_local(cid, *n))
            .expect("16 nodes, 3 replicas: outsider exists");
        let src = fs.read_source(cid, outsider);
        assert!(!src.local);
        assert!(fs.chunk(cid).replicas.contains(&src.node));
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let mut a = Dfs::new(DfsConfig::paper_defaults(16), 42);
        let mut b = Dfs::new(DfsConfig::paper_defaults(16), 42);
        let fa = a.create_file("x", 512 * MB);
        let fb = b.create_file("x", 512 * MB);
        for (&ca, &cb) in a.file_chunks(fa).iter().zip(b.file_chunks(fb)) {
            assert_eq!(a.chunk(ca).replicas, b.chunk(cb).replicas);
        }
        let mut c = Dfs::new(DfsConfig::paper_defaults(16), 43);
        let fc = c.create_file("x", 512 * MB);
        let differs = a
            .file_chunks(fa)
            .iter()
            .zip(c.file_chunks(fc))
            .any(|(&ca, &cc)| a.chunk(ca).replicas != c.chunk(cc).replicas);
        assert!(differs, "different seeds should place differently");
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let mut fs = dfs(16);
        fs.create_file("big", 16 * 1024 * MB); // 256 chunks * 3 replicas
        let load = fs.node_load();
        let total: u64 = load.iter().sum();
        assert_eq!(total, 256 * 3);
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        // Uniform random placement: expect ~48 per node; allow generous slack.
        assert!(min >= 20 && max <= 80, "unbalanced placement: {load:?}");
    }

    #[test]
    fn write_targets_start_local() {
        let mut fs = dfs(16);
        let targets = fs.write_targets(NodeId(5));
        assert_eq!(targets.len(), 3);
        assert_eq!(targets[0], NodeId(5));
        let mut sorted = targets.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn node_failure_drops_replicas() {
        let mut fs = Dfs::new(
            DfsConfig {
                nodes: 4,
                chunk_bytes: 64 * MB,
                replication: 2,
            },
            1,
        );
        let f = fs.create_file("d", 640 * MB);
        let lost = fs.fail_node(NodeId(2));
        // With replication 2 over 4 nodes, losing one node must not lose
        // data unless both replicas coincided — they can't, they're distinct.
        assert!(lost.is_empty());
        for &cid in fs.file_chunks(f) {
            assert!(!fs.chunk(cid).replicas.contains(&NodeId(2)));
        }
        // Now kill the remaining holders; every chunk must eventually report
        // lost exactly once, at whichever failure removes its last replica.
        let mut lost = Vec::new();
        lost.extend(fs.fail_node(NodeId(0)));
        lost.extend(fs.fail_node(NodeId(1)));
        lost.extend(fs.fail_node(NodeId(3)));
        lost.sort();
        lost.dedup();
        assert_eq!(lost.len(), fs.file_chunks(f).len());
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_cannot_exceed_nodes() {
        let _ = Dfs::new(
            DfsConfig {
                nodes: 2,
                chunk_bytes: 1,
                replication: 3,
            },
            0,
        );
    }
}

//! `orfs-fanin`: closed loop over GM on nine nodes — one ORFS server (n0)
//! and eight ORFA clients (`ClientKind::UserLib`, n1..n8) — on a fabric
//! with 1 % seeded loss.
//!
//! Why: bytes dominate (about 47 events per op), so the registration
//! cache and GM registration, the OS model, DMA and the NIC's reliability
//! layer do the work. Writes converge on the server NIC (rx-FIFO shedding,
//! NACKs, SACK, AIMD) while reads fan out from it: the same layers loaded
//! in opposite directions.
//!
//! * Each client keeps one direct 64 kB `pread`/`pwrite` in flight, 3
//!   reads : 1 write, at random 4 kB-aligned offsets of its own 8 MB file,
//!   from a random slot of a user buffer pool larger than its GM
//!   registration cache, so the cache both hits and evicts.
//! * The next op is due when the previous one resolves. An op unresolved
//!   [`OP_LIMIT_MS`] after it was issued counts as failed and its client
//!   moves on (a read's buffer slot is retired, since its reply may still
//!   land).
//! * Every read is checked against the file model: each 4 kB block holds
//!   the original pattern or the data of the last acknowledged write to
//!   it — or of a write whose fate is unknown (failed or unresolved). At
//!   the end the server's files are checked against the same model.
//!
//! Known and unfixed: two clients that issue concurrent announced (≥ 24 kB)
//! writes under the same request id collide in the server's pending-write
//! table (keyed by tag alone), and one of the two writes never resolves.

use knet::prelude::*;
use knet::{ClusterEv, ClusterWorld};
use knet_orfs::{op_read, op_write, OrfsClientId, OrfsServerId, SysRet, SyscallId};
use knet_simcore::emit_at;
use knet_simfs::SimFs;
use knet_simnic::FaultPlan;

use crate::layers;
use crate::run::{common_checks, resolve, splitmix, Config, RunOutput, Workload};
use crate::stats::{OpRec, Role, Status};
use crate::trace::{span, Kind};

pub const SESSIONS: u64 = 32;
const CLIENTS: usize = 8;
const FILE_LEN: u64 = 8 << 20;
const IO: u64 = 64 << 10;
const BLOCK: u64 = 4096;
const BLOCKS_PER_IO: usize = (IO / BLOCK) as usize;
const FILE_BLOCKS: usize = (FILE_LEN / BLOCK) as usize;
/// User buffer pool per client, in `IO`-sized slots (2 MB)…
const POOL_SLOTS: u64 = 32;
/// …against a 1 MB registration cache.
const REGCACHE_PAGES: usize = 256;
const OPS_PER_CLIENT: u64 = 800;
pub const OP_LIMIT_MS: u64 = 20;
const LOSS: f64 = 0.01;

/// The original file bytes (`knet::harness::pattern_byte`) repeat every
/// 251 bytes, and so does written data: block contents are windows into
/// one precomputed period, so producing and checking a block is a copy
/// or a compare.
const PERIOD: usize = 251;

fn period_table() -> Vec<u8> {
    (0..PERIOD as u64 + BLOCK)
        .map(knet::harness::pattern_byte)
        .collect()
}

/// Contents of one 4 kB block written by write `writer` (> 0) at file
/// offset `off`: a 16-byte header naming both, then a writer-specific
/// window of the pattern.
fn fill_block(table: &[u8], writer: u64, off: u64, out: &mut [u8]) {
    out[..8].copy_from_slice(&writer.to_le_bytes());
    out[8..16].copy_from_slice(&off.to_le_bytes());
    let shift = ((writer * 97 + off / BLOCK) % PERIOD as u64) as usize;
    out[16..].copy_from_slice(&table[shift..shift + BLOCK as usize - 16]);
}

/// Whether `got` is the block written by `writer` (0 = original file) at
/// file offset `off`.
fn block_is(table: &[u8], writer: u64, off: u64, got: &[u8], scratch: &mut [u8]) -> bool {
    if writer == 0 {
        let s = (off % PERIOD as u64) as usize;
        return got == &table[s..s + BLOCK as usize];
    }
    fill_block(table, writer, off, scratch);
    got == scratch
}

/// What a 4 kB block is known to hold.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Content {
    /// The data of this write (0 = the original file).
    Writer(u64),
    /// Bytes no write of the workload produced — left by a write that was
    /// acknowledged without its data landing — identified by their hash.
    Foreign(u64),
}

/// What one block of a client's file may hold.
#[derive(Clone)]
struct BlockModel {
    known: Content,
    /// Writes whose outcome is unknown: they may land at any time.
    maybe: Vec<u64>,
}

impl BlockModel {
    fn holds(&self, table: &[u8], off: u64, got: &[u8], scratch: &mut [u8]) -> bool {
        let known = match self.known {
            Content::Writer(wr) => block_is(table, wr, off, got, scratch),
            Content::Foreign(h) => fnv(got) == h,
        };
        known
            || self
                .maybe
                .iter()
                .any(|&wr| block_is(table, wr, off, got, scratch))
    }
}

fn fnv(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Clone, Copy)]
struct InFlight {
    op: usize,
    sid: SyscallId,
    write: bool,
    offset: u64,
    slot: u64,
    deadline: u64,
}

struct Client {
    cid: OrfsClientId,
    node: NodeId,
    fd: u32,
    user: knet::harness::UBuf,
    /// The client's file on the server.
    ino: knet_simfs::InodeNo,
    rng: u64,
    issued: u64,
    live_slots: Vec<u64>,
    inflight: Option<InFlight>,
    /// Outstanding syscalls that were given up on: sid → (op, write, offset).
    abandoned: Vec<(SyscallId, usize, bool, u64)>,
    file: Vec<BlockModel>,
}

pub struct OrfsFanin {
    w: ClusterWorld,
    server: OrfsServerId,
    clients: Vec<Client>,
    endpoints: Vec<Endpoint>,
    ops_per_client: u64,
    ops: Vec<OpRec>,
    errors: Vec<String>,
    late: u64,
    /// Acknowledged writes whose data was not on the server afterwards.
    corrupt_writes: u64,
    table: Vec<u8>,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    base: Option<layers::Baseline>,
    start: u64,
    end: u64,
}

pub fn setup(cfg: &Config) -> OrfsFanin {
    let mut w = span(Kind::Build, 0, || {
        ClusterBuilder::new()
            .nodes(1 + CLIENTS, CpuModel::xeon_2600())
            .mem_frames(65_536)
            .build()
    });
    let (server, clients, endpoints) = span(Kind::Install, 0, || install(&mut w, cfg));
    OrfsFanin {
        w,
        server,
        clients,
        endpoints,
        ops_per_client: cfg.scaled(OPS_PER_CLIENT),
        ops: Vec::new(),
        errors: Vec::new(),
        late: 0,
        corrupt_writes: 0,
        table: period_table(),
        buf: vec![0; IO as usize],
        scratch: vec![0; BLOCK as usize],
        base: None,
        start: 0,
        end: 0,
    }
}

fn install(w: &mut ClusterWorld, cfg: &Config) -> (OrfsServerId, Vec<Client>, Vec<Endpoint>) {
    let n0 = NodeId(0);
    let srv_ep = w
        .open_gm(
            n0,
            GmPortConfig::kernel()
                .with_physical_api()
                .with_regcache(4096)
                .with_blocking_notify(),
        )
        .expect("server port");
    let server = knet_orfs::server_create(w, srv_ep, SimFs::with_defaults()).expect("server");
    let mut endpoints = vec![srv_ep];
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let path = format!("/f{i}");
        knet::harness::make_server_file(w, server, &path, FILE_LEN);
        let node = NodeId(1 + i as u32);
        let user = knet::harness::ubuf(w, node, POOL_SLOTS * IO);
        let ep = w
            .open_gm(
                node,
                GmPortConfig::user(user.asid).with_regcache(REGCACHE_PAGES),
            )
            .expect("client port");
        endpoints.push(ep);
        let cid = knet_orfs::client_create(
            w,
            ep,
            srv_ep,
            ClientKind::UserLib,
            user.asid,
            VfsConfig::default(),
        )
        .expect("client");
        let fd = knet::harness::fsops::open(w, cid, &path, true).expect("open");
        let fs = &mut w.orfs.server_mut(server).fs;
        let ino = fs.lookup_path(&path).expect("file exists");
        let _ = fs.take_cost();
        let mut rng = cfg.seed ^ (i as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix(&mut rng);
        clients.push(Client {
            cid,
            node,
            fd,
            user,
            ino,
            rng,
            issued: 0,
            live_slots: (0..POOL_SLOTS).collect(),
            inflight: None,
            abandoned: Vec::new(),
            file: vec![
                BlockModel {
                    known: Content::Writer(0),
                    maybe: Vec::new(),
                };
                FILE_BLOCKS
            ],
        });
    }
    w.set_fault_plan(FaultPlan::new(cfg.seed).with_drop(LOSS));
    (server, clients, endpoints)
}

impl OrfsFanin {
    /// Issue client `c`'s next op, due now.
    fn issue(&mut self, c: usize) {
        let w = &mut self.w;
        let t = now(w).nanos();
        let cl = &mut self.clients[c];
        if cl.issued == self.ops_per_client {
            return;
        }
        if cl.live_slots.is_empty() {
            self.errors
                .push(format!("client {c}: every buffer slot retired"));
            return;
        }
        cl.issued += 1;
        let r = splitmix(&mut cl.rng);
        let write = r.is_multiple_of(4);
        let offset = ((r >> 8) % (FILE_BLOCKS - BLOCKS_PER_IO) as u64) * BLOCK;
        let slot = cl.live_slots[((r >> 40) % cl.live_slots.len() as u64) as usize];
        let op = self.ops.len();
        self.ops.push(OpRec::new(
            t,
            IO,
            Role {
                latency: true,
                write,
                victim: !write,
            },
        ));
        let mem = cl.user.memref_at(slot * IO, IO);
        if write {
            // Write ids are op ids + 1 (0 names the original contents).
            for b in 0..BLOCKS_PER_IO {
                let at = b * BLOCK as usize;
                fill_block(
                    &self.table,
                    op as u64 + 1,
                    offset + at as u64,
                    &mut self.buf[at..at + BLOCK as usize],
                );
            }
            w.os.node_mut(cl.node)
                .write_virt(cl.user.asid, cl.user.addr.add(slot * IO), &self.buf)
                .expect("fill write buffer");
        }
        let (cid, fd) = (cl.cid, cl.fd);
        let sid = span(Kind::OrfsSubmit, op as u64, || {
            if write {
                op_write(w, cid, fd, mem, offset)
            } else {
                op_read(w, cid, fd, mem, offset)
            }
        });
        let deadline = t + OP_LIMIT_MS * 1_000_000;
        cl.inflight = Some(InFlight {
            op,
            sid,
            write,
            offset,
            slot,
            deadline,
        });
        // Make sure the loop stops at the deadline even if nothing else
        // is scheduled then.
        emit_at(
            w,
            cl.node.0,
            SimTime::from_nanos(deadline),
            ClusterEv::Call(Box::new(|_| {})),
        );
    }

    /// Mark the blocks a write touched as possibly holding its data.
    fn maybe_written(&mut self, c: usize, op: usize, offset: u64) {
        let first = (offset / BLOCK) as usize;
        for b in &mut self.clients[c].file[first..first + BLOCKS_PER_IO] {
            b.maybe.push(op as u64 + 1);
        }
    }

    fn complete(&mut self, c: usize, sid: SyscallId, res: knet_orfs::SysResult) {
        let t = now(&self.w).nanos();
        let Some(f) = self.clients[c].inflight.filter(|f| f.sid == sid) else {
            // A syscall given up on resolved late; a write that did land
            // is already among its blocks' possible contents.
            let ab = &mut self.clients[c].abandoned;
            match ab.iter().position(|a| a.0 == sid) {
                Some(i) => {
                    let (_, op, write, offset) = ab.swap_remove(i);
                    self.late += 1;
                    if write && matches!(res, Ok(SysRet::Bytes(n)) if n == IO) {
                        self.settle_write(c, op, offset);
                    }
                }
                None => self
                    .errors
                    .push(format!("client {c}: unknown syscall {sid} completed")),
            }
            return;
        };
        self.clients[c].inflight = None;
        match res {
            Ok(SysRet::Bytes(n)) if n == IO => {
                let ok = if f.write {
                    self.settle_write(c, f.op, f.offset)
                } else {
                    self.check_read(c, f);
                    true
                };
                let status = if ok { Status::Ok } else { Status::Failed };
                resolve(&mut self.ops, f.op, status, t, &mut self.errors);
            }
            Ok(other) => {
                self.errors
                    .push(format!("client {c}: op {} returned {other:?}", f.op));
                resolve(&mut self.ops, f.op, Status::Failed, t, &mut self.errors);
            }
            Err(_) => {
                if f.write {
                    self.maybe_written(c, f.op, f.offset);
                }
                resolve(&mut self.ops, f.op, Status::Failed, t, &mut self.errors);
            }
        }
        self.issue(c);
    }

    /// Read one block of client `c`'s file straight from the server's file
    /// system. The cost SimFs charges is drained and its counters restored,
    /// so the simulation does not see the check.
    fn server_block(&mut self, c: usize, off: u64) {
        let t = now(&self.w);
        let fs = &mut self.w.orfs.server_mut(self.server).fs;
        let saved = fs.stats;
        fs.read(self.clients[c].ino, off, &mut self.scratch, t)
            .expect("server read");
        let _ = fs.take_cost();
        fs.stats = saved;
    }

    /// Write `op` was acknowledged: record what its blocks now hold on the
    /// server. Returns whether its data landed; an acknowledged write whose
    /// data is not there counts as failed.
    fn settle_write(&mut self, c: usize, op: usize, offset: u64) -> bool {
        let writer = op as u64 + 1;
        let mut landed = true;
        let mut expect = vec![0u8; BLOCK as usize];
        for b in 0..BLOCKS_PER_IO {
            let off = offset + b as u64 * BLOCK;
            self.server_block(c, off);
            fill_block(&self.table, writer, off, &mut expect);
            let known = if self.scratch == expect {
                Content::Writer(writer)
            } else {
                landed = false;
                Content::Foreign(fnv(&self.scratch))
            };
            let model = &mut self.clients[c].file[(off / BLOCK) as usize];
            model.known = known;
            model.maybe.retain(|&m| m != writer);
        }
        if !landed {
            self.corrupt_writes += 1;
        }
        landed
    }

    fn check_read(&mut self, c: usize, f: InFlight) {
        let cl = &self.clients[c];
        self.w
            .os
            .node(cl.node)
            .read_virt(cl.user.asid, cl.user.addr.add(f.slot * IO), &mut self.buf)
            .expect("read buffer mapped");
        for b in 0..BLOCKS_PER_IO {
            let off = f.offset + b as u64 * BLOCK;
            let got = &self.buf[b * BLOCK as usize..(b + 1) * BLOCK as usize];
            let model = &cl.file[(off / BLOCK) as usize];
            if !model.holds(&self.table, off, got, &mut self.scratch) {
                let writer = u64::from_le_bytes(got[..8].try_into().expect("8 bytes"));
                let at = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes"));
                self.errors.push(format!(
                    "client {c}: read op {} block at {off} is not what the server holds \
                     (header: writer {writer} offset {at}; expected {:?} or one of {:?})",
                    f.op, model.known, model.maybe
                ));
                return;
            }
        }
    }

    fn expire(&mut self, c: usize) {
        let t = now(&self.w).nanos();
        let Some(f) = self.clients[c].inflight.filter(|f| t >= f.deadline) else {
            return;
        };
        let cl = &mut self.clients[c];
        cl.inflight = None;
        cl.abandoned.push((f.sid, f.op, f.write, f.offset));
        if f.write {
            self.maybe_written(c, f.op, f.offset);
        } else {
            // Its reply may still land in the slot.
            self.clients[c].live_slots.retain(|&s| s != f.slot);
        }
        resolve(&mut self.ops, f.op, Status::Unresolved, t, &mut self.errors);
        self.issue(c);
    }

    /// Compare every block of every file on the server with the model.
    fn check_server_files(&mut self) {
        let t = now(&self.w);
        let fs = &mut self.w.orfs.server_mut(self.server).fs;
        let mut block = vec![0u8; BLOCK as usize];
        for (c, cl) in self.clients.iter().enumerate() {
            for (i, model) in cl.file.iter().enumerate() {
                let off = i as u64 * BLOCK;
                fs.read(cl.ino, off, &mut block, t).expect("server read");
                if !model.holds(&self.table, off, &block, &mut self.scratch) {
                    self.errors.push(format!(
                        "server file /f{c}: block at {off} matches no write"
                    ));
                    break;
                }
            }
        }
        let _ = fs.take_cost();
    }
}

impl Workload for OrfsFanin {
    fn run(&mut self) {
        let bytes = self.w.orfs.server(self.server).fs.stats.bytes_written;
        self.base = Some(layers::baseline(&self.w, NodeId(0), bytes));
        self.start = now(&self.w).nanos();
        for c in 0..CLIENTS {
            self.issue(c);
        }
        loop {
            let next_deadline = self
                .clients
                .iter()
                .filter_map(|c| c.inflight.map(|f| f.deadline))
                .min();
            let Some(deadline) = next_deadline else { break };
            let cids: Vec<OrfsClientId> = self.clients.iter().map(|c| c.cid).collect();
            span(Kind::Slice, 0, || {
                run_until(&mut self.w, |w| {
                    now(w).nanos() >= deadline
                        || cids.iter().any(|&c| !w.orfs.client(c).completed.is_empty())
                })
            });
            span(Kind::Handler, 0, || {
                for c in 0..CLIENTS {
                    while let Some((sid, res)) = self
                        .w
                        .orfs
                        .client_mut(self.clients[c].cid)
                        .completed
                        .pop_front()
                    {
                        self.complete(c, sid, res);
                    }
                    self.expire(c);
                }
            });
        }
        self.end = now(&self.w).nanos();
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        // Let abandoned syscalls that can still resolve do so, so a late
        // write is settled before the files are checked.
        run_until(&mut self.w, |_| false);
        for c in 0..CLIENTS {
            while let Some((sid, res)) = self
                .w
                .orfs
                .client_mut(self.clients[c].cid)
                .completed
                .pop_front()
            {
                self.complete(c, sid, res);
            }
        }
        self.check_server_files();
        let mut errors = std::mem::take(&mut self.errors);
        common_checks(&self.w, &self.ops, &mut errors);
        let base = self.base.expect("run before finish");
        let srv = self.w.orfs.server(self.server);
        let (staging, fs_bytes) = (srv.staging_len() as u64, srv.fs.stats.bytes_written);
        let abandoned: usize = self.clients.iter().map(|c| c.abandoned.len()).sum();
        let layers = layers::counters(
            &self.w,
            &base,
            &layers::Extra {
                server: NodeId(0),
                endpoints: std::mem::take(&mut self.endpoints),
                run_len_ns: self.end - self.start,
                attempted: self.ops.len() as u64,
                orfs_staging_leftover: staging,
                orfs_corrupt_writes: self.corrupt_writes,
                fs_bytes_written: fs_bytes,
                kv_ops: 0,
                promotion_ms: 0.0,
            },
        );
        RunOutput {
            ops: std::mem::take(&mut self.ops),
            start: self.start,
            end: self.end,
            kill: None,
            layers,
            notes: vec![
                ("abandoned_syscalls".into(), abandoned as f64),
                ("late_completions".into(), self.late as f64),
            ],
            errors,
        }
    }
}
